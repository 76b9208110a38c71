package tuner

import (
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/loop"
)

// TestAllTunersProposalsGuardAdmissible drives a full session per
// strategy and pushes every proposal through the same dispatch.Guard the
// control loop uses: in-spec bounds and Kmin < Kmax ordering must hold
// for every vector a strategy emits, by construction, so the loop-level
// guard never fires on an in-tree tuner.
func TestAllTunersProposalsGuardAdmissible(t *testing.T) {
	for _, name := range Names() {
		g := dispatch.NewGuard(dispatch.GuardConfig{})
		tu := mustNew(t, name, quickConfig(), 3)
		live := dcqcn.DefaultParams()
		now := eventsim.Time(0)
		tu.Trigger(miceFSD())
		i := 0
		for tu.Active() {
			otp := 0.2 + 0.6*float64((i*53)%100)/100
			p, ok := tu.Step(loop.RuntimeSample{OTP: otp, ORTT: 0.4, OPFC: 0.97}, miceFSD())
			if !ok {
				t.Fatalf("%s: active tuner refused to step", name)
			}
			if reason, spec := g.Admit(&p, &live, now); reason != dispatch.RejectNone {
				t.Fatalf("%s: proposal %d rejected (%s): %+v", name, i, g.Explain(reason, spec), p)
			}
			live = p
			now += eventsim.Millisecond
			i++
			if i > 5000 {
				t.Fatalf("%s: session never terminated", name)
			}
		}
		if g.Rejects() != 0 {
			t.Errorf("%s: guard rejected %d proposals", name, g.Rejects())
		}
	}
}

// TestPerSwitchProposalsGuardAdmissible does the same for multiecn's
// per-switch output: each agent's (Kmin, Kmax, Pmax) trio, substituted
// into the live vector exactly as the loop does before ApplySwitchECN,
// must pass the guard.
func TestPerSwitchProposalsGuardAdmissible(t *testing.T) {
	g := dispatch.NewGuard(dispatch.GuardConfig{})
	cfg := quickConfig()
	cfg.MultiECN = MultiECNConfig{Agents: 4, Budget: 40}
	tu := mustNew(t, "multiecn", cfg, 9)
	ps := tu.(PerSwitch)
	live := dcqcn.DefaultParams()
	now := eventsim.Time(0)
	tu.Trigger(elephantFSD())
	i := 0
	for tu.Active() {
		otp := 0.2 + 0.6*float64((i*53)%100)/100
		tu.Step(loop.RuntimeSample{OTP: otp, ORTT: 0.4, OPFC: 0.97}, elephantFSD())
		for _, pr := range ps.LocalProposals() {
			cand := live
			cand.KminBytes, cand.KmaxBytes, cand.PMax = pr.KminBytes, pr.KmaxBytes, pr.PMax
			if reason, spec := g.Admit(&cand, &live, now); reason != dispatch.RejectNone {
				t.Fatalf("agent %d proposal rejected (%s): %+v", pr.Agent, g.Explain(reason, spec), pr)
			}
		}
		now += eventsim.Millisecond
		i++
	}
}

// TestGuardRejectsMalformedVector pins the rejection side: the guard the
// loop wraps around every strategy refuses misordered and out-of-spec
// vectors, whatever emitted them.
func TestGuardRejectsMalformedVector(t *testing.T) {
	g := dispatch.NewGuard(dispatch.GuardConfig{})
	live := dcqcn.DefaultParams()

	swapped := live
	swapped.KminBytes, swapped.KmaxBytes = swapped.KmaxBytes, swapped.KminBytes
	if reason, _ := g.Admit(&swapped, &live, 0); reason == dispatch.RejectNone {
		t.Error("Kmin >= Kmax admitted")
	}
	huge := live
	huge.KmaxBytes = 1 << 40
	if reason, _ := g.Admit(&huge, &live, 0); reason == dispatch.RejectNone {
		t.Error("out-of-spec Kmax admitted")
	}
	negp := live
	negp.PMax = -0.5
	if reason, _ := g.Admit(&negp, &live, 0); reason == dispatch.RejectNone {
		t.Error("negative Pmax admitted")
	}
}
