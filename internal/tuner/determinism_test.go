package tuner

import (
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/loop"
)

// driveSession runs one full session, feeding a deterministic reward
// schedule, and returns the full proposal stream. Run under -race in CI,
// two identical drives also flush out any hidden shared state between
// instances.
func driveSession(t *testing.T, tu Tuner, seedStep int) []dcqcn.Params {
	t.Helper()
	tu.Trigger(elephantFSD())
	var stream []dcqcn.Params
	i := 0
	for tu.Active() {
		// Utility wobbles deterministically in [0.3, 0.7); FSD alternates
		// dominance so guided strategies exercise both directions.
		otp := 0.3 + 0.4*float64((i*37+seedStep)%100)/100
		fsd := elephantFSD()
		if i%3 == 2 {
			fsd = miceFSD()
		}
		if ps, ok := tu.(PerSwitch); ok {
			var r loop.Report
			r.Hist[12] = float64(1000 + i)
			r.ElephantBytes, r.MiceBytes = 900, 100
			r.ElephantFlowsW, r.MiceFlowsW = 9, 1
			ps.ObserveLocals([]loop.Report{r, r, r})
		}
		p, ok := tu.Step(loop.RuntimeSample{OTP: otp, ORTT: 0.5, OPFC: 1}, fsd)
		if !ok {
			t.Fatal("active tuner refused to step")
		}
		stream = append(stream, p)
		i++
		if i > 5000 {
			t.Fatal("session never terminated")
		}
	}
	return stream
}

// TestAllTunersDeterministicProposalStream: equal (config, seed) must
// yield byte-identical proposal streams — the contract tuner.Factory
// documents, and what makes the shootout harness reproducible.
func TestAllTunersDeterministicProposalStream(t *testing.T) {
	for _, name := range Names() {
		a := driveSession(t, mustNew(t, name, quickConfig(), 42), 0)
		b := driveSession(t, mustNew(t, name, quickConfig(), 42), 0)
		if len(a) != len(b) {
			t.Fatalf("%s: stream lengths differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: proposal %d differs:\n%+v\n%+v", name, i, a[i], b[i])
			}
		}
		// A different seed must actually change the stream somewhere for
		// randomized strategies (guards against a swallowed seed).
		if name == "multiecn" || name == "sa" {
			c := driveSession(t, mustNew(t, name, quickConfig(), 43), 0)
			same := len(a) == len(c)
			if same {
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Errorf("%s: seed change did not alter the proposal stream", name)
			}
		}
	}
}

// TestMultiECNAgentStreamStableAcrossAgentCounts pins the DeriveArmSeed
// discipline: agent 0's RNG stream depends only on (seed, 0), so its
// local trajectory is identical whether it shares the fabric with 0 or 7
// other agents (given the same global rewards) — exactly how harness
// arm seeds stay stable across worker counts.
func TestMultiECNAgentStreamStableAcrossAgentCounts(t *testing.T) {
	run := func(agents int) []ECNProposal {
		cfg := quickConfig()
		cfg.MultiECN = MultiECNConfig{Agents: agents, Budget: 20}
		tu := mustNew(t, "multiecn", cfg, 7)
		ps := tu.(PerSwitch)
		tu.Trigger(elephantFSD())
		var got []ECNProposal
		i := 0
		for tu.Active() {
			otp := 0.3 + 0.4*float64((i*37)%100)/100
			tu.Step(loop.RuntimeSample{OTP: otp, ORTT: 0.5, OPFC: 1}, elephantFSD())
			for _, pr := range ps.LocalProposals() {
				if pr.Agent == 0 {
					got = append(got, pr)
				}
			}
			i++
		}
		return got
	}
	one, eight := run(1), run(8)
	if len(one) != len(eight) {
		t.Fatalf("agent-0 stream lengths differ: %d vs %d", len(one), len(eight))
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("agent-0 proposal %d differs across agent counts:\n%+v\n%+v", i, one[i], eight[i])
		}
	}
}
