package core

import (
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// commitWAL journals to a MemWAL and hands check each commit record as
// it is appended.
type commitWAL struct {
	dispatch.MemWAL
	check func(r dispatch.Record)
}

func (w *commitWAL) Append(r dispatch.Record) error {
	if r.Kind == dispatch.KindCommit {
		w.check(r)
	}
	return w.MemWAL.Append(r)
}

// TestSystemDispatchPipeline runs the closed loop with canary plans on:
// exploration dispatches go fabric-wide under fresh epochs, the
// session-settling dispatch walks a canary plan, and at least one plan
// commits with the whole fabric on one epoch.
func TestSystemDispatchPipeline(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSystem()
	cfg.Telemetry = telemetry.NewRegistry()
	// The pipeline's devices are the ToRs, and at the instant a plan commits
	// every one of them runs the committed vector. That instant is the only
	// time the committed vector is guaranteed: see the live-vector check
	// below. (The check reads the ToRs' switch parameters, not RNICParams():
	// a canary or promote wave that covers part of the fabric goes through
	// ApplyParamsToCluster, which installs per-host overrides and leaves the
	// shared RNIC vector and the leaf switches alone.) The commit record is
	// journaled at that instant.
	wal := &commitWAL{check: func(r dispatch.Record) {
		for _, tor := range n.Topo.ToRs() {
			if *n.SwitchParams(tor) != *r.Params {
				t.Errorf("at commit of epoch %d ToR %d does not run the committed vector", r.Epoch, tor)
			}
		}
	}}
	cfg.Dispatch = dispatch.Config{Canary: 1, SettleIntervals: 2, WAL: wal}
	s, err := Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hosts := n.Topo.Hosts()
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 256<<20)
	}
	n.Run(40 * eventsim.Millisecond)
	s.Stop()

	if s.Dispatches == 0 {
		t.Error("no dispatches went through the pipeline")
	}
	if s.Dispatch.Epoch() == 0 {
		t.Error("no epochs granted")
	}
	if s.Dispatch.Plans == 0 {
		t.Error("no canary plan started despite a settling session")
	}
	if s.Dispatch.Commits == 0 {
		t.Errorf("no plan committed (plans=%d aborts=%d phase=%v)",
			s.Dispatch.Plans, s.Dispatch.Aborts, s.Dispatch.Phase())
	}
	if s.Dispatch.Phase() == dispatch.PhaseIdle {
		if !s.Dispatch.Fabric().Converged() {
			t.Errorf("idle pipeline with diverged fabric: epochs %v", s.Dispatch.Fabric().Epochs())
		}
		// An idle pipeline does not mean the committed vector is running:
		// SubmitExplore puts each exploration step fabric-wide while the
		// phase stays idle, so a session that explores after the last commit
		// leaves the network on a candidate. Whether the run stops inside
		// such a session depends on the ECN coins; what always holds is that
		// every device of the pipeline runs its live vector.
		for _, tor := range n.Topo.ToRs() {
			if *n.SwitchParams(tor) != s.Dispatch.Live() {
				t.Errorf("idle, converged pipeline: ToR %d params differ from the live vector", tor)
			}
		}
	}
}

// TestSystemCanaryPlansFollowCanary runs a session to settle twice. With
// Canary 0 the settling vector goes fabric-wide at the interval it was
// decided and no plan ever starts; with Canary 1 it starts a canary plan
// on the first device only.
func TestSystemCanaryPlansFollowCanary(t *testing.T) {
	for _, canary := range []int{0, 1} {
		n, err := sim.New(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickSystem()
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Dispatch = dispatch.Config{Canary: canary}
		s, err := Attach(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var last dcqcn.Params
		s.OnDispatch = func(p dcqcn.Params) { last = p }
		settles := 0
		onSettle := s.step.OnSettle
		s.step.OnSettle = func() {
			onSettle()
			settles++
			if settles > 1 {
				return
			}
			if canary == 0 {
				for _, tor := range n.Topo.ToRs() {
					if *n.SwitchParams(tor) != last {
						t.Errorf("canary 0: ToR %d does not run the settling vector at its interval", tor)
					}
				}
				return
			}
			if s.Dispatch.Plans != 1 || s.Dispatch.Phase() != dispatch.PhaseCanary {
				t.Errorf("canary 1: plans=%d phase=%v at settle, want one plan in canary", s.Dispatch.Plans, s.Dispatch.Phase())
			}
			if devs := s.Dispatch.Fabric().Devices; devs[0].Params != last || devs[1].Params == last {
				t.Error("canary 1: the settling vector is not on exactly the canary device")
			}
		}
		s.Start()
		hosts := n.Topo.Hosts()
		for i := 1; i <= 3; i++ {
			n.StartFlow(hosts[i], hosts[0], 256<<20)
		}
		n.Run(30 * eventsim.Millisecond)
		s.Stop()
		if settles == 0 {
			t.Fatalf("canary %d: no session settled", canary)
		}
		if canary == 0 && s.Dispatch.Plans != 0 {
			t.Errorf("canary 0: %d plans started", s.Dispatch.Plans)
		}
	}
}

// TestExploreAfterCommitReachesEveryHost pins that a committed canary plan
// does not pin the hosts: its canary and promote waves each cover part of
// the fabric and install per-host overrides, and the next fabric-wide
// exploration step must still change what every host's QPs run on.
func TestExploreAfterCommitReachesEveryHost(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSystem()
	cfg.Dispatch = dispatch.Config{Canary: 1, SettleIntervals: 1}
	s, err := Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Dispatch
	final := *n.RNICParams()
	final.KminBytes += 4 << 10
	if ok, r := d.SubmitFinal(final, 0, n.Eng.Now()); !ok {
		t.Fatalf("plan refused: %v", r)
	}
	n.Eng.RunUntil(n.Eng.Now() + eventsim.Millisecond)
	d.Tick(dispatch.Health{}, n.Eng.Now())
	n.Eng.RunUntil(n.Eng.Now() + eventsim.Millisecond)
	if d.Commits != 1 {
		t.Fatalf("plan did not commit: phase %v", d.Phase())
	}
	hosts := n.Topo.Hosts()
	for _, hn := range hosts {
		if got := *n.Host(hn).Params(); got != final {
			t.Fatalf("host %d does not run the committed vector", hn)
		}
	}

	explore := final
	explore.KminBytes += 4 << 10
	if ok, r := d.SubmitExplore(explore, n.Eng.Now()); !ok {
		t.Fatalf("exploration refused: %v", r)
	}
	for _, hn := range hosts {
		if got := *n.Host(hn).Params(); got != explore {
			t.Errorf("host %d still runs KminBytes %d after exploring %d", hn, got.KminBytes, explore.KminBytes)
		}
	}
}
