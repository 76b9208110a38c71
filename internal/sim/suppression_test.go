package sim_test

import (
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
)

// runSuppressionArm builds a network, drives a bursty workload with a
// long idle tail (so QPs re-quiesce and — with suppression on — park
// their timers), and returns the network for state comparison.
func runSuppressionArm(t *testing.T, suppress bool) *sim.Network {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.SuppressQuiescentTimers = suppress
	// Fast alpha decay so idle QPs actually reach the alpha snap floor
	// within the run; same value in both arms, so still a pure A/B.
	cfg.Params.G = 0.5
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.Hosts()
	// Cross-ToR incast burst: enough congestion for real cuts, CNPs, and
	// ECN marks, then everything drains and the fabric goes idle.
	for i := 0; i < 3; i++ {
		n.StartFlow(hosts[i], hosts[5], 2<<20)
	}
	// Second wave mid-run: CNPs land on QPs in every phase — cut, fast
	// recovery, and (in the suppressed arm) parked.
	n.StartFlowAt(4*eventsim.Millisecond, hosts[1], hosts[6], 1<<20)
	n.StartFlowAt(4*eventsim.Millisecond, hosts[2], hosts[6], 1<<20)
	n.Run(30 * eventsim.Millisecond)
	return n
}

// TestSuppressionSimInvariant is the end-to-end form of the RP-level
// invariance tests: an identical fabric and workload must produce
// byte-identical flow records and packet/mark/CNP counts whether
// quiescent-timer suppression is on or off. Only timer-fire event counts
// may differ — that is the entire point of the optimization.
func TestSuppressionSimInvariant(t *testing.T) {
	off := runSuppressionArm(t, false)
	on := runSuppressionArm(t, true)

	if len(off.Completed) != len(on.Completed) {
		t.Fatalf("completed flows differ: %d without suppression, %d with", len(off.Completed), len(on.Completed))
	}
	if len(off.Completed) != 5 {
		t.Fatalf("completed %d flows, want all 5 (grow the deadline)", len(off.Completed))
	}
	for i := range off.Completed {
		if off.Completed[i] != on.Completed[i] {
			t.Errorf("flow record %d diverges:\n  off: %+v\n  on:  %+v", i, off.Completed[i], on.Completed[i])
		}
	}
	for i, h := range off.Hosts {
		a, b := h.Stats, on.Hosts[i].Stats
		if a != b {
			t.Errorf("host %d stats diverge:\n  off: %+v\n  on:  %+v", i, a, b)
		}
	}
	for i, sw := range off.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			a, b := sw.Port(p).Stats, on.Switches[i].Port(p).Stats
			if a != b {
				t.Errorf("switch %d port %d stats diverge:\n  off: %+v\n  on:  %+v", i, p, a, b)
			}
		}
	}

	// Suppression must have skipped work: by the idle tail every QP is
	// parked, so the suppressed run processed strictly fewer events.
	if on.Eng.Processed >= off.Eng.Processed {
		t.Errorf("suppressed run processed %d events, unsuppressed %d — suppression saved nothing",
			on.Eng.Processed, off.Eng.Processed)
	}
}
