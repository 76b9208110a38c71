package sim_test

import (
	"testing"

	"repro/internal/eventsim"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestSteadyStateZeroAlloc drives a full network — cross-ToR incast with
// DCQCN reacting, sketch agents tapping every ToR, telemetry counting
// intervals — to a congested steady state, then requires that stepping the
// simulation allocates nothing. This is the end-to-end form of the
// per-component AllocsPerRun tests: it catches any path (CNP generation,
// PFC frames, probe replies, timer re-arms, sketch inserts) that still
// allocates per event. Every QP parks its timers while quiescent, so this
// also covers the park/unpark paths: CNPs landing on parked QPs re-arm
// timers through RearmAfter, which must hit the wheel's O(1) in-place
// path without allocating.
func TestSteadyStateZeroAlloc(t *testing.T) {
	testSteadyStateZeroAlloc(t, sim.DefaultConfig(), 0)
}

// With RTT probing on, every host also walks its destinations per probe
// tick and answers probes; those paths keep host-owned scratch.
func TestSteadyStateZeroAllocProbing(t *testing.T) {
	testSteadyStateZeroAlloc(t, sim.DefaultConfig(), 100*eventsim.Microsecond)
}

func testSteadyStateZeroAlloc(t *testing.T, cfg sim.Config, probeEvery eventsim.Time) {
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tm := telemetry.NewSketchMetrics(reg)
	for _, sw := range n.Switches {
		a := monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), 42)
		a.TM = tm
		a.Attach(sw)
	}
	// Cross-ToR incast: three senders on ToR 0 into one receiver on ToR 1,
	// with effectively infinite flows so no completions (and their record
	// appends) happen during the measured window.
	hosts := n.Topo.Hosts()
	for i := 0; i < 3; i++ {
		n.StartFlow(hosts[i], hosts[4], 1<<40)
	}
	if probeEvery > 0 {
		for _, h := range n.Hosts {
			h.StartProbing(probeEvery)
		}
	}
	// Warm up past slow start into the congested steady state: the packet
	// pool and the event slab reach their high-water marks.
	n.Run(2 * eventsim.Millisecond)
	if k := sendingHosts(n); k != 3 {
		t.Fatalf("%d hosts sending, want 3 (flows must outlive the test)", k)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 5000; i++ {
			if !n.Eng.Step() {
				t.Fatal("engine drained during steady-state window")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("simulation allocates %.1f per 5000-event batch in steady state, want 0", allocs)
	}
	if n.PacketPool().Recycled == 0 {
		t.Fatal("packet pool never recycled")
	}
	if probeEvery > 0 && n.Hosts[0].Stats.RTTSamples == 0 {
		t.Fatal("probing arm took no RTT sample")
	}
}
