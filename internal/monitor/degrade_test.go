package monitor

import (
	"testing"

	"repro/internal/loop"
)

// mortalSource is a scriptable ReportSource + LivenessSource.
type mortalSource struct {
	alive bool
	rep   Report
	calls int
}

func (f *mortalSource) Alive() bool { return f.alive }

func (f *mortalSource) EndInterval() Report {
	f.calls++
	return f.rep
}

func trafficReport(bytes float64) Report {
	var r Report
	r.Hist[3] = bytes
	r.ElephantBytes = bytes
	r.ElephantFlowsW = 1
	r.Flows = 1
	return r
}

// degradeEvent is one OnFault/OnRecover observation.
type degradeEvent struct {
	fault string
	agent int
	kind  string // "fault" or "recover"
}

func hookedController(theta float64, events *[]degradeEvent, sources ...ReportSource) *loop.Controller {
	c := NewController(theta, sources...)
	c.OnFault = func(fault string, agent int) {
		*events = append(*events, degradeEvent{fault, agent, "fault"})
	}
	c.OnRecover = func(fault string, agent int) {
		*events = append(*events, degradeEvent{fault, agent, "recover"})
	}
	return c
}

// TestControllerDegradation drives alive/dead patterns through the
// controller and checks the staleness, eviction, quorum, and flagging
// machinery tick by tick.
func TestControllerDegradation(t *testing.T) {
	type step struct {
		alive        []bool
		wantFrozen   bool
		wantDegraded bool
		wantPresent  int
	}
	cases := []struct {
		name          string
		staleAfter    int
		quorumFrac    float64
		sources       int
		steps         []step
		wantEvictions int
		wantReadmits  int
	}{
		{
			// One of two agents dies: 1/2 present is not below the 0.5
			// default quorum, so tuning continues degraded; after
			// StaleAfter missed intervals the dead agent is evicted.
			name: "stale eviction without quorum loss", staleAfter: 2, sources: 2,
			steps: []step{
				{alive: []bool{true, true}, wantPresent: 2},
				{alive: []bool{true, false}, wantDegraded: true, wantPresent: 1},
				{alive: []bool{true, false}, wantDegraded: true, wantPresent: 1},
				// third miss > StaleAfter: evicted, membership shrinks.
				{alive: []bool{true, false}, wantDegraded: true, wantPresent: 1},
				{alive: []bool{true, false}, wantDegraded: true, wantPresent: 1},
			},
			wantEvictions: 1,
		},
		{
			// Two of three dead: 1/3 < 0.5 freezes until eviction
			// shrinks the membership back to quorum.
			name: "quorum freeze then recovery by eviction", staleAfter: 2, sources: 3,
			steps: []step{
				{alive: []bool{true, true, true}, wantPresent: 3},
				{alive: []bool{true, false, false}, wantFrozen: true, wantDegraded: true, wantPresent: 1},
				{alive: []bool{true, false, false}, wantFrozen: true, wantDegraded: true, wantPresent: 1},
				// Third miss exceeds StaleAfter: both evicted, membership
				// shrinks to 1/1 and quorum is restored.
				{alive: []bool{true, false, false}, wantDegraded: true, wantPresent: 1},
				{alive: []bool{true, false, false}, wantDegraded: true, wantPresent: 1},
			},
			wantEvictions: 2,
		},
		{
			// A crashed agent that returns before eviction: no eviction,
			// no readmit, flags clear.
			name: "recovery before eviction", staleAfter: 3, sources: 2,
			steps: []step{
				{alive: []bool{true, true}, wantPresent: 2},
				{alive: []bool{true, false}, wantDegraded: true, wantPresent: 1},
				{alive: []bool{true, true}, wantPresent: 2},
			},
		},
		{
			// An evicted agent that returns is readmitted immediately.
			name: "readmission after eviction", staleAfter: 1, sources: 2,
			steps: []step{
				{alive: []bool{true, true}, wantPresent: 2},
				{alive: []bool{true, false}, wantDegraded: true, wantPresent: 1},
				{alive: []bool{true, false}, wantDegraded: true, wantPresent: 1},
				{alive: []bool{true, false}, wantDegraded: true, wantPresent: 1}, // evicted
				{alive: []bool{true, true}, wantPresent: 2},
			},
			wantEvictions: 1,
			wantReadmits:  1,
		},
		{
			// Raised quorum: a single loss out of two freezes.
			name: "strict quorum", staleAfter: 100, quorumFrac: 0.6, sources: 2,
			steps: []step{
				{alive: []bool{true, true}, wantPresent: 2},
				{alive: []bool{true, false}, wantFrozen: true, wantDegraded: true, wantPresent: 1},
				{alive: []bool{true, true}, wantPresent: 2},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var events []degradeEvent
			sources := make([]*mortalSource, tc.sources)
			rss := make([]ReportSource, tc.sources)
			for i := range sources {
				sources[i] = &mortalSource{alive: true, rep: trafficReport(1e6)}
				rss[i] = sources[i]
			}
			c := hookedController(0.01, &events, rss...)
			c.StaleAfter = tc.staleAfter
			c.QuorumFrac = tc.quorumFrac
			for si, st := range tc.steps {
				for i, a := range st.alive {
					sources[i].alive = a
				}
				fsd := c.Tick()
				if c.Frozen != st.wantFrozen {
					t.Errorf("step %d: Frozen=%v, want %v", si, c.Frozen, st.wantFrozen)
				}
				if c.Degraded != st.wantDegraded {
					t.Errorf("step %d: Degraded=%v, want %v", si, c.Degraded, st.wantDegraded)
				}
				if fsd.Degraded != st.wantDegraded {
					t.Errorf("step %d: FSD.Degraded=%v, want %v", si, fsd.Degraded, st.wantDegraded)
				}
				if c.PresentAgents != st.wantPresent {
					t.Errorf("step %d: PresentAgents=%d, want %d", si, c.PresentAgents, st.wantPresent)
				}
			}
			if c.Evictions != tc.wantEvictions {
				t.Errorf("Evictions=%d, want %d", c.Evictions, tc.wantEvictions)
			}
			if c.Readmits != tc.wantReadmits {
				t.Errorf("Readmits=%d, want %d", c.Readmits, tc.wantReadmits)
			}
			var evicts, readmits int
			for _, e := range events {
				switch e.fault {
				case "agent_evict":
					evicts++
				case "agent_readmit":
					readmits++
				}
			}
			if evicts != tc.wantEvictions || readmits != tc.wantReadmits {
				t.Errorf("events: evicts=%d readmits=%d, want %d/%d",
					evicts, readmits, tc.wantEvictions, tc.wantReadmits)
			}
		})
	}
}

// TestControllerPartialAggregation checks that a missing agent's flows
// drop out of the aggregate (insert-once: its flows are recorded nowhere
// else) and the result is flagged.
func TestControllerPartialAggregation(t *testing.T) {
	a := &mortalSource{alive: true, rep: trafficReport(3e6)}
	b := &mortalSource{alive: true, rep: trafficReport(1e6)}
	c := NewController(0.01, a, b)
	full := c.Tick()
	if full.Degraded {
		t.Error("full membership flagged degraded")
	}
	if full.TotalBytes != 4e6 {
		t.Errorf("full TotalBytes=%g, want 4e6", full.TotalBytes)
	}
	b.alive = false
	part := c.Tick()
	if !part.Degraded {
		t.Error("partial aggregate not flagged degraded")
	}
	if c.Raw.TotalBytes != 3e6 {
		t.Errorf("partial raw TotalBytes=%g, want 3e6", c.Raw.TotalBytes)
	}
}

// TestControllerFreezeHoldsTriggerPipeline checks that sub-quorum ticks
// neither fire the trigger nor poison the smoothed baseline.
func TestControllerFreezeHoldsTriggerPipeline(t *testing.T) {
	a := &mortalSource{alive: true, rep: trafficReport(1e6)}
	b := &mortalSource{alive: true, rep: trafficReport(1e6)}
	c := NewController(0.01, a, b)
	c.QuorumFrac = 0.9
	c.StaleAfter = 100
	c.Tick() // first traffic: one trigger
	base := c.Triggers
	baseline := c.Current

	// Shift the surviving agent's traffic to pure mice while the other is
	// down: a huge composition change, but frozen ticks must not act on
	// it.
	b.alive = false
	var mice Report
	mice.Hist[0] = 5e6
	mice.MiceBytes = 5e6
	mice.MiceFlowsW = 10
	mice.Flows = 10
	a.rep = mice
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if !c.Frozen {
		t.Fatal("controller not frozen below quorum")
	}
	if c.Triggers != base {
		t.Errorf("frozen ticks fired %d triggers", c.Triggers-base)
	}
	if c.Current != baseline {
		t.Error("frozen ticks mutated the smoothed FSD")
	}
	if c.FrozenTicks != 5 {
		t.Errorf("FrozenTicks=%d, want 5", c.FrozenTicks)
	}

	// Recovery: the pattern change is absorbed and (eventually) triggers.
	b.alive = true
	b.rep = mice
	c.Tick()
	if c.Frozen {
		t.Error("still frozen after recovery")
	}
	if c.Triggers == base {
		t.Error("post-recovery composition change never triggered")
	}
}

// TestControllerPlainSourcesUnaffected pins the zero-value behaviour:
// sources without liveness never freeze, evict, or flag anything.
func TestControllerPlainSourcesUnaffected(t *testing.T) {
	c := NewController(0.01, stubSource{}, stubSource{})
	for i := 0; i < 5; i++ {
		fsd := c.Tick()
		if c.Frozen || c.Degraded || fsd.Degraded {
			t.Fatal("degradation engaged for plain sources")
		}
	}
	if c.Evictions != 0 || c.FrozenTicks != 0 {
		t.Errorf("evictions=%d frozenTicks=%d, want 0/0", c.Evictions, c.FrozenTicks)
	}
}

// stubSource is a liveness-less ReportSource.
type stubSource struct{}

func (stubSource) EndInterval() Report { return trafficReport(1e6) }
