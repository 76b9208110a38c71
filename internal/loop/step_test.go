package loop

import (
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/telemetry"
)

// traffic is one agent's report with the given ternary-weighted flow mix.
func traffic(elephants, mice float64) Report {
	var r Report
	r.Hist[12], r.Hist[0] = 9000, 1000
	r.ElephantBytes, r.MiceBytes = 9000, 1000
	r.ElephantFlowsW, r.MiceFlowsW = elephants, mice
	r.Flows = int32(elephants + mice)
	return r
}

// TestTickReportsIdleAndNeverFrozen: the push path has no membership, so
// no quorum can freeze it, and a tick is idle whenever its aggregate has
// no bytes — with no reports at all, or with reports that carry none.
func TestTickReportsIdleAndNeverFrozen(t *testing.T) {
	c := NewController(0.01)
	c.QuorumFrac = 1
	for _, in := range [][]Report{nil, {{}, {}}} {
		c.TickReports(in)
		if c.Frozen || c.Raw.TotalBytes != 0 || c.Triggers != 0 {
			t.Fatalf("%d reports without bytes: frozen=%v bytes=%g triggers=%d", len(in), c.Frozen, c.Raw.TotalBytes, c.Triggers)
		}
	}
	mice := []Report{traffic(1, 30)}
	c.TickReports(mice)
	if c.Triggers != 1 {
		t.Fatalf("first traffic fired %d triggers, want 1", c.Triggers)
	}
	c.TickReports(mice)
	if c.Triggers != 1 || c.LastKL != 0 {
		t.Errorf("an unchanged mix fired a trigger (KL %g)", c.LastKL)
	}
	c.TickReports([]Report{traffic(12, 6)})
	if c.Triggers != 2 {
		t.Errorf("an elephant-dominant shift fired no trigger (KL %g)", c.LastKL)
	}
	if len(c.Locals) != 1 || c.Locals[0] != traffic(12, 6) {
		t.Errorf("Locals = %v, want the pushed reports", c.Locals)
	}
}

// sessionTuner runs three-step sessions; the third proposal is final.
type sessionTuner struct {
	left      int
	triggers  int
	committed []dcqcn.Params
}

func (s *sessionTuner) Trigger(FSD)  { s.triggers++; s.left = 3 }
func (s *sessionTuner) Active() bool { return s.left > 0 }
func (s *sessionTuner) Commit(p dcqcn.Params) {
	s.committed = append(s.committed, p)
}

func (s *sessionTuner) Step(RuntimeSample, FSD) (dcqcn.Params, bool) {
	if s.left == 0 {
		return dcqcn.Params{}, false
	}
	s.left--
	p := dcqcn.DefaultParams()
	p.KminBytes += int64(s.left)
	return p, true
}

// everyOther refuses every second proposal it is offered.
type everyOther struct{ offered int }

func (a *everyOther) Apply(p dcqcn.Params, now eventsim.Time) bool {
	a.offered++
	return a.offered%2 == 1
}

// TestStepSessionLifecycle: a trigger while a session runs does not
// restart it, only proposals the applier took are committed, and a
// session settles on its final proposal even when the applier refused it.
func TestStepSessionLifecycle(t *testing.T) {
	c := NewController(0.01)
	tun := &sessionTuner{}
	apply := &everyOther{}
	tm := telemetry.NewTunerMetrics(telemetry.NewRegistry())
	var now eventsim.Time
	s := NewStep(c, tun, apply, func() eventsim.Time { return now }, tm)
	var sessions, dispatched, settled int
	s.OnSession = func(FSD) { sessions++ }
	s.OnDispatch = func(dcqcn.Params) { dispatched++ }
	s.OnSettle = func() { settled++ }

	mice, elephants := []Report{traffic(1, 30)}, []Report{traffic(12, 6)}
	for _, in := range [][]Report{mice, mice, elephants} {
		now += eventsim.Millisecond
		fsd := c.TickReports(in)
		s.Decide(RuntimeSample{}, fsd)
	}
	if c.Triggers != 2 || tun.triggers != 1 || sessions != 1 {
		t.Errorf("controller triggers %d, sessions started %d (hook %d); want 2 and 1", c.Triggers, tun.triggers, sessions)
	}
	if apply.offered != 3 || settled != 1 {
		t.Errorf("offered %d proposals, settled %d; want 3, 1", apply.offered, settled)
	}
	if len(tun.committed) != 2 || dispatched != 2 || tm.Dispatches.Value() != 2 {
		t.Errorf("committed %d, dispatched %d, counted %d; want the 2 the applier took", len(tun.committed), dispatched, tm.Dispatches.Value())
	}
	if n := tm.SettleMs.Count(); n != 1 {
		t.Errorf("settle histogram has %d samples, want 1", n)
	}
	if got := tm.DispatchLatencyMs.Sum(); got != 0+2 {
		t.Errorf("dispatch latencies sum to %g ms, want 0 + 2", got)
	}
}
