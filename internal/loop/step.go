package loop

import (
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/telemetry"
)

// Tuner is the search strategy a Step drives; every tuner.Tuner is one.
type Tuner interface {
	Trigger(fsd FSD)
	Step(sample RuntimeSample, fsd FSD) (dcqcn.Params, bool)
	Commit(p dcqcn.Params)
	Active() bool
}

// Applier is the seam between the decision and the devices. Apply
// admits a proposal and pushes it, or refuses it, and reports which.
// dispatch.Pipeline is the one implementation outside tests: the
// simulated loop's pipeline pushes each epoch to the switches, and the
// daemon's has no devices and answers its epoch on the wire.
type Applier interface {
	Apply(p dcqcn.Params, now eventsim.Time) bool
}

// Step is the decision half of the closed loop: it starts a tuning
// session when its Controller triggers, steps the tuner on each live
// interval, and hands every proposal to its Applier, committing the ones
// that went out. Callers close the interval on the Controller first and
// call Decide only when it is live: not frozen, not idle.
type Step struct {
	tuner Tuner
	apply Applier
	// now reads the loop's clock: virtual time in the simulator, wall
	// time in the daemon.
	now   func() eventsim.Time
	tm    *telemetry.TunerMetrics
	start eventsim.Time

	// OnSession, if set, fires when a session is about to start;
	// OnDispatch after each committed proposal; OnReject after each
	// proposal the Applier refused; OnSettle once a session's final
	// proposal was decided, whether or not it went out.
	OnSession  func(fsd FSD)
	OnDispatch func(p dcqcn.Params)
	OnReject   func()
	OnSettle   func()
}

// NewStep wires a decision step to ctl's trigger. A trigger starts a
// session only while the tuner is idle: a session runs to its
// temperature floor (Algorithm 1), and KL spikes during an active search
// must not restart it, or noisy FSDs would pin the tuner at maximum
// temperature forever.
func NewStep(ctl *Controller, tun Tuner, apply Applier, now func() eventsim.Time, tm *telemetry.TunerMetrics) *Step {
	s := &Step{tuner: tun, apply: apply, now: now, tm: tm}
	ctl.OnTrigger = func(fsd FSD) {
		if !tun.Active() {
			s.Trigger(fsd)
		}
	}
	return s
}

// Trigger starts (or restarts) a tuning session on fsd.
func (s *Step) Trigger(fsd FSD) {
	if s.OnSession != nil {
		s.OnSession(fsd)
	}
	s.start = s.now()
	s.tuner.Trigger(fsd)
}

// Decide steps the tuner on one live interval and applies its proposal.
func (s *Step) Decide(sample RuntimeSample, fsd FSD) {
	wasActive := s.tuner.Active()
	p, ok := s.tuner.Step(sample, fsd)
	if !ok {
		return
	}
	now := s.now()
	final := wasActive && !s.tuner.Active()
	if s.apply.Apply(p, now) {
		s.tuner.Commit(p)
		if s.OnDispatch != nil {
			s.OnDispatch(p)
		}
		s.tm.Dispatches.Inc()
		s.tm.DispatchLatencyMs.Observe(float64(now-s.start) / 1e6)
	} else if s.OnReject != nil {
		s.OnReject()
	}
	if final {
		s.tm.SettleMs.Observe(float64(now-s.start) / 1e6)
		if s.OnSettle != nil {
			s.OnSettle()
		}
	}
}
