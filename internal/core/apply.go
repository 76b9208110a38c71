package core

import (
	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/loop"
)

// applier is a simulated apply path: the loop.Applier the decision step
// pushes proposals through, plus what only the simulated loop asks of it.
type applier interface {
	loop.Applier
	// restore force-applies p to the scope: the rollback path.
	restore(p dcqcn.Params, now eventsim.Time)
	// health feeds a live interval's signals to a rollout in flight.
	health(h dispatch.Health, now eventsim.Time)
	// rollout reports the pipeline's phase and epoch; ok is false on the
	// direct path, which has neither.
	rollout() (phase dispatch.Phase, epoch uint64, ok bool)
}

// direct pushes every proposal the loop's guard admits straight to the
// scope's devices.
type direct struct{ *System }

func (a direct) Apply(p dcqcn.Params, _ bool, now eventsim.Time) bool {
	// ("sa" proposals are clamped and repaired by construction, so the
	// guard never refuses one on the default path.)
	if !a.admit(&p, now) {
		return false
	}
	a.restore(p, now)
	return true
}

func (a direct) restore(p dcqcn.Params, _ eventsim.Time) {
	if a.scope != nil {
		a.Net.ApplyParamsToCluster(a.scope, p)
	} else {
		a.Net.ApplyParams(p)
	}
	a.current = p
}

func (direct) health(dispatch.Health, eventsim.Time) {}

func (direct) rollout() (dispatch.Phase, uint64, bool) { return dispatch.PhaseIdle, 0, false }

// staged routes every push through the rollout pipeline: exploration
// steps go through its guard and apply fabric-wide under a fresh epoch,
// and a session-settling dispatch starts a canary rollout plan.
type staged struct{ *System }

func (a staged) Apply(p dcqcn.Params, final bool, now eventsim.Time) bool {
	if final {
		ok, _ := a.Dispatch.SubmitFinal(p, a.utilEWMA, now)
		return ok
	}
	ok, _ := a.Dispatch.SubmitExplore(p, now)
	if ok {
		a.current = p
	}
	return ok
}

// restore goes through the pipeline too, so a rollback is
// epoch-stamped, journaled, and idempotent on the devices.
func (a staged) restore(p dcqcn.Params, now eventsim.Time) {
	a.Dispatch.Restore(p, now)
	a.current = p
}

func (a staged) health(h dispatch.Health, now eventsim.Time) { a.Dispatch.Tick(h, now) }

func (a staged) rollout() (dispatch.Phase, uint64, bool) {
	return a.Dispatch.Phase(), a.Dispatch.Epoch(), true
}
