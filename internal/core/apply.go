package core

import (
	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
)

// applier is the loop.Applier the decision step pushes proposals
// through. A session-settling proposal starts a canary rollout plan when
// plans are on (Dispatch.Canary > 0); every other proposal is guarded
// and applied fabric-wide under a fresh epoch.
type applier struct{ *System }

func (a applier) Apply(p dcqcn.Params, final bool, now eventsim.Time) bool {
	var ok bool
	var r dispatch.RejectReason
	if final && a.plans {
		ok, r = a.Dispatch.SubmitFinal(p, 0, now)
	} else {
		ok, r = a.Dispatch.SubmitExplore(p, now)
	}
	a.countReject(r)
	return ok
}

// countReject counts a guard refusal. A plan in flight is not one: the
// proposal was well-formed, the fabric was just busy.
func (s *System) countReject(r dispatch.RejectReason) {
	if r != dispatch.RejectNone && r != dispatch.RejectInFlight {
		s.GuardRejects++
		s.TM.GuardRejects.Inc()
	}
}
