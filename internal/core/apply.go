package core

import (
	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
)

// applier is the loop.Applier the decision step pushes proposals
// through: each one is guarded, journaled and applied fabric-wide under
// a fresh epoch.
type applier struct{ *System }

func (a applier) Apply(p dcqcn.Params, now eventsim.Time) bool {
	ok, r := a.Dispatch.Submit(p, now)
	a.countReject(r)
	return ok
}

// countReject counts a guard refusal.
func (s *System) countReject(r dispatch.RejectReason) {
	if r != dispatch.RejectNone {
		s.GuardRejects++
		s.TM.GuardRejects.Inc()
	}
}
