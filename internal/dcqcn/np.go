package dcqcn

import "repro/internal/eventsim"

// NP is the Notification Point state for one flow at the receiver RNIC: it
// converts ECN-marked data packets into CNPs, pacing them so at most one
// CNP per min_time_between_cnps leaves for a given flow. It reads the
// vector it was built with, or the one SetParams last pointed it at.
type NP struct {
	params *Params

	lastCNP eventsim.Time
	everCNP bool

	// Marked counts ECN-marked packets observed; CNPs counts
	// notifications actually emitted.
	Marked, CNPs int
}

// NewNP returns a notification point reading params, which must not be
// nil.
func NewNP(params *Params) *NP {
	return &NP{params: params}
}

// SetParams points the NP at p, which must not be nil.
func (np *NP) SetParams(p *Params) { np.params = p }

// OnECNMarked records an ECN-marked arrival at virtual time now and
// reports whether a CNP should be sent back to the flow's RP.
func (np *NP) OnECNMarked(now eventsim.Time) bool {
	np.Marked++
	if np.everCNP && now-np.lastCNP < np.params.MinTimeBetweenCNPs {
		return false
	}
	np.lastCNP = now
	np.everCNP = true
	np.CNPs++
	return true
}
