package monitor

import (
	"repro/internal/rnic"
	"repro/internal/sketch"
)

// RNICAgent realizes the §V "relaxation of programmable switches"
// discussion: if RNICs expose per-QP counters, the entire flow-size
// measurement can run at the hosts with no switch sketches at all. One
// RNICAgent covers a group of hosts (typically a rack) and feeds the same
// ternary tracker the sketch agents use — but from exact per-QP byte
// counts, so there is no Light Part residue and no hash collisions.
//
// The trade-off the paper notes still holds: this mode depends on RNIC
// hardware support, whereas the sketch agents only need the ToRs.
type RNICAgent struct {
	hosts   []*rnic.Host
	tracker *Tracker
}

// NewRNICAgent builds an agent over the given hosts' per-QP counters and
// has each host record the residue of completed flows for it.
func NewRNICAgent(hosts []*rnic.Host) *RNICAgent {
	for _, h := range hosts {
		h.RecordFlowBytes()
	}
	return &RNICAgent{hosts: hosts, tracker: NewTracker()}
}

// EndInterval implements ReportSource by draining every host's per-flow
// byte counters into the ternary tracker.
func (a *RNICAgent) EndInterval() Report {
	var sizes []sketch.FlowSize
	for _, h := range a.hosts {
		for _, fb := range h.TakeFlowBytes() {
			sizes = append(sizes, sketch.FlowSize{Flow: fb.Flow, Bytes: fb.Bytes})
		}
	}
	return ReportFrom(a.tracker.EndInterval(sizes), 0)
}
