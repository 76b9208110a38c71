package chaos

import "repro/internal/loop"

// FlakySource wraps a loop.ReportSource with failure modes, and
// implements loop.LivenessSource so the controller's staleness and
// quorum machinery engages.
//
// A crashed source reports !Alive(); the wrapped agent keeps observing
// packets (the switch tap is still installed — a dead *agent process*
// does not stop the data plane), but on Restart everything it
// accumulated is discarded, modelling sketch-state loss across a
// reboot. A stalled source stays alive but serves its last pre-stall
// report verbatim, modelling a wedged agent whose liveness checks still
// pass.
type FlakySource struct {
	inner loop.ReportSource

	alive     bool
	stallLeft int
	last      loop.Report
	hasLast   bool

	// Crashes, Restarts, and StaleServed count injected activity.
	Crashes, Restarts, StaleServed int
}

// NewFlakySource wraps inner, initially alive.
func NewFlakySource(inner loop.ReportSource) *FlakySource {
	return &FlakySource{inner: inner, alive: true}
}

// Alive implements loop.LivenessSource.
func (f *FlakySource) Alive() bool { return f.alive }

// Crash kills the source; it stops answering until Restart.
func (f *FlakySource) Crash() {
	if !f.alive {
		return
	}
	f.alive = false
	f.Crashes++
}

// Restart revives the source with empty state: the wrapped agent's
// accumulated interval (everything since its last report, including the
// whole outage) is read and discarded.
func (f *FlakySource) Restart() {
	if f.alive {
		return
	}
	f.inner.EndInterval() // sketch-state loss: drain and drop
	f.alive = true
	f.stallLeft = 0
	f.hasLast = false
	f.Restarts++
}

// Stall makes the next n EndInterval calls return the last report the
// source produced instead of fresh data.
func (f *FlakySource) Stall(n int) {
	if n > 0 {
		f.stallLeft = n
	}
}

// EndInterval implements loop.ReportSource.
func (f *FlakySource) EndInterval() loop.Report {
	if !f.alive {
		// The controller never asks a !Alive() source, but be safe for
		// callers that skip the liveness check.
		return loop.Report{}
	}
	if f.stallLeft > 0 && f.hasLast {
		f.stallLeft--
		f.StaleServed++
		return f.last
	}
	f.stallLeft = 0
	r := f.inner.EndInterval()
	f.last = r
	f.hasLast = true
	return r
}
