package monitor

import (
	"sort"

	"repro/internal/sketch"
)

// FlowState is the ternary classification of §III-B Keypoint 2.
type FlowState int

const (
	// Mice flows have little data and have not filled the window.
	Mice FlowState = iota
	// PotentialElephant flows stay active for δ consecutive intervals
	// but have not yet crossed τ: "temporary mice likely to evolve".
	PotentialElephant
	// Elephant flows have aggregated ≥ τ bytes.
	Elephant
)

func (s FlowState) String() string {
	switch s {
	case Mice:
		return "mice"
	case PotentialElephant:
		return "potential-elephant"
	case Elephant:
		return "elephant"
	default:
		return "unknown"
	}
}

// Table III's flow classification constants, which every FSD source
// classifies under.
const (
	// tauBytes (τ) is the elephant size threshold: 1 MB.
	tauBytes = 1 << 20
	// delta (δ) is the sliding-window length in monitor intervals.
	delta = 3
	// evictAfter evicts a flow with no traffic for this many intervals
	// (≥ δ; finished flows must not linger in the state table).
	evictAfter = 6
)

// trackedFlow is per-flow sliding-window state.
type trackedFlow struct {
	cum          int64 // Φ(f): aggregated bytes since first seen
	activeStreak int   // consecutive intervals with traffic, ≤ Delta kept
	idle         int   // consecutive intervals without traffic
	state        FlowState
}

// Classified is a flow's state and interval contribution after an
// EndInterval tick.
type Classified struct {
	Flow    uint64
	State   FlowState
	Bytes   int64 // bytes observed this interval
	Cum     int64 // Φ(f)
	EWeight float64
}

// Tracker updates ternary flow states from per-interval sketch readings.
// It lives in a switch's control plane.
type Tracker struct {
	flows map[uint64]*trackedFlow

	// Intervals counts EndInterval calls.
	Intervals int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{flows: map[uint64]*trackedFlow{}}
}

// EndInterval ingests one monitor interval's per-flow byte counts (a
// sketch Heavy Part read) and returns each active flow's classification,
// sorted by flow ID for determinism. Flows absent from sizes go idle and
// are eventually evicted.
//
// State rules (Fig 3):
//  1. Φ(f) ≥ τ               → Elephant (sticky while the flow lives).
//  2. Φ(f) < τ, streak ≥ δ   → PotentialElephant.
//  3. otherwise              → Mice.
//
// A PE flow's EWeight — its contribution to the elephant side of the
// distribution — is Φ(f)/τ, the likelihood proxy that sharpens as more
// intervals elapse.
func (t *Tracker) EndInterval(sizes []sketch.FlowSize) []Classified {
	t.Intervals++
	seen := make(map[uint64]bool, len(sizes))
	out := make([]Classified, 0, len(sizes))

	for _, fs := range sizes {
		if fs.Bytes <= 0 {
			continue
		}
		seen[fs.Flow] = true
		f := t.flows[fs.Flow]
		if f == nil {
			f = &trackedFlow{}
			t.flows[fs.Flow] = f
		}
		f.cum += fs.Bytes
		f.activeStreak++
		f.idle = 0
		switch {
		case f.cum >= tauBytes:
			f.state = Elephant
		case f.activeStreak >= delta:
			f.state = PotentialElephant
		default:
			f.state = Mice
		}
		c := Classified{Flow: fs.Flow, State: f.state, Bytes: fs.Bytes, Cum: f.cum}
		if f.state == PotentialElephant {
			c.EWeight = float64(f.cum) / tauBytes
			if c.EWeight > 1 {
				c.EWeight = 1
			}
		} else if f.state == Elephant {
			c.EWeight = 1
		}
		out = append(out, c)
	}

	// Idle bookkeeping and eviction.
	for id, f := range t.flows {
		if seen[id] {
			continue
		}
		f.activeStreak = 0
		f.idle++
		if f.idle >= evictAfter {
			delete(t.flows, id)
		}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}

// ReportFrom converts a set of classifications plus unattributed
// light-part mass into this interval's Report.
func ReportFrom(classified []Classified, lightBytes int64) Report {
	var r Report
	for _, c := range classified {
		r.AddFlow(c.Bytes, c.Cum, c.EWeight)
	}
	addLight(&r, lightBytes)
	return r
}

// addLight credits a sketch's unattributed Light Part bytes to r. They
// belong to flows too small for the Heavy Part, so they count as mice
// mass in the smallest size class.
func addLight(r *Report, lightBytes int64) {
	if lightBytes > 0 {
		r.Hist[0] += float64(lightBytes)
		r.MiceBytes += float64(lightBytes)
	}
}

// ElephantWeight is a hard classification's elephant likelihood, the
// weight Report.AddFlow takes: 1 once size reaches τ, 0 below it.
func ElephantWeight(size int64) float64 {
	if size >= tauBytes {
		return 1
	}
	return 0
}
