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

// TrackerConfig parameterizes ternary state tracking.
type TrackerConfig struct {
	// TauBytes (τ) is the elephant size threshold (paper: 1 MB).
	TauBytes int64
	// Delta (δ) is the sliding-window length in monitor intervals
	// (paper: 3).
	Delta int
	// EvictAfter evicts a flow with no traffic for this many intervals
	// (≥ Delta; finished flows must not linger in the state table).
	EvictAfter int
}

// DefaultTrackerConfig mirrors Table III (τ = 1 MB, δ = 3).
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{TauBytes: 1 << 20, Delta: 3, EvictAfter: 6}
}

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
	cfg   TrackerConfig
	flows map[uint64]*trackedFlow

	// Intervals counts EndInterval calls.
	Intervals int
}

// NewTracker returns an empty tracker.
func NewTracker(cfg TrackerConfig) *Tracker {
	if cfg.TauBytes <= 0 || cfg.Delta <= 0 {
		panic("monitor: invalid tracker config")
	}
	if cfg.EvictAfter < cfg.Delta {
		cfg.EvictAfter = cfg.Delta
	}
	return &Tracker{cfg: cfg, flows: map[uint64]*trackedFlow{}}
}

// State returns a flow's current classification (Mice if untracked).
func (t *Tracker) State(flow uint64) FlowState {
	if f := t.flows[flow]; f != nil {
		return f.state
	}
	return Mice
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
		case f.cum >= t.cfg.TauBytes:
			f.state = Elephant
		case f.activeStreak >= t.cfg.Delta:
			f.state = PotentialElephant
		default:
			f.state = Mice
		}
		c := Classified{Flow: fs.Flow, State: f.state, Bytes: fs.Bytes, Cum: f.cum}
		if f.state == PotentialElephant {
			c.EWeight = float64(f.cum) / float64(t.cfg.TauBytes)
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
		if f.idle >= t.cfg.EvictAfter {
			delete(t.flows, id)
		}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}

// ReportFrom converts a set of classifications plus unattributed
// light-part mass into this interval's Report. Light-part bytes belong to
// flows too small for the Heavy Part, so they count as mice mass in the
// smallest size class.
func ReportFrom(classified []Classified, lightBytes int64) Report {
	var r Report
	for _, c := range classified {
		r.Hist[BucketFor(c.Cum)] += float64(c.Bytes)
		r.ElephantBytes += c.EWeight * float64(c.Bytes)
		r.MiceBytes += (1 - c.EWeight) * float64(c.Bytes)
		r.ElephantFlowsW += c.EWeight
		r.MiceFlowsW += 1 - c.EWeight
		r.Flows++
	}
	if lightBytes > 0 {
		r.Hist[0] += float64(lightBytes)
		r.MiceBytes += float64(lightBytes)
	}
	return r
}
