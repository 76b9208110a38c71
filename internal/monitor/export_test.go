package monitor

import (
	"math"

	"repro/internal/loop"
	"repro/internal/sketch"
)

// Tracked reports the number of flows currently in the state table.
func (t *Tracker) Tracked() int { return len(t.flows) }

// State returns a flow's current classification (Mice if untracked).
func (t *Tracker) State(flow uint64) FlowState {
	if f := t.flows[flow]; f != nil {
		return f.state
	}
	return Mice
}

// Sketch exposes the agent's underlying sketch.
func (a *SwitchAgent) Sketch() *sketch.Sketch { return a.sk }

// klEpsilon smooths zero probabilities so KL stays finite.
const klEpsilon = 1e-6

// KL is the Kullback–Leibler divergence KL(f‖prev) between the
// histograms of two distributions, the reference the trigger's
// composition divergence is checked against.
func KL(f, prev loop.FSD) float64 {
	var d float64
	for i := range f.Hist {
		p := f.Hist[i] + klEpsilon
		q := prev.Hist[i] + klEpsilon
		d += p * math.Log(p/q)
	}
	if d < 0 {
		d = 0 // numerical floor; KL is nonnegative
	}
	return d
}
