// Package monitor implements Paraleon's Runtime Metric Monitor (§III-B)
// on the simulated fabric: sketch-based per-switch measurement agents
// with the TOS insert-once rule, ternary flow-state tracking over a
// sliding window, and the runtime metric collection (throughput, RTT,
// PFC) that feeds the utility function. The controller-side aggregation
// and KL trigger live in internal/loop.
package monitor

import (
	"math"

	"repro/internal/loop"
)

// The report vocabulary is internal/loop's. These names keep the agents'
// and the collector's outputs, and the benchmark module that drives
// them, under the package that produces them.
type (
	Report        = loop.Report
	ReportSource  = loop.ReportSource
	RuntimeSample = loop.RuntimeSample
)

var (
	BucketFor     = loop.BucketFor
	Aggregate     = loop.Aggregate
	NewController = loop.NewController
)

// klEpsilon smooths zero probabilities so KL stays finite.
const klEpsilon = 1e-6

// KL computes the Kullback–Leibler divergence KL(f‖prev) between two
// successive network-wide distributions, the paper's traffic-change
// signal.
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

// Accuracy scores an estimated FSD against ground truth in [0,1]:
// the mean of histogram similarity (1 − total variation distance) and
// elephant-share agreement. This is the metric behind Fig 10(a)/11(a).
func Accuracy(est, truth loop.FSD) float64 {
	var tv float64
	for i := range est.Hist {
		tv += math.Abs(est.Hist[i] - truth.Hist[i])
	}
	histSim := 1 - tv/2
	shareSim := 1 - math.Abs(est.ElephantShare-truth.ElephantShare)
	return (histSim + shareSim) / 2
}
