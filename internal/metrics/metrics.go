// Package metrics turns raw simulation outputs (flow records, runtime
// samples) into the statistics the paper reports: FCT slowdowns bucketed
// by flow size with tail percentiles (Fig 7a/b), FCT CDFs (Fig 7c/d),
// summary aggregates, and CSV export of both CDFs and the runtime time
// series (internal/telemetry/series) behind Figs 8, 9 and 14.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/eventsim"
	"repro/internal/sim"
)

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of values using
// nearest-rank on a sorted copy. It returns NaN for empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("metrics: percentile %g outside [0,1]", p))
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Slowdown is one flow's FCT normalized by its uncontended ideal.
type Slowdown struct {
	Size  int64
	Value float64
}

// Slowdowns computes per-flow slowdowns against the network's ideal FCT
// model. Values are clamped at ≥ 1 (a flow cannot beat physics; sub-1
// artifacts would only reflect model rounding).
func Slowdowns(n *sim.Network, records []sim.FlowRecord) []Slowdown {
	out := make([]Slowdown, 0, len(records))
	for _, r := range records {
		ideal := n.IdealFCT(r.Src, r.Dst, r.Size)
		if ideal <= 0 {
			continue
		}
		v := float64(r.FCT()) / float64(ideal)
		if v < 1 {
			v = 1
		}
		out = append(out, Slowdown{Size: r.Size, Value: v})
	}
	return out
}

// BucketStat summarizes slowdowns of flows up to a size boundary.
type BucketStat struct {
	// UpTo is the bucket's inclusive upper size bound; the last bucket
	// of a set holds everything larger than the previous bound.
	UpTo  int64
	Label string
	Count int
	Mean  float64
	P50   float64
	P99   float64
	P999  float64
}

// DefaultSizeBuckets are the flow-size classes used for Fig 7(a,b).
func DefaultSizeBuckets() []int64 {
	return []int64{10 << 10, 30 << 10, 120 << 10, 1 << 20, math.MaxInt64}
}

func bucketLabel(lo, hi int64) string {
	human := func(b int64) string {
		switch {
		case b >= 1<<20:
			return fmt.Sprintf("%dMB", b>>20)
		case b >= 1<<10:
			return fmt.Sprintf("%dKB", b>>10)
		default:
			return fmt.Sprintf("%dB", b)
		}
	}
	if hi == math.MaxInt64 {
		return fmt.Sprintf(">%s", human(lo))
	}
	return fmt.Sprintf("<=%s", human(hi))
}

// BucketizeSlowdowns groups slowdowns by flow size and summarizes each
// group. bounds must be ascending; flows above the last bound are
// dropped (use MaxInt64 as a catch-all).
func BucketizeSlowdowns(sl []Slowdown, bounds []int64) []BucketStat {
	groups := make([][]float64, len(bounds))
	for _, s := range sl {
		for i, b := range bounds {
			if s.Size <= b {
				groups[i] = append(groups[i], s.Value)
				break
			}
		}
	}
	out := make([]BucketStat, len(bounds))
	var lo int64
	for i, b := range bounds {
		out[i] = BucketStat{
			UpTo:  b,
			Label: bucketLabel(lo, b),
			Count: len(groups[i]),
			Mean:  Mean(groups[i]),
			P50:   Percentile(groups[i], 0.50),
			P99:   Percentile(groups[i], 0.99),
			P999:  Percentile(groups[i], 0.999),
		}
		lo = b
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns up to points evenly spaced quantiles of values.
func CDF(values []float64, points int) []CDFPoint {
	if len(values) == 0 || points <= 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if points > len(sorted) {
		points = len(sorted)
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		p := float64(i) / float64(points)
		idx := int(math.Ceil(p*float64(len(sorted)))) - 1
		out = append(out, CDFPoint{X: sorted[idx], P: p})
	}
	return out
}

// FCTSummary is an overall flow-completion summary.
type FCTSummary struct {
	Count            int
	MeanSlowdown     float64
	P99Slowdown      float64
	P999Slowdown     float64
	MeanFCT, TailFCT eventsim.Time
}

// Summarize computes an overall FCT summary for records.
func Summarize(n *sim.Network, records []sim.FlowRecord) FCTSummary {
	sl := Slowdowns(n, records)
	vals := make([]float64, len(sl))
	var fctSum eventsim.Time
	var tail eventsim.Time
	for i, s := range sl {
		vals[i] = s.Value
	}
	for _, r := range records {
		fctSum += r.FCT()
		if r.FCT() > tail {
			tail = r.FCT()
		}
	}
	out := FCTSummary{Count: len(records)}
	if len(records) > 0 {
		out.MeanFCT = fctSum / eventsim.Time(len(records))
		out.TailFCT = tail
		out.MeanSlowdown = Mean(vals)
		out.P99Slowdown = Percentile(vals, 0.99)
		out.P999Slowdown = Percentile(vals, 0.999)
	}
	return out
}
