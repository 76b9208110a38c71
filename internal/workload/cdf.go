// Package workload generates the traffic patterns of the paper's
// evaluation: the FB_Hadoop datacenter workload (heavy-tailed flow sizes,
// Poisson arrivals at a target load), the ON/OFF LLM-training alltoall
// collective, the all-mice SolarRPC distribution, and the workload-influx
// compositions of §IV-B2 and §IV-C.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// cdfPoint anchors a piecewise-linear CDF: Frac of flows are ≤ Size bytes.
type cdfPoint struct {
	Frac float64
	Size float64
}

// SizeCDF is an invertible flow-size distribution.
type SizeCDF struct {
	name   string
	points []cdfPoint
}

// NewSizeCDF builds a distribution from (fraction, size) anchors. The
// fractions must be strictly increasing and end at 1; sizes must be
// nondecreasing and positive.
func NewSizeCDF(name string, anchors map[float64]int64) (SizeCDF, error) {
	pts := make([]cdfPoint, 0, len(anchors))
	for f, s := range anchors {
		pts = append(pts, cdfPoint{Frac: f, Size: float64(s)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Frac < pts[j].Frac })
	if len(pts) < 2 {
		return SizeCDF{}, fmt.Errorf("workload: CDF %q needs >= 2 anchors", name)
	}
	if pts[0].Frac != 0 {
		return SizeCDF{}, fmt.Errorf("workload: CDF %q must start at fraction 0", name)
	}
	if pts[len(pts)-1].Frac != 1 {
		return SizeCDF{}, fmt.Errorf("workload: CDF %q must end at fraction 1", name)
	}
	for i := range pts {
		if pts[i].Size <= 0 {
			return SizeCDF{}, fmt.Errorf("workload: CDF %q has non-positive size", name)
		}
		if i > 0 && pts[i].Size < pts[i-1].Size {
			return SizeCDF{}, fmt.Errorf("workload: CDF %q sizes not monotone", name)
		}
	}
	return SizeCDF{name: name, points: pts}, nil
}

func mustCDF(name string, anchors map[float64]int64) SizeCDF {
	c, err := NewSizeCDF(name, anchors)
	if err != nil {
		panic(err)
	}
	return c
}

// Name identifies the distribution.
func (c SizeCDF) Name() string { return c.name }

// Sample draws one flow size by inverse-transform sampling with
// log-linear interpolation between anchors (flow sizes span orders of
// magnitude, so linear interpolation would skew the tail).
func (c SizeCDF) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	pts := c.points
	for i := 1; i < len(pts); i++ {
		if u <= pts[i].Frac {
			lo, hi := pts[i-1], pts[i]
			if hi.Frac == lo.Frac || hi.Size == lo.Size {
				return int64(hi.Size)
			}
			t := (u - lo.Frac) / (hi.Frac - lo.Frac)
			size := math.Exp(math.Log(lo.Size) + t*(math.Log(hi.Size)-math.Log(lo.Size)))
			if size < 1 {
				size = 1
			}
			return int64(size)
		}
	}
	return int64(pts[len(pts)-1].Size)
}

// MeanBytes numerically estimates the distribution mean (used to convert
// a load fraction into a Poisson arrival rate).
func (c SizeCDF) MeanBytes() float64 {
	// Integrate piecewise: E[X] = Σ (segment probability) × (segment
	// log-mean). The log-linear segment mean is (hi−lo)/(ln hi − ln lo).
	var mean float64
	pts := c.points
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		p := hi.Frac - lo.Frac
		if p <= 0 {
			continue
		}
		var segMean float64
		if hi.Size == lo.Size {
			segMean = hi.Size
		} else {
			segMean = (hi.Size - lo.Size) / (math.Log(hi.Size) - math.Log(lo.Size))
		}
		mean += p * segMean
	}
	return mean
}

// FBHadoop is a synthetic reconstruction of the Facebook Hadoop workload
// shape (Roy et al., SIGCOMM 2015) used in §IV-B: the majority of flows
// are mice of a few KB while the majority of bytes ride multi-MB
// elephants.
func FBHadoop() SizeCDF {
	return mustCDF("FB_Hadoop", map[float64]int64{
		0:    80,
		0.1:  200,
		0.2:  355,
		0.3:  556,
		0.5:  1059,
		0.6:  2 << 10,
		0.7:  5 << 10,
		0.8:  20 << 10,
		0.9:  100 << 10,
		0.95: 500 << 10,
		0.99: 10 << 20,
		1:    30 << 20,
	})
}

// SolarRPC is the all-mice compute-to-storage RPC distribution (Miao et
// al., SIGCOMM 2022): every message below 128 KB.
func SolarRPC() SizeCDF {
	return mustCDF("SolarRPC", map[float64]int64{
		0:    64,
		0.3:  512,
		0.5:  2 << 10,
		0.8:  16 << 10,
		0.95: 64 << 10,
		1:    128 << 10,
	})
}
