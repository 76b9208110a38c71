// Package loop is the controller side of Paraleon's closed loop, with no
// transport and no simulator behind it: the per-agent reports and the
// runtime sample the loop consumes, the network-wide flow size
// distribution with its smoothing and KL trigger (Controller), and the
// decision step that drives a tuner and hands its proposals to an apply
// path (Step). The simulated loop (internal/core) pulls reports from
// sketch agents on virtual time; the daemon (internal/ctrlrpc) takes
// the reports agents push over the wire on its wall clock. Both run this
// code, so a controller tuned in simulation is the one deployed.
package loop

import (
	"fmt"
	"math"
)

// NumBuckets is the number of log2 flow-size classes in a flow size
// distribution: bucket 0 holds flows up to 1 KB, bucket i flows up to
// 2^i KB, with everything ≥ 32 MB in the last bucket.
const NumBuckets = 16

// BucketFor maps a flow size in bytes to its size class.
func BucketFor(size int64) int {
	if size <= 1024 {
		return 0
	}
	b := 0
	for s := size - 1; s >= 1024; s >>= 1 {
		b++
	}
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// Report is one agent's unnormalized contribution for one monitor
// interval: byte mass per size class, plus the ternary-weighted
// elephant/mice split.
//
// The fields are in the order the ctrlrpc report frame carries them, at
// the widths it carries them.
type Report struct {
	Hist          [NumBuckets]float64
	ElephantBytes float64
	MiceBytes     float64
	// ElephantFlowsW / MiceFlowsW are ternary-weighted flow counts: a
	// potential elephant contributes its likelihood to the elephant side
	// and the remainder to the mice side. Dominance (the mu that guides
	// SA mutation) is computed over these counts, matching the paper's
	// narrative that mice "dominate" while many small flows are active
	// even though elephants carry most bytes.
	ElephantFlowsW float64
	MiceFlowsW     float64
	// Flows counts the distinct flows the agent tracked.
	Flows int32
}

// Add accumulates another report into r.
func (r *Report) Add(o Report) {
	for i := range r.Hist {
		r.Hist[i] += o.Hist[i]
	}
	r.ElephantBytes += o.ElephantBytes
	r.MiceBytes += o.MiceBytes
	r.Flows += o.Flows
	r.ElephantFlowsW += o.ElephantFlowsW
	r.MiceFlowsW += o.MiceFlowsW
}

// FSD is a normalized network-wide flow size distribution.
type FSD struct {
	// Hist is the byte-share per size class; sums to 1 when TotalBytes>0.
	Hist [NumBuckets]float64
	// ElephantShare is the ternary-weighted fraction of traffic (bytes)
	// attributed to elephant flows.
	ElephantShare float64
	// ElephantFlowShare is the ternary-weighted fraction of active flows
	// that are elephants; dominance uses this.
	ElephantFlowShare float64
	// TotalBytes is the observed byte mass behind the distribution.
	TotalBytes float64
	// Flows is the number of distinct tracked flows.
	Flows int
	// Degraded flags a distribution aggregated from an incomplete agent
	// set (crashed or evicted agents): with the insert-once rule every
	// flow is recorded at exactly one switch, so a missing agent silently
	// removes its flows from the histogram. Consumers should treat the
	// shape as reduced-confidence rather than ground truth.
	Degraded bool
}

// AddFlow credits one flow's interval contribution to r: bytes moved
// this interval go to the size class of size, and split w : 1−w between
// the elephant and mice sides, as the flow counts do. w is the flow's
// elephant likelihood; a hard classification passes 0 or 1.
func (r *Report) AddFlow(bytes, size int64, w float64) {
	b := float64(bytes)
	r.Hist[BucketFor(size)] += b
	r.ElephantBytes += w * b
	r.MiceBytes += (1 - w) * b
	r.ElephantFlowsW += w
	r.MiceFlowsW += 1 - w
	r.Flows++
}

// FSD normalizes r into a flow size distribution.
func (r *Report) FSD() FSD {
	var f FSD
	f.Flows = int(r.Flows)
	var total float64
	for _, v := range r.Hist {
		total += v
	}
	f.TotalBytes = total
	if total > 0 {
		for i, v := range r.Hist {
			f.Hist[i] = v / total
		}
	}
	if eb, mb := r.ElephantBytes, r.MiceBytes; eb+mb > 0 {
		f.ElephantShare = eb / (eb + mb)
	}
	if ef, mf := r.ElephantFlowsW, r.MiceFlowsW; ef+mf > 0 {
		f.ElephantFlowShare = ef / (ef + mf)
	}
	return f
}

// Aggregate merges local reports into the network-wide FSD — the
// controller-side "layered" aggregation step. With the insert-once rule
// each flow is recorded at exactly one switch, so summation is exact.
func Aggregate(locals ...Report) FSD {
	var sum Report
	for _, l := range locals {
		sum.Add(l)
	}
	return sum.FSD()
}

// DominantElephant reports whether elephants dominate the active flow
// population, and the dominant proportion mu used by the tuner's guided
// randomness.
func (f FSD) DominantElephant() (bool, float64) {
	if f.ElephantFlowShare >= 0.5 {
		return true, f.ElephantFlowShare
	}
	return false, 1 - f.ElephantFlowShare
}

// Smoother maintains an exponentially weighted moving average of the
// network-wide FSD across monitor intervals. A single λ_MI snapshot is
// extremely volatile — a flow migrates through size buckets as its Φ
// grows, and at small scale the dominant type can flip every interval —
// so the controller compares *time-averaged* distributions, matching the
// paper's observation that workloads "exhibit a similar traffic pattern
// over tens of milliseconds". Traffic-free intervals leave the average
// untouched.
type Smoother struct {
	// Alpha is the weight of the newest interval (default 0.3).
	Alpha float64
	fsd   FSD
	has   bool
}

// Update blends raw into the average and returns the smoothed FSD. Empty
// intervals return the existing average unchanged.
func (s *Smoother) Update(raw FSD) FSD {
	if raw.TotalBytes == 0 {
		return s.fsd
	}
	a := s.Alpha
	if a <= 0 || a > 1 {
		a = 0.3
	}
	if !s.has {
		s.fsd = raw
		s.has = true
		return s.fsd
	}
	for i := range s.fsd.Hist {
		s.fsd.Hist[i] = a*raw.Hist[i] + (1-a)*s.fsd.Hist[i]
	}
	s.fsd.ElephantShare = a*raw.ElephantShare + (1-a)*s.fsd.ElephantShare
	s.fsd.ElephantFlowShare = a*raw.ElephantFlowShare + (1-a)*s.fsd.ElephantFlowShare
	s.fsd.TotalBytes = a*raw.TotalBytes + (1-a)*s.fsd.TotalBytes
	s.fsd.Flows = raw.Flows
	return s.fsd
}

// TriggerDivergence is the tuning trigger's change signal: the KL
// divergence between the ternary-weighted elephant/mice flow compositions
// of two (smoothed) distributions.
//
// The full histogram KL is unsuitable as a trigger at runtime: a flow
// migrates through size buckets as its Φ grows, so even a perfectly
// recurring collective looks like a brand-new distribution at every round
// start. The elephant/mice composition is stable across rounds of the
// same workload and shifts exactly when the traffic mix the tuner cares
// about shifts.
func TriggerDivergence(f, prev FSD) float64 {
	const eps = 1e-3
	clamp := func(p float64) float64 {
		if p < eps {
			return eps
		}
		if p > 1-eps {
			return 1 - eps
		}
		return p
	}
	p := clamp(f.ElephantFlowShare)
	q := clamp(prev.ElephantFlowShare)
	d := p*math.Log(p/q) + (1-p)*math.Log((1-p)/(1-q))
	if d < 0 {
		d = 0
	}
	return d
}

func (f FSD) String() string {
	return fmt.Sprintf("FSD{elephant=%.2f flows=%d bytes=%.0f}", f.ElephantShare, f.Flows, f.TotalBytes)
}

// RuntimeSample holds the three utility-function inputs of Equation (1)
// for one monitor interval, each already normalized to [0,1].
type RuntimeSample struct {
	// OTP is the mean bandwidth utilization of active host↔ToR links.
	OTP float64
	// ORTT is the mean normalized RTT (base path delay / measured RTT).
	ORTT float64
	// OPFC is 1 − mean per-device PFC pause fraction.
	OPFC float64

	// ActiveLinks is how many link directions carried data this interval.
	ActiveLinks int
	// RTTSamples is how many probe measurements contributed to ORTT.
	RTTSamples int64
}

// RuntimeSums are one scope's raw runtime-metric sums for an interval:
// what a rack's agent carries on the wire, and what a controller adds up
// over its scopes before Sample divides them.
type RuntimeSums struct {
	// UtilSum sums the utilization of the ActiveLinks link directions
	// that carried data.
	UtilSum     float64
	ActiveLinks int32
	// RTTNormSum sums RTTCount normalized RTT probe samples.
	RTTNormSum float64
	RTTCount   int64
	// PauseFracSum sums the PFC pause fraction of Devices devices.
	PauseFracSum float64
	Devices      int32
}

// Add accumulates another scope's sums.
func (s *RuntimeSums) Add(o RuntimeSums) {
	s.UtilSum += o.UtilSum
	s.ActiveLinks += o.ActiveLinks
	s.RTTNormSum += o.RTTNormSum
	s.RTTCount += o.RTTCount
	s.PauseFracSum += o.PauseFracSum
	s.Devices += o.Devices
}

// Sample turns the sums into the interval's Equation (1) inputs. With no
// probe sample or no device, nothing indicates congestion: ORTT and OPFC
// are then 1.
func (s RuntimeSums) Sample() RuntimeSample {
	r := RuntimeSample{ORTT: 1, OPFC: 1, ActiveLinks: int(s.ActiveLinks), RTTSamples: s.RTTCount}
	if s.ActiveLinks > 0 {
		r.OTP = s.UtilSum / float64(s.ActiveLinks)
	}
	if s.RTTCount > 0 {
		r.ORTT = s.RTTNormSum / float64(s.RTTCount)
	}
	if s.Devices > 0 {
		r.OPFC = 1 - s.PauseFracSum/float64(s.Devices)
	}
	return r
}

// ReportSource is anything that yields a per-interval local FSD report:
// Paraleon switch agents, the naive-Elastic variant, NetFlow, or the
// ground-truth oracle.
type ReportSource interface {
	// EndInterval closes the current monitor interval and returns its
	// local report, resetting interval state.
	EndInterval() Report
}
