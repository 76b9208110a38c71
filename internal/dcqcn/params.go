// Package dcqcn implements the DCQCN congestion-control algorithm
// (Zhu et al., SIGCOMM 2015) as deployed on RoCEv2 RNICs and switches,
// together with the full parameter surface that Paraleon tunes.
//
// DCQCN has three parties. The Congestion Point (CP) is the switch, which
// ECN-marks packets probabilistically between the Kmin and Kmax queue
// thresholds. The Notification Point (NP) is the receiver RNIC, which
// converts marked packets into Congestion Notification Packets (CNPs),
// pacing them by min_time_between_cnps. The Reaction Point (RP) is the
// sender RNIC, which multiplicatively cuts its rate on CNPs and otherwise
// climbs back through fast recovery, additive increase, and hyper increase
// stages.
package dcqcn

import (
	"fmt"
	"math"

	"repro/internal/eventsim"
)

// Params is the complete DCQCN parameter vector: eleven RNIC-side knobs
// plus the three switch-side ECN thresholds. This is the search space of
// Paraleon's tuner; the paper's "10+ parameters at RNICs and switches".
type Params struct {
	// --- RNIC: rate increase ---

	// AIRateBps (ai_rate) is the additive-increase step added to the
	// target rate on each additive increase event.
	AIRateBps float64
	// HAIRateBps (hai_rate) is the hyper-increase step; after both the
	// byte counter and the timer pass RPGThreshold, the target rate grows
	// by i·HAIRateBps on the i-th consecutive hyper event.
	HAIRateBps float64
	// RPGTimeReset (rpg_time_reset) is the period of the rate-increase
	// timer: every elapse without a CNP counts one timer stage.
	RPGTimeReset eventsim.Time
	// RPGByteReset (rpg_byte_reset) is the transmitted-byte quantum that
	// counts one byte-counter stage.
	RPGByteReset int64
	// RPGThreshold (rpg_threshold, "F") is the number of fast-recovery
	// stages before increase becomes additive, then hyper.
	RPGThreshold int

	// --- RNIC: rate decrease ---

	// RateReduceMonitorPeriod (rate_reduce_monitor_period) lower-bounds
	// the interval between two successive multiplicative cuts.
	RateReduceMonitorPeriod eventsim.Time
	// MinRateBps (rpg_min_rate) floors the sending rate.
	MinRateBps float64
	// ClampTgtRate (clamp_tgt_rate): when true the target rate is pulled
	// down to the current rate on every cut; when false it is clamped
	// only on the first CNP after an increase, allowing faster recovery.
	ClampTgtRate bool

	// --- RNIC: alpha update ---

	// G (dce_tcp_g) is the EWMA gain of the congestion estimate alpha.
	G float64
	// AlphaUpdateInterval (dce_tcp_rtt) is the alpha-decay timer period:
	// every elapse without a CNP, alpha ← (1−G)·alpha.
	AlphaUpdateInterval eventsim.Time
	// InitialAlpha (dce_alpha) seeds alpha when a QP starts.
	InitialAlpha float64

	// --- NP (receiver RNIC) ---

	// MinTimeBetweenCNPs (min_time_between_cnps) paces CNP generation
	// per flow.
	MinTimeBetweenCNPs eventsim.Time

	// --- CP (switch ECN thresholds) ---

	// KminBytes and KmaxBytes bound the probabilistic ECN marking ramp;
	// PMax is the marking probability at KmaxBytes.
	KminBytes int64
	KmaxBytes int64
	PMax      float64
}

// DefaultParams returns the NVIDIA default setting used as the paper's
// "default" baseline (Table II, [21]).
func DefaultParams() Params {
	return Params{
		AIRateBps:               5e6,
		HAIRateBps:              50e6,
		RPGTimeReset:            300 * eventsim.Microsecond,
		RPGByteReset:            32767,
		RPGThreshold:            5,
		RateReduceMonitorPeriod: 4 * eventsim.Microsecond,
		MinRateBps:              100e6,
		ClampTgtRate:            false,
		G:                       1.0 / 256.0,
		AlphaUpdateInterval:     55 * eventsim.Microsecond,
		InitialAlpha:            1,
		MinTimeBetweenCNPs:      4 * eventsim.Microsecond,
		KminBytes:               400 << 10,
		KmaxBytes:               1600 << 10,
		PMax:                    0.2,
	}
}

// ExpertParams returns the expert-tuned setting of Table I. Parameters the
// table leaves unspecified keep their defaults.
func ExpertParams() Params {
	p := DefaultParams()
	p.AIRateBps = 50e6
	p.HAIRateBps = 150e6
	p.RateReduceMonitorPeriod = 80 * eventsim.Microsecond
	p.MinTimeBetweenCNPs = 96 * eventsim.Microsecond
	p.KminBytes = 1600 << 10
	p.KmaxBytes = 6400 << 10
	p.PMax = 0.2
	return p
}

// Validate reports the first structurally invalid field, if any.
func (p *Params) Validate() error {
	switch {
	case p.AIRateBps <= 0 || p.HAIRateBps <= 0:
		return fmt.Errorf("dcqcn: non-positive increase rate (ai=%g hai=%g)", p.AIRateBps, p.HAIRateBps)
	case p.RPGTimeReset <= 0:
		return fmt.Errorf("dcqcn: rpg_time_reset = %v, need > 0", p.RPGTimeReset)
	case p.RPGByteReset <= 0:
		return fmt.Errorf("dcqcn: rpg_byte_reset = %d, need > 0", p.RPGByteReset)
	case p.RPGThreshold < 1:
		return fmt.Errorf("dcqcn: rpg_threshold = %d, need >= 1", p.RPGThreshold)
	case p.RateReduceMonitorPeriod < 0:
		return fmt.Errorf("dcqcn: negative rate_reduce_monitor_period")
	case p.MinRateBps <= 0:
		return fmt.Errorf("dcqcn: min rate = %g, need > 0", p.MinRateBps)
	case p.G <= 0 || p.G > 1:
		return fmt.Errorf("dcqcn: g = %g, need in (0,1]", p.G)
	case p.AlphaUpdateInterval <= 0:
		return fmt.Errorf("dcqcn: alpha update interval = %v, need > 0", p.AlphaUpdateInterval)
	case p.InitialAlpha < 0 || p.InitialAlpha > 1:
		return fmt.Errorf("dcqcn: initial alpha = %g, need in [0,1]", p.InitialAlpha)
	case p.MinTimeBetweenCNPs < 0:
		return fmt.Errorf("dcqcn: negative min_time_between_cnps")
	case p.KminBytes < 0 || p.KmaxBytes <= p.KminBytes:
		return fmt.Errorf("dcqcn: ECN thresholds Kmin=%d Kmax=%d, need 0 <= Kmin < Kmax", p.KminBytes, p.KmaxBytes)
	case p.PMax <= 0 || p.PMax > 1:
		return fmt.Errorf("dcqcn: Pmax = %g, need in (0,1]", p.PMax)
	}
	return nil
}

// MarkProbability is the CP's ECN marking law: 0 below Kmin, a linear ramp
// to PMax at Kmax, and 1 beyond Kmax (the DCTCP/RED convention DCQCN
// inherits).
func (p *Params) MarkProbability(queueBytes int64) float64 {
	switch {
	case queueBytes <= p.KminBytes:
		return 0
	case queueBytes >= p.KmaxBytes:
		return 1
	default:
		frac := float64(queueBytes-p.KminBytes) / float64(p.KmaxBytes-p.KminBytes)
		return frac * p.PMax
	}
}

// Direction is the sign convention for "friendly" tuning directions
// (§III-C): +1 means incrementing the parameter favors throughput, −1
// means decrementing it does.
type Direction int

const (
	// IncrementForThroughput marks parameters whose increase is
	// throughput-friendly (e.g. hai_rate).
	IncrementForThroughput Direction = +1
	// DecrementForThroughput marks parameters whose decrease is
	// throughput-friendly (e.g. rpg_time_reset).
	DecrementForThroughput Direction = -1
)

// Spec describes one tunable parameter: how to read and write it on a
// Params value, its legal range, the empirical step s_p the tuner scales,
// and its throughput-friendly direction.
type Spec struct {
	Name string
	// Get and Set map the parameter to the float vector the search runs
	// over. Times are in nanoseconds, rates in bps, sizes in bytes.
	Get func(*Params) float64
	Set func(*Params, float64)
	// Min and Max bound the search.
	Min, Max float64
	// Step is the empirical per-iteration step s_p (§III-C Optimization 1).
	Step float64
	// ThroughputDir is the throughput-friendly direction.
	ThroughputDir Direction
	// Log indicates the parameter is best mutated multiplicatively
	// (its useful range spans orders of magnitude).
	Log bool
}

// Clamp forces v into the spec's legal range.
func (s *Spec) Clamp(v float64) float64 {
	return math.Min(s.Max, math.Max(s.Min, v))
}

// Specs returns the canonical tunable-parameter table. The slice is fresh
// on each call so callers may reorder or filter it.
func Specs() []Spec {
	us := float64(eventsim.Microsecond)
	kb := float64(1 << 10)
	return []Spec{
		{
			Name: "ai_rate",
			Get:  func(p *Params) float64 { return p.AIRateBps },
			Set:  func(p *Params, v float64) { p.AIRateBps = v },
			Min:  1e6, Max: 1e9, Step: 10e6,
			ThroughputDir: IncrementForThroughput, Log: true,
		},
		{
			Name: "hai_rate",
			Get:  func(p *Params) float64 { return p.HAIRateBps },
			Set:  func(p *Params, v float64) { p.HAIRateBps = v },
			Min:  10e6, Max: 5e9, Step: 50e6,
			ThroughputDir: IncrementForThroughput, Log: true,
		},
		{
			Name: "rpg_time_reset",
			Get:  func(p *Params) float64 { return float64(p.RPGTimeReset) },
			Set:  func(p *Params, v float64) { p.RPGTimeReset = eventsim.Time(v) },
			Min:  10 * us, Max: 1500 * us, Step: 50 * us,
			ThroughputDir: DecrementForThroughput,
		},
		{
			Name: "rpg_byte_reset",
			Get:  func(p *Params) float64 { return float64(p.RPGByteReset) },
			Set:  func(p *Params, v float64) { p.RPGByteReset = int64(v) },
			Min:  1 * kb, Max: 4096 * kb, Step: 16 * kb,
			ThroughputDir: DecrementForThroughput, Log: true,
		},
		{
			Name: "rpg_threshold",
			Get:  func(p *Params) float64 { return float64(p.RPGThreshold) },
			Set:  func(p *Params, v float64) { p.RPGThreshold = int(math.Round(v)) },
			Min:  1, Max: 20, Step: 1,
			ThroughputDir: DecrementForThroughput,
		},
		{
			Name: "rate_reduce_monitor_period",
			Get:  func(p *Params) float64 { return float64(p.RateReduceMonitorPeriod) },
			Set:  func(p *Params, v float64) { p.RateReduceMonitorPeriod = eventsim.Time(v) },
			Min:  1 * us, Max: 500 * us, Step: 10 * us,
			ThroughputDir: IncrementForThroughput,
		},
		{
			Name: "min_rate",
			Get:  func(p *Params) float64 { return p.MinRateBps },
			Set:  func(p *Params, v float64) { p.MinRateBps = v },
			Min:  10e6, Max: 10e9, Step: 100e6,
			ThroughputDir: IncrementForThroughput, Log: true,
		},
		{
			Name: "g",
			Get:  func(p *Params) float64 { return p.G },
			Set:  func(p *Params, v float64) { p.G = v },
			Min:  1.0 / 1024, Max: 0.5, Step: 1.0 / 256,
			ThroughputDir: DecrementForThroughput, Log: true,
		},
		{
			Name: "alpha_update_interval",
			Get:  func(p *Params) float64 { return float64(p.AlphaUpdateInterval) },
			Set:  func(p *Params, v float64) { p.AlphaUpdateInterval = eventsim.Time(v) },
			Min:  1 * us, Max: 1000 * us, Step: 10 * us,
			ThroughputDir: DecrementForThroughput,
		},
		{
			Name: "min_time_between_cnps",
			Get:  func(p *Params) float64 { return float64(p.MinTimeBetweenCNPs) },
			Set:  func(p *Params, v float64) { p.MinTimeBetweenCNPs = eventsim.Time(v) },
			Min:  0, Max: 500 * us, Step: 10 * us,
			ThroughputDir: IncrementForThroughput,
		},
		{
			Name: "kmin",
			Get:  func(p *Params) float64 { return float64(p.KminBytes) },
			Set:  func(p *Params, v float64) { p.KminBytes = int64(v) },
			Min:  10 * kb, Max: 4000 * kb, Step: 100 * kb,
			ThroughputDir: IncrementForThroughput, Log: true,
		},
		{
			Name: "kmax",
			Get:  func(p *Params) float64 { return float64(p.KmaxBytes) },
			Set:  func(p *Params, v float64) { p.KmaxBytes = int64(v) },
			Min:  40 * kb, Max: 10000 * kb, Step: 400 * kb,
			ThroughputDir: IncrementForThroughput, Log: true,
		},
		{
			Name: "pmax",
			Get:  func(p *Params) float64 { return p.PMax },
			Set:  func(p *Params, v float64) { p.PMax = v },
			Min:  0.01, Max: 1, Step: 0.05,
			ThroughputDir: DecrementForThroughput,
		},
	}
}

// SpecByName returns the spec with the given name, or nil.
func SpecByName(name string) *Spec {
	specs := Specs()
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}

// Vector flattens p onto the Specs() axes, in order.
func Vector(p *Params) []float64 {
	specs := Specs()
	v := make([]float64, len(specs))
	for i := range specs {
		v[i] = specs[i].Get(p)
	}
	return v
}
