// The simulated-annealing strategy implements Paraleon's primary
// contribution: the Performance-oriented Tuning module (§III-C). It
// defines the utility function over network-wide runtime metrics
// (Equation 1) and the improved simulated-annealing search of
// Algorithm 1, with the paper's two optimizations — guided randomness
// (drive each parameter toward the dominant flow type's friendly
// direction with probability min(μ, η), with bounded random steps
// s'_p = s_p·rand(0.5,1)) and a relaxed temperature schedule for timely
// convergence.
//
// The tuner is deliberately asynchronous: the centralized controller
// calls Step once per monitor interval with fresh metrics, and receives
// the next parameter vector to dispatch. This mirrors the paper's
// event-driven closed loop, where every SA iteration costs one λ_MI of
// measurement.

package tuner

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dcqcn"
	"repro/internal/loop"
)

// Weights are the operator-assigned utility weights ω_TP, ω_RTT, ω_PFC of
// Equation (1); they must be nonnegative and sum to 1.
type Weights struct {
	TP, RTT, PFC float64
}

// DefaultWeights are the Table III settings (0.2, 0.5, 0.3).
func DefaultWeights() Weights { return Weights{TP: 0.2, RTT: 0.5, PFC: 0.3} }

// ThroughputWeights favor throughput-sensitive workloads such as LLM
// training (§III-C example: 0.5, 0.2, 0.3).
func ThroughputWeights() Weights { return Weights{TP: 0.5, RTT: 0.2, PFC: 0.3} }

// Validate checks the simplex constraint.
func (w Weights) Validate() error {
	if w.TP < 0 || w.RTT < 0 || w.PFC < 0 {
		return fmt.Errorf("tuner: negative utility weight %+v", w)
	}
	if s := w.TP + w.RTT + w.PFC; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("tuner: weights sum to %g, want 1", s)
	}
	return nil
}

// Utility evaluates Equation (1) on one interval's runtime metrics.
func Utility(s loop.RuntimeSample, w Weights) float64 {
	return w.TP*s.OTP + w.RTT*s.ORTT + w.PFC*s.OPFC
}

// SAConfig parameterizes the annealing search.
type SAConfig struct {
	// TotalIterNum is the number of iterations per temperature level
	// (Table III: 20).
	TotalIterNum int
	// CoolingRate multiplies the temperature per level (0.85).
	CoolingRate float64
	// InitialTemp and FinalTemp bound the schedule (90 → 10). The
	// relaxed setting keeps the session short: ~13 levels.
	InitialTemp float64
	FinalTemp   float64
	// Eta (η) caps the exploitation probability so at least 1−η of the
	// mutations explore the anti-dominant direction (0.8).
	Eta float64
	// Guided enables Optimization 1; when false, mutation directions are
	// uniform random (the naive_SA ablation arm).
	Guided bool
	// Elitist re-centers the chain on the best-known setting at every
	// temperature level, bounding the drift that directional mutation
	// causes under permissive early temperatures. Part of the improved
	// search; the naive arm keeps the original chain behaviour.
	Elitist bool
}

// DefaultSAConfig is Table III with both optimizations on.
func DefaultSAConfig() SAConfig {
	return SAConfig{
		TotalIterNum: 20,
		CoolingRate:  0.85,
		InitialTemp:  90,
		FinalTemp:    10,
		Eta:          0.8,
		Guided:       true,
		Elitist:      true,
	}
}

// ShortSAConfig compresses the schedule to ~20 iterations (4 levels × 5).
// Table III's 270-interval session assumes sustained production traffic;
// reproduction runs of a few hundred milliseconds need the search to
// settle proportionally sooner. Both optimizations stay on.
func ShortSAConfig() SAConfig {
	return SAConfig{
		TotalIterNum: 5,
		CoolingRate:  0.5,
		InitialTemp:  90,
		FinalTemp:    10,
		Eta:          0.8,
		Guided:       true,
		Elitist:      true,
	}
}

// NaiveSAConfig is the §IV-B4 ablation baseline: indiscriminate random
// mutation, a classical (non-relaxed) temperature schedule that cools
// slowly over a wide range, and the original (non-elitist) chain.
func NaiveSAConfig() SAConfig {
	return SAConfig{
		TotalIterNum: 20,
		CoolingRate:  0.95,
		InitialTemp:  500,
		FinalTemp:    5,
		Eta:          0.8,
		Guided:       false,
		Elitist:      false,
	}
}

// Validate checks schedule sanity.
func (c SAConfig) Validate() error {
	switch {
	case c.TotalIterNum <= 0:
		return fmt.Errorf("tuner: total_iter_num = %d", c.TotalIterNum)
	case c.CoolingRate <= 0 || c.CoolingRate >= 1:
		return fmt.Errorf("tuner: cooling rate = %g, need in (0,1)", c.CoolingRate)
	case c.InitialTemp <= c.FinalTemp || c.FinalTemp <= 0:
		return fmt.Errorf("tuner: temperature schedule %g→%g invalid", c.InitialTemp, c.FinalTemp)
	case c.Eta <= 0 || c.Eta > 1:
		return fmt.Errorf("tuner: eta = %g, need in (0,1]", c.Eta)
	}
	return nil
}

// SessionIterations is the number of monitor intervals one full tuning
// session consumes: levels × iterations per level.
func (c SAConfig) SessionIterations() int {
	levels := 0
	for t := c.InitialTemp; t > c.FinalTemp; t *= c.CoolingRate {
		levels++
	}
	return levels * c.TotalIterNum
}

// SA is the simulated-annealing search move of Algorithm 1, the "sa"
// strategy and the loop's default: the Metropolis test, the temperature
// schedule and guided mutation, over the shared session.
type SA struct {
	session
	cfg   SAConfig
	specs []dcqcn.Spec
	rng   *rand.Rand

	temp    float64
	pending dcqcn.Params

	// fsd guides mutation; refreshed every Step.
	dominantElephant bool
	mu               float64

	// vec is mutate's scratch vector: the hot path re-flattens the base
	// vector into it each call instead of allocating one per mutation.
	// mbase and mout hold the base and candidate vectors during a mutate
	// call: Spec.Get/Set take pointers through indirect calls, so local
	// copies would escape and allocate per Step.
	vec   []float64
	mbase dcqcn.Params
	mout  dcqcn.Params
}

// NewSA builds an annealing tuner that searches from base. seed fixes
// mutation randomness.
func NewSA(cfg SAConfig, weights Weights, base dcqcn.Params, seed int64) (*SA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sess, err := newSession(weights, base)
	if err != nil {
		return nil, err
	}
	specs := dcqcn.Specs()
	return &SA{
		session: sess,
		cfg:     cfg,
		specs:   specs,
		rng:     rand.New(rand.NewSource(seed)),
		vec:     make([]float64, len(specs)),
	}, nil
}

// Name is the strategy's name.
func (t *SA) Name() string { return "sa" }

// Temperature reports the current annealing temperature (the last
// session's floor when idle).
func (t *SA) Temperature() float64 { return t.temp }

// Trigger starts (or restarts) a tuning session in response to a
// significant traffic-pattern change.
func (t *SA) Trigger(fsd loop.FSD) {
	t.open()
	t.temp = t.cfg.InitialTemp
	t.observeFSD(fsd)
	t.tm.Temperature.Set(t.temp)
}

func (t *SA) observeFSD(fsd loop.FSD) {
	t.dominantElephant, t.mu = fsd.DominantElephant()
}

// Step advances one SA iteration (lines 4–23 of Algorithm 1): the sample
// holds the metrics measured under the previously dispatched parameters.
// It returns the next parameter setting to dispatch and true, or false
// when no session is active (the final Step of a session returns the best
// setting found).
func (t *SA) Step(sample loop.RuntimeSample, fsd loop.FSD) (dcqcn.Params, bool) {
	if !t.active {
		return dcqcn.Params{}, false
	}
	t.observeFSD(fsd)
	// The annealer works on a 0–100 utility scale: Table III's
	// temperatures (90 → 10) are calibrated so that early in a session a
	// 20-point regression is accepted with p ≈ 0.8 while late it is
	// nearly always rejected. On a 0–1 scale those temperatures would
	// accept everything and the search would degenerate to a random walk.
	newUtil := t.measure(sample)
	if t.warmup {
		return t.hold(), true
	}
	if !t.started {
		// First interval after the trigger measured the incumbent
		// setting; seed the search from it.
		t.seed(newUtil)
		t.pending = t.mutate(t.current)
		t.propose()
		return t.pending, true
	}

	// Metropolis acceptance of the pending candidate.
	accept := newUtil > t.currentUtil || math.Exp((newUtil-t.currentUtil)/t.temp) > t.rng.Float64()
	t.judge(newUtil, accept, t.pending)

	t.iter++
	if t.iter >= t.cfg.TotalIterNum {
		t.iter = 0
		t.temp *= t.cfg.CoolingRate
		t.tm.Temperature.Set(t.temp)
		if t.temp <= t.cfg.FinalTemp {
			return t.settle(), true
		}
		// Elitist re-centering at each temperature level: guided
		// mutation biases ~min(μ,η) of the parameters in one direction,
		// so a chain started from `current` under a permissive early
		// temperature drifts monotonically toward the bounds. Pulling
		// back to the best-known setting bounds the drift to one level's
		// worth of steps while keeping the paper's level structure.
		if t.cfg.Elitist {
			t.current = t.best
			t.currentUtil = t.bestUtil
		}
	}

	t.pending = t.mutate(t.current)
	t.propose()
	return t.pending, true
}

// mutate derives a new candidate from base per Optimization 1 (or uniform
// random directions when unguided). It works in the tuner's scratch
// vector, clamps each coordinate into its spec's range and repairs
// Kmin < Kmax, so the per-interval hot path stays allocation-free.
func (t *SA) mutate(base dcqcn.Params) dcqcn.Params {
	t.mbase = base
	v := t.vec
	for i := range t.specs {
		v[i] = t.specs[i].Get(&t.mbase)
	}
	exploit := math.Min(t.mu, t.cfg.Eta)
	for i := range t.specs {
		spec := &t.specs[i]
		// Friendly direction for the dominant flow type: elephants want
		// throughput, mice want low delay.
		friendly := float64(spec.ThroughputDir)
		if !t.dominantElephant {
			friendly = -friendly
		}
		var dir float64
		if t.cfg.Guided {
			if t.rng.Float64() < exploit {
				dir = friendly
			} else {
				dir = -friendly
			}
		} else {
			// Naive: indiscriminate direction.
			if t.rng.Float64() < 0.5 {
				dir = 1
			} else {
				dir = -1
			}
		}
		r := 0.5 + 0.5*t.rng.Float64() // rand(0.5, 1)
		if spec.Log {
			// Order-of-magnitude parameters move multiplicatively.
			factor := 1 + 0.5*r
			if dir > 0 {
				v[i] *= factor
			} else {
				v[i] /= factor
			}
		} else {
			v[i] += dir * spec.Step * r
		}
		v[i] = spec.Clamp(v[i])
	}
	t.mout = base
	for i := range t.specs {
		t.specs[i].Set(&t.mout, t.specs[i].Clamp(v[i]))
	}
	if t.mout.KmaxBytes <= t.mout.KminBytes {
		t.mout.KmaxBytes = t.mout.KminBytes + (64 << 10)
	}
	return t.mout
}
