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
	"repro/internal/telemetry"
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

// SA is the simulated-annealing search state machine of Algorithm 1,
// the registry's "sa" strategy and the loop's default.
type SA struct {
	cfg     SAConfig
	weights Weights
	specs   []dcqcn.Spec
	rng     *rand.Rand

	active  bool
	temp    float64
	iter    int
	started bool // pending params have been dispatched at least once
	warmup  bool // discard the first post-trigger sample (ramp bias)

	current     dcqcn.Params
	currentUtil float64
	best        dcqcn.Params
	bestUtil    float64
	pending     dcqcn.Params

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

	// Rounds counts completed tuning sessions; Steps counts SA
	// iterations consumed; Aborts counts sessions cancelled by Abort.
	// Accepts and Rejects split the Metropolis decisions over candidate
	// measurements (warmup and seeding intervals count toward neither).
	// Proposals counts vectors handed out for dispatch.
	Rounds    int
	Steps     int
	Aborts    int
	Accepts   int
	Rejects   int
	Proposals int
	// TM mirrors search activity into the telemetry registry
	// (iterations, accept/reject, session lifecycle, best utility and
	// temperature gauges); see SetMetrics.
	TM *telemetry.TunerMetrics
	// Trace records best-so-far utility per iteration of the current or
	// last session, on the annealer's 0–100 scale (Fig 12's convergence
	// curves).
	Trace []float64
}

// NewSA builds an annealing tuner that searches from base. seed fixes
// mutation randomness.
func NewSA(cfg SAConfig, weights Weights, base dcqcn.Params, seed int64) (*SA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := weights.Validate(); err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	specs := dcqcn.Specs()
	return &SA{
		cfg:     cfg,
		weights: weights,
		specs:   specs,
		rng:     rand.New(rand.NewSource(seed)),
		current: base,
		best:    base,
		vec:     make([]float64, len(specs)),
		TM:      noMetrics,
	}, nil
}

// Name is the registry name.
func (t *SA) Name() string { return "sa" }

// Active reports whether a tuning session is in progress.
func (t *SA) Active() bool { return t.active }

// Best returns the best parameter setting found so far.
func (t *SA) Best() dcqcn.Params { return t.best }

// BestUtility returns the utility of Best on the annealer's 0–100 scale.
func (t *SA) BestUtility() float64 { return t.bestUtil }

// BestTrace returns the best-so-far utility per session iteration.
func (t *SA) BestTrace() []float64 { return t.Trace }

// Temperature reports the current annealing temperature (the last
// session's floor when idle).
func (t *SA) Temperature() float64 { return t.temp }

// Stats returns the lifetime counters.
func (t *SA) Stats() Stats {
	return Stats{
		Sessions:  t.Rounds,
		Steps:     t.Steps,
		Aborts:    t.Aborts,
		Accepts:   t.Accepts,
		Rejects:   t.Rejects,
		Proposals: t.Proposals,
	}
}

// SetMetrics attaches a telemetry bundle.
func (t *SA) SetMetrics(tm *telemetry.TunerMetrics) { t.TM = metricsOr(tm) }

// Commit is a no-op: the annealer's chain state already assumes its
// proposals land; the loop's guard/pipeline rejections surface as
// ordinary (bad) measurements instead.
func (t *SA) Commit(p dcqcn.Params) {}

// Trigger starts (or restarts) a tuning session in response to a
// significant traffic-pattern change.
func (t *SA) Trigger(fsd loop.FSD) {
	t.active = true
	t.started = false
	t.warmup = true
	t.temp = t.cfg.InitialTemp
	t.iter = 0
	t.bestUtil = math.Inf(-1)
	t.currentUtil = math.Inf(-1)
	t.Trace = t.Trace[:0]
	t.observeFSD(fsd)
	t.TM.Active.Set(1)
	t.TM.Temperature.Set(t.temp)
}

func (t *SA) observeFSD(fsd loop.FSD) {
	t.dominantElephant, t.mu = fsd.DominantElephant()
}

// Abort cancels an in-progress tuning session without settling on its
// best setting. The rollback path uses it: a session whose measurements
// straddle a fault was searching on corrupted feedback, so neither its
// chain nor its best are worth keeping. A later KL trigger starts fresh.
func (t *SA) Abort() {
	if !t.active {
		return
	}
	t.active = false
	t.Aborts++
	t.TM.Aborts.Inc()
	t.TM.Active.Set(0)
}

// propose counts a vector handed out for dispatch.
func (t *SA) propose() {
	t.Proposals++
	t.TM.Proposals.Inc()
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
	newUtil := 100 * Utility(sample, t.weights)
	t.Steps++
	t.TM.Iterations.Inc()

	if t.warmup {
		// The interval in which the trigger fired straddles the traffic
		// change (ramp-up, or the old pattern's tail); its measurement
		// would bias the incumbent's utility. Hold the incumbent for one
		// more interval and seed from the next, clean sample.
		t.warmup = false
		t.propose()
		return t.current, true
	}

	if !t.started {
		// First interval after the trigger measured the incumbent
		// setting; seed the search from it.
		t.started = true
		t.currentUtil = newUtil
		t.best, t.bestUtil = t.current, newUtil
		t.Trace = append(t.Trace, t.bestUtil)
		t.pending = t.mutate(t.current)
		t.propose()
		return t.pending, true
	}

	// Metropolis acceptance of the pending candidate.
	if newUtil > t.currentUtil || math.Exp((newUtil-t.currentUtil)/t.temp) > t.rng.Float64() {
		t.current = t.pending
		t.currentUtil = newUtil
		t.Accepts++
		t.TM.Accepts.Inc()
	} else {
		t.Rejects++
		t.TM.Rejects.Inc()
	}
	if t.currentUtil > t.bestUtil {
		t.best = t.current
		t.bestUtil = t.currentUtil
	}
	t.Trace = append(t.Trace, t.bestUtil)
	t.TM.BestUtility.Set(t.bestUtil)

	t.iter++
	if t.iter >= t.cfg.TotalIterNum {
		t.iter = 0
		t.temp *= t.cfg.CoolingRate
		if t.temp <= t.cfg.FinalTemp {
			// Session over: settle on the best setting found.
			t.active = false
			t.Rounds++
			t.TM.Sessions.Inc()
			t.TM.Active.Set(0)
			t.TM.Temperature.Set(t.temp)
			t.propose()
			return t.best, true
		}
		t.TM.Temperature.Set(t.temp)
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
// vector and re-applies the clamp-and-repair of dcqcn.FromVector inline,
// so the per-interval hot path stays allocation-free while producing the
// same candidates (and consuming the same RNG draws) as the
// Vector/FromVector round trip it replaces.
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
