package tuner

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dcqcn"
	"repro/internal/loop"
	"repro/internal/telemetry"
)

// BanditConfig parameterizes the "bandit" strategy: an ε-greedy or UCB1
// hill-climber over the discretized one-step neighborhood of the current
// vector, in the spirit of the lightweight learning baselines the
// DRL-for-congestion-control literature measures against. Each arm is
// "move one parameter one spec step up/down" (plus a hold arm); the
// reward is the measured utility, and an arm whose measurement beats the
// incumbent commits the move.
type BanditConfig struct {
	// Epsilon is the exploration probability of ε-greedy selection
	// (default 0.1). Ignored when UCB is set.
	Epsilon float64
	// UCB switches arm selection to UCB1 with exploration constant UCBC
	// (default 2.0).
	UCB  bool
	UCBC float64
	// Budget is the number of search iterations per session
	// (default 120 — comparable to ShortSAConfig sessions, far under
	// Table III's 270).
	Budget int
	// StepScale scales each arm's move as a fraction of the parameter's
	// spec step (default 1.0).
	StepScale float64
}

// DefaultBanditConfig returns the defaults above.
func DefaultBanditConfig() BanditConfig {
	return BanditConfig{Epsilon: 0.1, UCBC: 2.0, Budget: 120, StepScale: 1.0}
}

func (c BanditConfig) withDefaults() BanditConfig {
	d := DefaultBanditConfig()
	if c.Epsilon == 0 {
		c.Epsilon = d.Epsilon
	}
	if c.UCBC == 0 {
		c.UCBC = d.UCBC
	}
	if c.Budget == 0 {
		c.Budget = d.Budget
	}
	if c.StepScale == 0 {
		c.StepScale = d.StepScale
	}
	return c
}

// Validate checks the (defaulted) configuration.
func (c BanditConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Epsilon < 0 || c.Epsilon > 1:
		return fmt.Errorf("tuner: bandit epsilon = %g, need in [0,1]", c.Epsilon)
	case c.UCBC < 0:
		return fmt.Errorf("tuner: bandit UCB constant = %g", c.UCBC)
	case c.Budget < 1:
		return fmt.Errorf("tuner: bandit budget = %d", c.Budget)
	case c.StepScale <= 0:
		return fmt.Errorf("tuner: bandit step scale = %g", c.StepScale)
	}
	return nil
}

// Bandit is the ε-greedy/UCB hill-climber. Arm 0 holds the vector; arm
// 2i+1 moves spec i one step up, arm 2i+2 one step down. Per-arm means
// are reset at each Trigger — a session answers "which local move helps
// *this* workload".
type Bandit struct {
	cfg     BanditConfig
	weights Weights
	specs   []dcqcn.Spec
	rng     *rand.Rand

	active  bool
	warmup  bool
	started bool
	iter    int // iterations consumed this session

	current     dcqcn.Params
	currentUtil float64
	best        dcqcn.Params
	bestUtil    float64
	pending     dcqcn.Params
	lastArm     int

	counts []int
	means  []float64
	vec    []float64 // scratch for applyArm
	trace  []float64
	// mbase and mout hold the base and candidate vectors during an
	// applyArm call: Spec.Get/Set take pointers through indirect calls,
	// so local copies would escape and allocate per Step.
	mbase  dcqcn.Params
	mout   dcqcn.Params
	regret float64 // cumulative shortfall vs best-seen reward

	sessions, steps, aborts, accepts, rejects, proposals int

	tm *telemetry.TunerMetrics
}

// NewBandit builds a bandit hill-climber searching from base.
func NewBandit(cfg BanditConfig, weights Weights, base dcqcn.Params, seed int64) (*Bandit, error) {
	cfg = cfg.withDefaults()
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
	arms := 1 + 2*len(specs)
	return &Bandit{
		cfg:     cfg,
		weights: weights,
		specs:   specs,
		rng:     rand.New(rand.NewSource(seed)),
		current: base,
		best:    base,
		counts:  make([]int, arms),
		means:   make([]float64, arms),
		vec:     make([]float64, len(specs)),
		tm:      noMetrics,
	}, nil
}

// Name is the registry name.
func (b *Bandit) Name() string { return "bandit" }

// Active reports whether a session is in progress.
func (b *Bandit) Active() bool { return b.active }

// Best returns the best vector found so far.
func (b *Bandit) Best() dcqcn.Params { return b.best }

// BestUtility returns Best's utility on the 0–100 scale.
func (b *Bandit) BestUtility() float64 { return b.bestUtil }

// BestTrace returns the best-so-far utility per session iteration.
func (b *Bandit) BestTrace() []float64 { return b.trace }

// Regret returns the cumulative shortfall of measured rewards against
// the best reward seen so far, summed over all sessions.
func (b *Bandit) Regret() float64 { return b.regret }

// Stats returns the lifetime counters.
func (b *Bandit) Stats() Stats {
	return Stats{
		Sessions:  b.sessions,
		Steps:     b.steps,
		Aborts:    b.aborts,
		Accepts:   b.accepts,
		Rejects:   b.rejects,
		Proposals: b.proposals,
	}
}

// SetMetrics attaches a telemetry bundle.
func (b *Bandit) SetMetrics(tm *telemetry.TunerMetrics) { b.tm = metricsOr(tm) }

// Commit is a no-op; an admitted proposal needs no extra bookkeeping.
func (b *Bandit) Commit(p dcqcn.Params) {}

// Trigger opens a session: arm statistics reset (the workload changed,
// so stale per-arm rewards would mislead selection) and the first
// sample is discarded exactly as the annealer's warmup does.
func (b *Bandit) Trigger(fsd loop.FSD) {
	b.active = true
	b.warmup = true
	b.started = false
	b.iter = 0
	b.bestUtil = math.Inf(-1)
	b.currentUtil = math.Inf(-1)
	b.trace = b.trace[:0]
	for i := range b.counts {
		b.counts[i] = 0
		b.means[i] = 0
	}
	b.tm.Active.Set(1)
}

// Abort cancels the session without settling.
func (b *Bandit) Abort() {
	if !b.active {
		return
	}
	b.active = false
	b.aborts++
	b.tm.Aborts.Inc()
	b.tm.Active.Set(0)
}

func (b *Bandit) propose() {
	b.proposals++
	b.tm.Proposals.Inc()
}

// Step consumes the reward measured under the previously proposed
// vector, credits the arm that produced it, hill-climbs, and proposes
// the next arm's vector.
func (b *Bandit) Step(sample loop.RuntimeSample, fsd loop.FSD) (dcqcn.Params, bool) {
	if !b.active {
		return dcqcn.Params{}, false
	}
	reward := 100 * Utility(sample, b.weights)
	b.steps++
	b.tm.Iterations.Inc()

	if b.warmup {
		// Same ramp-bias guard as the annealer: the trigger interval's
		// measurement straddles the traffic change.
		b.warmup = false
		b.propose()
		return b.current, true
	}

	if !b.started {
		// Clean measurement of the incumbent: baseline for hill-climbing.
		b.started = true
		b.currentUtil = reward
		b.best, b.bestUtil = b.current, reward
		b.trace = append(b.trace, b.bestUtil)
		b.lastArm = b.selectArm()
		b.pending = b.applyArm(b.lastArm, b.current)
		b.propose()
		return b.pending, true
	}

	// Credit the arm whose vector this reward measured.
	b.counts[b.lastArm]++
	n := float64(b.counts[b.lastArm])
	b.means[b.lastArm] += (reward - b.means[b.lastArm]) / n
	if gap := b.bestUtil - reward; gap > 0 {
		b.regret += gap
		b.tm.Regret.Set(b.regret)
	}
	// Hill-climb: commit the move only when it measured strictly better.
	if reward > b.currentUtil {
		b.current = b.pending
		b.currentUtil = reward
		b.accepts++
		b.tm.Accepts.Inc()
	} else {
		b.rejects++
		b.tm.Rejects.Inc()
	}
	if b.currentUtil > b.bestUtil {
		b.best = b.current
		b.bestUtil = b.currentUtil
	}
	b.trace = append(b.trace, b.bestUtil)
	b.tm.BestUtility.Set(b.bestUtil)

	b.iter++
	if b.iter >= b.cfg.Budget {
		b.active = false
		b.sessions++
		b.tm.Sessions.Inc()
		b.tm.Active.Set(0)
		b.propose()
		return b.best, true
	}

	b.lastArm = b.selectArm()
	b.pending = b.applyArm(b.lastArm, b.current)
	b.propose()
	return b.pending, true
}

// selectArm picks the next arm. Untried arms are preferred in index
// order (optimistic initialization) under both policies; ties elsewhere
// break toward the lowest index, keeping selection deterministic for a
// fixed RNG stream.
func (b *Bandit) selectArm() int {
	for i, c := range b.counts {
		if c == 0 {
			return i
		}
	}
	if b.cfg.UCB {
		total := 0
		for _, c := range b.counts {
			total += c
		}
		bestArm, bestVal := 0, math.Inf(-1)
		for i := range b.counts {
			v := b.means[i] + b.cfg.UCBC*math.Sqrt(math.Log(float64(total))/float64(b.counts[i]))
			if v > bestVal {
				bestArm, bestVal = i, v
			}
		}
		return bestArm
	}
	if b.rng.Float64() < b.cfg.Epsilon {
		return b.rng.Intn(len(b.counts))
	}
	bestArm, bestVal := 0, math.Inf(-1)
	for i, m := range b.means {
		if m > bestVal {
			bestArm, bestVal = i, m
		}
	}
	return bestArm
}

// applyArm realizes an arm on base: arm 0 holds, arm 2i+1 moves spec i
// up one (scaled) step, arm 2i+2 down one. Log-scaled parameters move
// multiplicatively, mirroring the annealer's mutation geometry. The
// result is clamped and ECN-order-repaired, so every proposal is
// guard-admissible by construction.
func (b *Bandit) applyArm(arm int, base dcqcn.Params) dcqcn.Params {
	if arm == 0 {
		return base
	}
	i := (arm - 1) / 2
	up := (arm-1)%2 == 0
	spec := &b.specs[i]
	b.mbase = base
	v := spec.Get(&b.mbase)
	if spec.Log {
		factor := 1 + 0.5*b.cfg.StepScale
		if up {
			v *= factor
		} else {
			v /= factor
		}
	} else {
		delta := spec.Step * b.cfg.StepScale
		if up {
			v += delta
		} else {
			v -= delta
		}
	}
	b.mout = base
	spec.Set(&b.mout, spec.Clamp(v))
	if b.mout.KmaxBytes <= b.mout.KminBytes {
		b.mout.KmaxBytes = b.mout.KminBytes + (64 << 10)
	}
	return b.mout
}
