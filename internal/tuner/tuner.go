// Package tuner is the pluggable parameter-search subsystem: every
// strategy that proposes DCQCN vectors to the control loop lives behind
// one Tuner interface, created through a registry keyed by name.
//
// Three strategies ship in-tree:
//
//   - "sa" — the paper's improved simulated annealing (Algorithm 1 with
//     guided randomness and the relaxed temperature schedule), moved
//     here verbatim from the former core.Tuner. It is the default and
//     its behaviour is byte-identical to the pre-refactor code.
//   - "multiecn" — a PET-style multi-agent ECN tuner: each ToR agent
//     independently adjusts its local Kmin/Kmax/Pmax from its own flow
//     size distribution slice, on a deterministic per-agent RNG stream
//     (splitmix.Derive).
//   - "bandit" — an ε-greedy hill-climber over the discretized
//     one-step neighborhood of the current vector, using the utility
//     function as the arm reward.
//
// The control loop (loop.Step, which core.System and ctrlrpc.Server
// share) drives whichever strategy is selected through the same
// Trigger/Step/Commit cycle, and every
// proposal — regardless of strategy — passes a dispatch.Guard bounds
// check before it touches the fabric.
package tuner

import (
	"fmt"
	"sort"

	"repro/internal/dcqcn"
	"repro/internal/loop"
	"repro/internal/telemetry"
)

// Tuner is one parameter-search strategy driven by the monitor loop.
// The cycle mirrors the paper's event-driven design: a KL trigger opens
// a session, then each monitor interval calls Step with the metrics
// measured under the previously proposed vector, and receives the next
// vector to dispatch. The final Step of a session returns the best
// setting found and deactivates the tuner.
type Tuner interface {
	// Name is the registry name the tuner was created under.
	Name() string
	// Trigger starts (or restarts) a tuning session in response to a
	// significant traffic-pattern change.
	Trigger(fsd loop.FSD)
	// Step advances one search iteration: sample holds the metrics
	// measured under the previously proposed parameters. It returns the
	// next vector to propose and true, or false when no session is
	// active. The final Step of a session returns the session's best.
	Step(sample loop.RuntimeSample, fsd loop.FSD) (dcqcn.Params, bool)
	// Commit tells the tuner a proposed vector was actually applied to
	// the fabric (the dispatch pipeline may reject or abort proposals).
	Commit(p dcqcn.Params)
	// Abort cancels an in-progress session without settling on its best
	// (rollback path: the session's feedback straddled a fault).
	Abort()
	// Active reports whether a session is in progress.
	Active() bool
	// Best returns the best parameter setting found so far.
	Best() dcqcn.Params
	// BestUtility returns Best's utility on the 0–100 scale.
	BestUtility() float64
	// BestTrace returns the best-so-far utility per iteration of the
	// current or last session (Fig 12-style convergence curves).
	BestTrace() []float64
	// Stats returns the strategy's lifetime counters.
	Stats() Stats
	// SetMetrics mirrors search activity into a telemetry bundle
	// (nil detaches).
	SetMetrics(tm *telemetry.TunerMetrics)
}

// noMetrics is the bundle of a strategy no registry is attached to, so
// strategies record without checking for one.
var noMetrics = telemetry.NewTunerMetrics(telemetry.NewRegistry())

func metricsOr(tm *telemetry.TunerMetrics) *telemetry.TunerMetrics {
	if tm == nil {
		return noMetrics
	}
	return tm
}

// Stats are the lifetime counters every strategy maintains.
type Stats struct {
	// Sessions counts completed tuning sessions; Steps counts search
	// iterations consumed; Aborts counts sessions cancelled by Abort.
	Sessions int
	Steps    int
	Aborts   int
	// Accepts and Rejects split the strategy's own accept decisions over
	// candidate measurements (Metropolis for "sa", hill-climb for
	// "bandit" and "multiecn"); warmup and seeding intervals count
	// toward neither.
	Accepts int
	Rejects int
	// Proposals counts vectors handed to the loop for dispatch.
	Proposals int
	// AgentCommits counts per-switch local commits ("multiecn" only).
	AgentCommits int
}

// Temperatured is the optional capability of schedule-driven strategies
// (simulated annealing) to expose their current temperature.
type Temperatured interface {
	Temperature() float64
}

// ECNProposal is one per-switch ECN adjustment from a multi-agent
// strategy: agent Agent wants its local switch marking ramp moved to
// (KminBytes, KmaxBytes, PMax).
type ECNProposal struct {
	Agent     int
	KminBytes int64
	KmaxBytes int64
	PMax      float64
}

// PerSwitch is the optional capability of multi-agent strategies that
// tune each switch independently. The loop feeds per-agent reports
// before Step and collects per-switch proposals after it; each proposal
// it admits and applies is confirmed via AgentCommitted.
type PerSwitch interface {
	// ObserveLocals hands the tuner this interval's per-agent reports,
	// aligned with the deployment's agent order. The slice is only
	// valid during the call.
	ObserveLocals(locals []loop.Report)
	// LocalProposals returns the per-switch proposals produced by the
	// last Step (valid until the next Step; may be empty).
	LocalProposals() []ECNProposal
	// AgentCommitted confirms agent's proposal was applied.
	AgentCommitted(agent int)
}

// Config carries everything a factory might need; each strategy reads
// its own section and ignores the rest. Zero-valued strategy sections
// fall back to that strategy's defaults.
type Config struct {
	// Weights parameterize the utility function (all strategies).
	Weights Weights
	// Base is the vector the search starts from (all strategies).
	Base dcqcn.Params
	// SA parameterizes the annealing schedule ("sa").
	SA SAConfig
	// Bandit parameterizes the hill-climber ("bandit").
	Bandit BanditConfig
	// MultiECN parameterizes the multi-agent ECN tuner ("multiecn").
	MultiECN MultiECNConfig
}

// Factory builds a strategy instance. seed fixes all of the strategy's
// randomness; equal (cfg, seed) must yield identical proposal streams.
type Factory func(cfg Config, seed int64) (Tuner, error)

var registry = map[string]Factory{}

// Register adds a strategy under name. It panics on empty or duplicate
// names — registration is an init-time programming act, not a runtime
// condition.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("tuner: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic("tuner: duplicate Register of " + name)
	}
	registry[name] = f
}

// New builds the named strategy. An empty name selects "sa", the
// default.
func New(name string, cfg Config, seed int64) (Tuner, error) {
	if name == "" {
		name = "sa"
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("tuner: unknown strategy %q (have %v)", name, Names())
	}
	return f(cfg, seed)
}

// Names lists the registered strategies, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("sa", func(cfg Config, seed int64) (Tuner, error) {
		return NewSA(cfg.SA, cfg.Weights, cfg.Base, seed)
	})
	Register("bandit", func(cfg Config, seed int64) (Tuner, error) {
		return NewBandit(cfg.Bandit, cfg.Weights, cfg.Base, seed)
	})
	Register("multiecn", func(cfg Config, seed int64) (Tuner, error) {
		return NewMultiECN(cfg.MultiECN, cfg.Weights, cfg.Base, seed)
	})
}
