package tuner

import (
	"fmt"
	"math/rand"

	"repro/internal/dcqcn"
	"repro/internal/loop"
	"repro/internal/splitmix"
)

// MultiECNConfig parameterizes the "multiecn" strategy, a PET-style
// multi-agent ECN tuner: one agent per ToR independently walks its
// local switch's marking ramp (Kmin, Kmax, Pmax) from its own flow size
// distribution slice, instead of one global search over the full
// 15-parameter vector. Per-switch heterogeneity is the point — a rack
// full of mice wants early aggressive marking while an elephant rack
// wants deep thresholds, and no single fabric-wide vector serves both.
type MultiECNConfig struct {
	// Agents is the number of per-ToR agents (the deployment sets this
	// to its scope size; default 1).
	Agents int
	// Budget is the number of search iterations per session (default 60).
	Budget int
}

const (
	// ecnStepFrac bounds one adjustment's relative move; the realized
	// step is scaled by rand(0.5,1) from the agent's own stream and by
	// the dominance µ of its local traffic.
	ecnStepFrac = 0.15
	// ecnPFCFloor and ecnRTTFloor classify an interval as congested when
	// the corresponding objective falls below them: congestion flips
	// every agent toward earlier, harder marking regardless of local
	// dominance.
	ecnPFCFloor = 0.995
	ecnRTTFloor = 0.6
)

func (c MultiECNConfig) withDefaults() MultiECNConfig {
	if c.Agents == 0 {
		c.Agents = 1
	}
	if c.Budget == 0 {
		c.Budget = 60
	}
	return c
}

// Validate checks the (defaulted) configuration.
func (c MultiECNConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Agents < 1:
		return fmt.Errorf("tuner: multiecn agents = %d", c.Agents)
	case c.Budget < 1:
		return fmt.Errorf("tuner: multiecn budget = %d", c.Budget)
	}
	return nil
}

// ecnAgent is one ToR's local search state: a continuous (kmin, kmax,
// pmax) point plus the previous point for hill-climb reverts, walked by
// the agent's own deterministic RNG stream.
type ecnAgent struct {
	kmin, kmax, pmax             float64
	prevKmin, prevKmax, prevPmax float64
	rng                          *rand.Rand
	commits                      int
	// haveLocal marks that ObserveLocals delivered a report this
	// interval; without one the agent falls back to the global FSD.
	local     loop.Report
	haveLocal bool
}

// MultiECN is the "multiecn" strategy's per-agent ECN move over the
// shared session. Each Step every agent takes one bounded move guided
// by its local traffic mix and the global congestion signals; the moves
// are kept when the fabric-wide utility improved and reverted otherwise
// (a coordinated multi-agent hill-climb). Step's returned vector, the
// session's incumbent, carries the mean marking ramp for the plumbing
// that wants one fabric setting; the true per-switch output is
// LocalProposals, applied switch-by-switch by the loop.
type MultiECN struct {
	session
	cfg MultiECNConfig

	kminSpec, kmaxSpec, pmaxSpec *dcqcn.Spec

	agents    []ecnAgent
	proposals []ECNProposal
	globalFSD loop.FSD
}

// NewMultiECN builds a multi-agent ECN tuner with cfg.Agents agents,
// every agent starting from base's marking ramp on an RNG stream
// derived from seed via splitmix.Derive — the same discipline harness
// arms use, so agent i's stream is stable across runs and agent counts.
func NewMultiECN(cfg MultiECNConfig, weights Weights, base dcqcn.Params, seed int64) (*MultiECN, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sess, err := newSession(weights, base)
	if err != nil {
		return nil, err
	}
	specs := dcqcn.Specs()
	m := &MultiECN{
		session:   sess,
		cfg:       cfg,
		agents:    make([]ecnAgent, cfg.Agents),
		proposals: make([]ECNProposal, 0, cfg.Agents),
	}
	for i := range specs {
		switch specs[i].Name {
		case "kmin":
			m.kminSpec = &specs[i]
		case "kmax":
			m.kmaxSpec = &specs[i]
		case "pmax":
			m.pmaxSpec = &specs[i]
		}
	}
	if m.kminSpec == nil || m.kmaxSpec == nil || m.pmaxSpec == nil {
		return nil, fmt.Errorf("tuner: dcqcn specs missing ECN entries")
	}
	for i := range m.agents {
		a := &m.agents[i]
		a.kmin, a.kmax, a.pmax = float64(base.KminBytes), float64(base.KmaxBytes), base.PMax
		a.rng = rand.New(rand.NewSource(splitmix.Derive(seed, i)))
	}
	return m, nil
}

// Name is the strategy's name.
func (m *MultiECN) Name() string { return "multiecn" }

// ObserveLocals hands the tuner this interval's per-agent reports,
// aligned with the deployment's agent order. Extra reports are ignored;
// agents beyond the slice fall back to the global FSD.
func (m *MultiECN) ObserveLocals(locals []loop.Report) {
	for i := range m.agents {
		if i < len(locals) {
			m.agents[i].local = locals[i]
			m.agents[i].haveLocal = true
		} else {
			m.agents[i].haveLocal = false
		}
	}
}

// LocalProposals returns the per-switch proposals from the last Step.
func (m *MultiECN) LocalProposals() []ECNProposal { return m.proposals }

// AgentCommitted confirms agent's proposal was applied to its switch.
func (m *MultiECN) AgentCommitted(agent int) {
	if agent < 0 || agent >= len(m.agents) {
		return
	}
	m.agents[agent].commits++
	m.stats.AgentCommits++
	m.tm.AgentCommits.Inc()
}

// Trigger opens a session.
func (m *MultiECN) Trigger(fsd loop.FSD) {
	m.open()
	m.globalFSD = fsd
}

// Step advances every agent one bounded move and composes the next
// fabric vector.
func (m *MultiECN) Step(sample loop.RuntimeSample, fsd loop.FSD) (dcqcn.Params, bool) {
	if !m.active {
		return dcqcn.Params{}, false
	}
	m.globalFSD = fsd
	reward := m.measure(sample)
	if m.warmup {
		m.rebuildProposals()
		return m.hold(), true
	}

	if !m.started {
		m.seed(reward)
	} else {
		// Judge the agents' previous coordinated move, which the
		// incumbent already composes.
		accept := reward > m.currentUtil
		if !accept {
			// Fabric-wide utility regressed: revert every agent to its
			// pre-move point. Agents whose local signal was right will
			// re-derive the same direction next interval with a fresh
			// step draw, so a majority-good move is retried rather than
			// abandoned.
			for i := range m.agents {
				a := &m.agents[i]
				a.kmin, a.kmax, a.pmax = a.prevKmin, a.prevKmax, a.prevPmax
			}
		}
		m.judge(reward, accept, m.current)
	}

	m.iter++
	if m.iter >= m.cfg.Budget {
		m.rebuildProposals()
		return m.settle(), true
	}

	congested := sample.OPFC < ecnPFCFloor || sample.ORTT < ecnRTTFloor
	for i := range m.agents {
		m.adjustAgent(&m.agents[i], congested)
	}
	m.current = m.composite()
	m.rebuildProposals()
	m.propose()
	return m.current, true
}

// adjustAgent takes one bounded move on an agent's local marking ramp.
// Direction comes from the agent's own traffic mix: an uncongested
// elephant-dominant rack raises its thresholds (mark later, favor
// throughput); congestion or mice dominance lowers them and raises Pmax
// (mark earlier and harder, favor latency and PFC headroom). The move
// size is StepFrac · rand(0.5,1) · µ — scaled by how decisively the
// local mix leans.
func (m *MultiECN) adjustAgent(a *ecnAgent, congested bool) {
	a.prevKmin, a.prevKmax, a.prevPmax = a.kmin, a.kmax, a.pmax
	fsd := m.globalFSD
	if a.haveLocal {
		fsd = a.local.FSD()
	}
	elephant, mu := fsd.DominantElephant()
	r := 0.5 + 0.5*a.rng.Float64()
	step := 1 + ecnStepFrac*r*mu
	if elephant && !congested {
		a.kmin *= step
		a.kmax *= step
		a.pmax /= step
	} else {
		a.kmin /= step
		a.kmax /= step
		a.pmax *= step
	}
	a.kmin = m.kminSpec.Clamp(a.kmin)
	a.kmax = m.kmaxSpec.Clamp(a.kmax)
	a.pmax = m.pmaxSpec.Clamp(a.pmax)
	if a.kmax <= a.kmin {
		a.kmax = a.kmin + float64(64<<10)
	}
}

// composite is the fabric-wide view of the agents' state: the current
// vector with the mean marking ramp, clamped and order-repaired so it
// is always guard-admissible.
func (m *MultiECN) composite() dcqcn.Params {
	var kmin, kmax, pmax float64
	for i := range m.agents {
		a := &m.agents[i]
		kmin += a.kmin
		kmax += a.kmax
		pmax += a.pmax
	}
	n := float64(len(m.agents))
	p := m.current
	p.KminBytes = int64(m.kminSpec.Clamp(kmin / n))
	p.KmaxBytes = int64(m.kmaxSpec.Clamp(kmax / n))
	p.PMax = m.pmaxSpec.Clamp(pmax / n)
	if p.KmaxBytes <= p.KminBytes {
		p.KmaxBytes = p.KminBytes + (64 << 10)
	}
	return p
}

// rebuildProposals refreshes the per-switch proposal view of the
// agents' state, reusing the backing array.
func (m *MultiECN) rebuildProposals() {
	m.proposals = m.proposals[:0]
	for i := range m.agents {
		a := &m.agents[i]
		m.proposals = append(m.proposals, ECNProposal{
			Agent:     i,
			KminBytes: int64(a.kmin),
			KmaxBytes: int64(a.kmax),
			PMax:      a.pmax,
		})
	}
}
