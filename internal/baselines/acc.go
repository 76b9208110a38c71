// Package baselines implements the comparison schemes of §IV: ACC
// (per-switch reinforcement-learning ECN tuning, SIGCOMM 2021), DCQCN+
// (incast-scale-adaptive CNP intervals and rate-increase steps, ICNP
// 2018), and NetFlow-style sampled flow monitoring. Static baselines
// (NVIDIA default, expert, pretrained) need no code beyond
// dcqcn.DefaultParams/ExpertParams and core.Pretrain.
package baselines

import (
	"math/rand"

	"repro/internal/eventsim"
	"repro/internal/netdev"
	"repro/internal/sim"
)

// ACCConfig parameterizes the per-switch RL agents. ACC's published
// design runs a DQN per switch over local port statistics and actuates
// only the ECN thresholds; a tabular Q-learner over the same discretized
// observations preserves that interface at reproduction scale.
type ACCConfig struct {
	// Interval is the agent decision period.
	Interval eventsim.Time
	// Epsilon is the exploration rate; Alpha the learning rate; Gamma
	// the discount.
	Epsilon, Alpha, Gamma float64
	// Seed fixes exploration randomness.
	Seed int64
}

// DefaultACCConfig uses a 10 ms decision period (ACC reports O(10 ms)
// agent latency).
func DefaultACCConfig() ACCConfig {
	return ACCConfig{
		Interval: 10 * eventsim.Millisecond,
		Epsilon:  0.1,
		Alpha:    0.3,
		Gamma:    0.8,
		Seed:     1,
	}
}

// accActions are the per-step threshold adjustments.
const accActions = 7

// applyACCAction mutates (kmin, kmax, pmax) per the chosen action, keeping
// the setting sane.
func applyACCAction(action int, kmin, kmax int64, pmax float64) (int64, int64, float64) {
	switch action {
	case 0: // no-op
	case 1:
		kmin = kmin * 3 / 2
	case 2:
		kmin = kmin * 2 / 3
	case 3:
		kmax = kmax * 3 / 2
	case 4:
		kmax = kmax * 2 / 3
	case 5:
		pmax += 0.05
	case 6:
		pmax -= 0.05
	}
	if kmin < 10<<10 {
		kmin = 10 << 10
	}
	if kmin > 4000<<10 {
		kmin = 4000 << 10
	}
	if kmax < kmin+(64<<10) {
		kmax = kmin + (64 << 10)
	}
	if kmax > 10000<<10 {
		kmax = 10000 << 10
	}
	if pmax < 0.01 {
		pmax = 0.01
	}
	if pmax > 1 {
		pmax = 1
	}
	return kmin, kmax, pmax
}

// accAgent is one switch's Q-learner.
type accAgent struct {
	sw  *netdev.Switch
	net *sim.Network
	rng *rand.Rand
	cfg ACCConfig

	q map[int][accActions]float64

	prevState  int
	prevAction int
	havePrev   bool

	// Deltas for observation.
	lastTxBytes map[int]int64
	lastMarked  int64
	lastPkts    int64
	lastPFC     int64

	Decisions int
}

// ACC is the installed multi-agent system.
type ACC struct {
	agents []*accAgent
	net    *sim.Network
	cfg    ACCConfig
	ev     eventsim.EventID
	tickFn eventsim.Handler
	on     bool
}

// InstallACC attaches one agent to every switch of n.
func InstallACC(n *sim.Network, cfg ACCConfig) *ACC {
	a := &ACC{net: n, cfg: cfg}
	for _, sw := range n.Switches {
		a.agents = append(a.agents, &accAgent{
			sw: sw, net: n, cfg: cfg,
			rng:         rand.New(rand.NewSource(cfg.Seed + int64(sw.NodeID()))),
			q:           map[int][accActions]float64{},
			lastTxBytes: map[int]int64{},
		})
	}
	return a
}

// Start arms the decision loop.
func (a *ACC) Start() {
	if a.on {
		return
	}
	a.on = true
	a.arm()
}

// Stop halts the decision loop.
func (a *ACC) Stop() {
	if !a.on {
		return
	}
	a.on = false
	a.net.Eng.Cancel(a.ev)
}

// arm (re)schedules the decision tick through the timing wheel: the
// persistent handler is built once, and each tick's re-arm recycles the
// previous event's slot.
func (a *ACC) arm() {
	if a.tickFn == nil {
		a.tickFn = func() {
			if !a.on {
				return
			}
			for _, ag := range a.agents {
				ag.step()
			}
			a.arm()
		}
	}
	a.ev = a.net.Eng.RearmAfter(a.ev, a.cfg.Interval, a.tickFn)
}

// observe builds the discretized local state and the reward for the
// elapsed period.
func (ag *accAgent) observe() (state int, reward float64) {
	sw := ag.sw
	seconds := ag.cfg.Interval.Seconds()

	// Port utilization: mean over ports, from tx byte deltas.
	var utilSum float64
	var maxQueue int64
	for i := 0; i < sw.NumPorts(); i++ {
		p := sw.Port(i)
		tx := p.Stats.TxBytes
		d := tx - ag.lastTxBytes[i]
		ag.lastTxBytes[i] = tx
		utilSum += float64(d*8) / (p.RateBps() * seconds)
		if q := p.QueueBytes(netdev.ClassData); q > maxQueue {
			maxQueue = q
		}
	}
	util := utilSum / float64(sw.NumPorts())
	if util > 1 {
		util = 1
	}

	// ECN marking rate over the period.
	var marked, pkts int64
	for i := 0; i < sw.NumPorts(); i++ {
		marked += sw.Port(i).Stats.ECNMarked
		pkts += sw.Port(i).Stats.TxPackets
	}
	dMarked, dPkts := marked-ag.lastMarked, pkts-ag.lastPkts
	ag.lastMarked, ag.lastPkts = marked, pkts
	markRate := 0.0
	if dPkts > 0 {
		markRate = float64(dMarked) / float64(dPkts)
	}

	pfc := sw.Stats.PFCTriggers
	dPFC := pfc - ag.lastPFC
	ag.lastPFC = pfc

	// Discretize: 5 utilization levels × 4 mark levels × 4 queue levels.
	uL := int(util * 4.999)
	mL := int(markRate * 3.999)
	qFrac := float64(maxQueue) / float64(2<<20) // 2 MB scale
	if qFrac > 1 {
		qFrac = 1
	}
	qL := int(qFrac * 3.999)
	state = uL*16 + mL*4 + qL

	// Reward: high utilization, shallow queues, no PFC — ACC's
	// throughput/latency balance.
	reward = util - 0.5*qFrac
	if dPFC > 0 {
		reward -= 1
	}
	return state, reward
}

func (ag *accAgent) step() {
	state, reward := ag.observe()

	if ag.havePrev {
		next := ag.q[state]
		best := next[0]
		for _, v := range next[1:] {
			if v > best {
				best = v
			}
		}
		qRow := ag.q[ag.prevState]
		old := qRow[ag.prevAction]
		qRow[ag.prevAction] = old + ag.cfg.Alpha*(reward+ag.cfg.Gamma*best-old)
		ag.q[ag.prevState] = qRow
	}

	// ε-greedy action selection.
	var action int
	if ag.rng.Float64() < ag.cfg.Epsilon {
		action = ag.rng.Intn(accActions)
	} else {
		row := ag.q[state]
		action = 0
		for i := 1; i < accActions; i++ {
			if row[i] > row[action] {
				action = i
			}
		}
	}

	p := ag.net.SwitchParams(ag.sw.NodeID())
	kmin, kmax, pmax := applyACCAction(action, p.KminBytes, p.KmaxBytes, p.PMax)
	ag.net.ApplySwitchECN(ag.sw.NodeID(), kmin, kmax, pmax)

	ag.prevState, ag.prevAction, ag.havePrev = state, action, true
	ag.Decisions++
}
