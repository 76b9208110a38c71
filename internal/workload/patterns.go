package workload

import (
	"fmt"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// IncastConfig drives the classic partition/aggregate pattern: FanIn
// senders each push MessageBytes to one aggregator, a new wave Gap after
// each one lands, until the simulation ends. Incast is the scenario
// DCQCN+ targets and the stress case for PFC.
type IncastConfig struct {
	// Aggregator receives; nil Senders means every other host sends.
	Aggregator topology.NodeID
	Senders    []topology.NodeID
	// FanIn bounds the sender count (0 = all senders).
	FanIn        int
	MessageBytes int64
	Gap          eventsim.Time
}

// IncastGen is an installed incast workload.
type IncastGen struct {
	net *sim.Network
	cfg IncastConfig

	pending map[uint64]bool
	// FlowIDs records all launched flows; WaveDurations each wave's
	// completion time.
	FlowIDs       map[uint64]bool
	WaveDurations []eventsim.Time
	waveAt        eventsim.Time
}

// InstallIncast schedules the workload on n.
func InstallIncast(n *sim.Network, cfg IncastConfig) (*IncastGen, error) {
	if cfg.Senders == nil {
		for _, h := range n.Topo.Hosts() {
			if h != cfg.Aggregator {
				cfg.Senders = append(cfg.Senders, h)
			}
		}
	}
	if cfg.FanIn > 0 && cfg.FanIn < len(cfg.Senders) {
		cfg.Senders = cfg.Senders[:cfg.FanIn]
	}
	if len(cfg.Senders) == 0 {
		return nil, fmt.Errorf("workload: incast with no senders")
	}
	for _, s := range cfg.Senders {
		if s == cfg.Aggregator {
			return nil, fmt.Errorf("workload: aggregator %d among senders", cfg.Aggregator)
		}
	}
	if cfg.MessageBytes <= 0 {
		return nil, fmt.Errorf("workload: non-positive incast message")
	}
	g := &IncastGen{
		net: n, cfg: cfg,
		pending: map[uint64]bool{},
		FlowIDs: map[uint64]bool{},
	}
	n.AddFlowCompleteHook(g.onComplete)
	n.Eng.Schedule(0, g.wave)
	return g, nil
}

func (g *IncastGen) wave() {
	g.waveAt = g.net.Eng.Now()
	for _, s := range g.cfg.Senders {
		id := g.net.StartFlow(s, g.cfg.Aggregator, g.cfg.MessageBytes)
		g.pending[id] = true
		g.FlowIDs[id] = true
	}
}

func (g *IncastGen) onComplete(rec sim.FlowRecord) {
	if !g.pending[rec.ID] {
		return
	}
	delete(g.pending, rec.ID)
	if len(g.pending) > 0 {
		return
	}
	g.WaveDurations = append(g.WaveDurations, g.net.Eng.Now()-g.waveAt)
	g.net.Eng.After(g.cfg.Gap, g.wave)
}
