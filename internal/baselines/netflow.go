package baselines

import (
	"math/rand"
	"sort"

	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/monitor"
	"repro/internal/netdev"
	"repro/internal/topology"
)

// NetFlowConfig matches the paper's comparison setup: 1:100 packet
// sampling and a 1-second export interval.
type NetFlowConfig struct {
	// SampleRate is the sampling denominator (100 → 1:100).
	SampleRate int
	// Interval is the export period.
	Interval eventsim.Time
	// MonitorInterval is the controller's λ_MI; the agent flushes every
	// Interval/MonitorInterval controller ticks and serves a stale
	// report in between.
	MonitorInterval eventsim.Time
	// Seed fixes the sampling coin.
	Seed int64
}

// DefaultNetFlowConfig is the §IV-B3 configuration.
func DefaultNetFlowConfig() NetFlowConfig {
	return NetFlowConfig{
		SampleRate:      100,
		Interval:        eventsim.Second,
		MonitorInterval: eventsim.Millisecond,
		Seed:            1,
	}
}

// NetFlowAgent is a sampled flow monitor on one ToR. It implements
// loop.ReportSource, but unlike the sketch agents its content only
// refreshes once per export interval — both the sampling loss and the
// staleness degrade the FSD the tuner sees (Fig 10).
type NetFlowAgent struct {
	cfg  NetFlowConfig
	topo *topology.Topology
	node topology.NodeID
	rng  *rand.Rand

	samples map[uint64]int64
	current loop.Report

	ticksPerFlush int
	tick          int

	// Sampled counts packets actually recorded.
	Sampled int64
}

// NewNetFlowAgent builds the agent for the ToR at node.
func NewNetFlowAgent(cfg NetFlowConfig, topo *topology.Topology, node topology.NodeID) *NetFlowAgent {
	if cfg.SampleRate < 1 {
		cfg.SampleRate = 1
	}
	ticks := int(cfg.Interval / cfg.MonitorInterval)
	if ticks < 1 {
		ticks = 1
	}
	return &NetFlowAgent{
		cfg:           cfg,
		topo:          topo,
		node:          node,
		rng:           rand.New(rand.NewSource(cfg.Seed + int64(node))),
		samples:       map[uint64]int64{},
		ticksPerFlush: ticks,
	}
}

// Attach installs the agent as one of sw's packet taps, composing with
// any tap already installed (e.g. a ground-truth oracle) instead of
// silently replacing it.
func (a *NetFlowAgent) Attach(sw *netdev.Switch) { monitor.TapAll(sw, a.OnPacket) }

// OnPacket samples 1-in-SampleRate data packets at the flow's source ToR.
func (a *NetFlowAgent) OnPacket(pkt *netdev.Packet, now eventsim.Time) {
	if pkt.Kind != netdev.KindData {
		return
	}
	if a.topo.ToROf(pkt.Src) != a.node {
		return
	}
	if a.rng.Intn(a.cfg.SampleRate) != 0 {
		return
	}
	a.samples[pkt.FlowID] += int64(pkt.PayloadBytes)
	a.Sampled++
}

// EndInterval implements loop.ReportSource. The returned report only
// changes when an export interval elapses.
func (a *NetFlowAgent) EndInterval() loop.Report {
	a.tick++
	if a.tick < a.ticksPerFlush {
		return a.current
	}
	a.tick = 0
	a.current = a.flush()
	return a.current
}

func (a *NetFlowAgent) flush() loop.Report {
	ids := make([]uint64, 0, len(a.samples))
	for id := range a.samples {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var r loop.Report
	for _, id := range ids {
		est := a.samples[id] * int64(a.cfg.SampleRate) // scale up
		r.AddFlow(est, est, monitor.ElephantWeight(est))
	}
	a.samples = map[uint64]int64{}
	return r
}
