package monitor

import (
	"sort"

	"repro/internal/eventsim"
	"repro/internal/netdev"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// AgentConfig selects which of Paraleon's two monitor keypoints an agent
// applies; disabling them yields the "naive Elastic Sketch" baseline of
// §IV-B3.
type AgentConfig struct {
	Sketch  sketch.Config
	Tracker TrackerConfig
	// InsertOnce applies Keypoint 1: skip packets whose TOS bit says a
	// previous measurement point already recorded them, and mark the bit
	// on insertion.
	InsertOnce bool
	// Ternary applies Keypoint 2: sliding-window ternary states rather
	// than single-interval elephant/mice classification.
	Ternary bool
}

// ParaleonAgentConfig is the full design: both keypoints on.
func ParaleonAgentConfig() AgentConfig {
	return AgentConfig{
		Sketch:     sketch.DefaultConfig(),
		Tracker:    DefaultTrackerConfig(),
		InsertOnce: true,
		Ternary:    true,
	}
}

// NaiveElasticConfig is the baseline: raw Elastic Sketch at every switch,
// no marking, single-interval classification.
func NaiveElasticConfig() AgentConfig {
	cfg := ParaleonAgentConfig()
	cfg.InsertOnce = false
	cfg.Ternary = false
	return cfg
}

// SwitchAgent is one ToR's measurement stack: the data-plane sketch plus
// the control-plane ternary tracker.
type SwitchAgent struct {
	cfg     AgentConfig
	sk      *sketch.Sketch
	tracker *Tracker

	// Skipped counts packets the insert-once rule declined.
	Skipped int64

	// TM, when non-nil, mirrors interval activity into the telemetry
	// registry. Updates happen at interval granularity (EndInterval), so
	// the per-packet insertion path stays untouched; many agents may
	// share one bundle and accumulate into the same families.
	TM *telemetry.SketchMetrics
	// tmSkipped is the Skipped watermark already reported to TM.
	tmSkipped int64
}

// NewSwitchAgent builds an agent; seed differentiates sketch hashing
// across switches.
func NewSwitchAgent(cfg AgentConfig, seed uint64) *SwitchAgent {
	return &SwitchAgent{
		cfg:     cfg,
		sk:      sketch.New(cfg.Sketch, seed),
		tracker: NewTracker(cfg.Tracker),
	}
}

// Attach installs the agent as one of sw's packet taps, composing with
// any tap already installed (e.g. a ground-truth oracle attached first)
// instead of silently replacing it. The existing tap keeps firing first,
// so pure observers installed earlier see packets before this agent
// marks the TOS bit.
func (a *SwitchAgent) Attach(sw *netdev.Switch) {
	TapAll(sw, a.OnPacket)
}

// OnPacket is the data-plane insertion path.
func (a *SwitchAgent) OnPacket(pkt *netdev.Packet, now eventsim.Time) {
	if pkt.Kind != netdev.KindData {
		return
	}
	if a.cfg.InsertOnce {
		if pkt.TOSMarked {
			a.Skipped++
			return
		}
		pkt.TOSMarked = true
	}
	a.sk.Insert(pkt.FlowID, int64(pkt.PayloadBytes))
}

// Sketch exposes the underlying sketch (tests, overhead accounting).
func (a *SwitchAgent) Sketch() *sketch.Sketch { return a.sk }

// EndInterval implements ReportSource: read and reset the sketch, update
// flow states, and emit the local report.
func (a *SwitchAgent) EndInterval() Report {
	heavy := a.sk.HeavyFlows()
	if a.TM != nil {
		a.TM.Reads.Inc()
		a.TM.Resets.Inc()
		a.TM.Inserts.Add(a.sk.Inserts)
		a.TM.Bytes.Add(a.sk.TotalBytes)
		a.TM.Evictions.Add(a.sk.Evictions)
		a.TM.Skipped.Add(a.Skipped - a.tmSkipped)
		a.tmSkipped = a.Skipped
		a.TM.HeavyFlows.Set(float64(len(heavy)))
	}
	// HeavyFlows folds flagged residents' Light Part residue into their
	// estimates; subtract it from the light lump or that mass counts
	// twice (once under the flow, once as unattributed mice bytes).
	light := a.sk.LightBytes() - a.sk.FlaggedResidue()
	if light < 0 {
		light = 0
	}
	a.sk.Reset()

	if a.cfg.Ternary {
		return ReportFrom(a.tracker.EndInterval(heavy), light)
	}
	// Naive single-interval classification: a flow is an elephant only
	// if it moved ≥ τ within this one interval — precisely the
	// misidentification Keypoint 2 repairs.
	var r Report
	for _, fs := range heavy {
		r.Hist[BucketFor(fs.Bytes)] += float64(fs.Bytes)
		if fs.Bytes >= a.cfg.Tracker.TauBytes {
			r.ElephantBytes += float64(fs.Bytes)
			r.ElephantFlowsW++
		} else {
			r.MiceBytes += float64(fs.Bytes)
			r.MiceFlowsW++
		}
		r.Flows++
	}
	if light > 0 {
		r.Hist[0] += float64(light)
		r.MiceBytes += float64(light)
	}
	return r
}

// Oracle is the ground-truth agent for accuracy evaluation: it counts
// exactly, dedupes by "count only at the flow's source ToR" (equivalent to
// a perfect insert-once rule but independent of the TOS bit), and
// classifies each flow by its declared total size.
type Oracle struct {
	topo   *topology.Topology
	node   topology.NodeID
	sizeOf func(flow uint64) int64
	tau    int64

	interval map[uint64]int64
}

// NewOracle builds the ground-truth agent for the ToR at node. sizeOf
// returns a flow's declared total size (sim.Network.FlowSize).
func NewOracle(topo *topology.Topology, node topology.NodeID, tau int64, sizeOf func(uint64) int64) *Oracle {
	return &Oracle{topo: topo, node: node, sizeOf: sizeOf, tau: tau, interval: map[uint64]int64{}}
}

// OnPacket counts data packets whose source hangs off this ToR.
func (o *Oracle) OnPacket(pkt *netdev.Packet, now eventsim.Time) {
	if pkt.Kind != netdev.KindData {
		return
	}
	if o.topo.ToROf(pkt.Src) != o.node {
		return
	}
	o.interval[pkt.FlowID] += int64(pkt.PayloadBytes)
}

// EndInterval implements ReportSource with perfect knowledge.
func (o *Oracle) EndInterval() Report {
	flows := make([]uint64, 0, len(o.interval))
	for id := range o.interval {
		flows = append(flows, id)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	var r Report
	for _, id := range flows {
		bytes := o.interval[id]
		size := o.sizeOf(id)
		if size <= 0 {
			size = bytes
		}
		r.Hist[BucketFor(size)] += float64(bytes)
		if size >= o.tau {
			r.ElephantBytes += float64(bytes)
			r.ElephantFlowsW++
		} else {
			r.MiceBytes += float64(bytes)
			r.MiceFlowsW++
		}
		r.Flows++
	}
	o.interval = map[uint64]int64{}
	return r
}

// TapAll fans a switch's single tap out to several observers (e.g. an
// estimator agent plus the ground-truth oracle). A tap already installed
// on the switch is kept and fires before the new observers, so repeated
// attachment calls compose instead of clobbering each other. Order
// matters: observers that mutate the TOS bit should come after pure
// observers.
func TapAll(sw *netdev.Switch, taps ...func(*netdev.Packet, eventsim.Time)) {
	if prev := sw.Tap; prev != nil {
		taps = append([]func(*netdev.Packet, eventsim.Time){prev}, taps...)
	}
	if len(taps) == 1 {
		sw.Tap = taps[0]
		return
	}
	sw.Tap = func(pkt *netdev.Packet, now eventsim.Time) {
		for _, tap := range taps {
			tap(pkt, now)
		}
	}
}
