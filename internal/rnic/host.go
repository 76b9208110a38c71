// Package rnic models the host side of the RoCEv2 fabric: an RNIC with
// per-QP DCQCN reaction points, a flow scheduler that arbitrates QPs onto
// the uplink at line rate, the notification point that echoes ECN marks as
// CNPs, and the RTT probing that feeds Paraleon's O_RTT utility term.
package rnic

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/netdev"
	"repro/internal/topology"
)

// FlowCompleteFunc is called at the receiving host when a flow's last byte
// arrives.
type FlowCompleteFunc func(flowID uint64, src, dst topology.NodeID, size int64, start, end eventsim.Time)

// SendFlow is the sender-side state of one message on one QP.
type SendFlow struct {
	ID    uint64
	Dst   topology.NodeID
	Size  int64
	Sent  int64
	Start eventsim.Time

	rp       *dcqcn.RP
	nextSend eventsim.Time
}

// RP exposes the flow's reaction point (for tests and instrumentation).
func (f *SendFlow) RP() *dcqcn.RP { return f.rp }

// recvFlow is the receiver-side state of one inbound message.
type recvFlow struct {
	src      topology.NodeID
	expected int64
	got      int64
	start    eventsim.Time
	np       *dcqcn.NP
}

// HostStats are cumulative RNIC counters.
type HostStats struct {
	FlowsStarted   int64
	FlowsCompleted int64 // completed as receiver
	TxPackets      int64
	CNPsSent       int64
	CNPsReceived   int64
	ProbesSent     int64
	RTTSamples     int64
}

// Host is one server's RNIC attached to the fabric by a single uplink.
type Host struct {
	eng  *eventsim.Engine
	topo *topology.Topology
	node topology.NodeID

	// shared is the fabric-wide RNIC vector and override this host's own,
	// nil when it follows shared. Every QP and NP of the host points at
	// whichever is in force, and SetParams re-points them. params returns
	// it; it is built once for dcqcn.NewRP.
	shared, override *dcqcn.Params
	params           func() *dcqcn.Params

	port *netdev.EgressPort

	// pool recycles packets this RNIC sinks and supplies the ones it
	// originates. May be nil (tests wiring hosts by hand).
	pool *netdev.PacketPool

	sendFlows []*SendFlow // active senders, deterministic order
	byID      map[uint64]*SendFlow
	rx        map[uint64]*recvFlow

	// timerFn and probeFn are the persistent pacing-wakeup and probe-tick
	// handlers: built once so re-arming a timer allocates nothing. The
	// pacing wakeup moves constantly (every arbiter pass can retarget
	// it), so it rides the timing wheel via RearmAt.
	timerFn eventsim.Handler
	timerEv eventsim.EventID

	onComplete FlowCompleteFunc

	probeFn      eventsim.Handler
	probeEv      eventsim.EventID
	probeEvery   eventsim.Time
	rttNormSum   float64
	rttNormCount int64

	// The per-flow maps below stay nil until something uses them, so a
	// host that no reader asks for flow records (a static drain's) holds
	// none; reads, delete and clear on a nil map are no-ops.

	// markedInbound collects inbound flows that saw ECN marks since the
	// last TakeCongestedInbound (DCQCN+ uses this as its incast-scale
	// signal). RecordCongestedInbound makes it, and it is recorded only
	// once made, so a host no reader drains holds none.
	markedInbound map[uint64]bool

	// dstSeen and dstList are scratch for walking the distinct
	// destinations of sendFlows (probe ticks, ActiveDestinations), made
	// on the first walk.
	dstSeen map[topology.NodeID]bool
	dstList []topology.NodeID

	// reportedSent tracks how many bytes of each flow TakeFlowBytes has
	// already reported, made on its first call; finishedUnreported holds
	// residue of flows that completed between takes, made by
	// RecordFlowBytes and recorded only once made. Together they realize
	// the §V "per-QP counters in future RNICs" monitoring mode.
	reportedSent       map[uint64]int64
	finishedUnreported map[uint64]int64

	Stats HostStats
}

// NewHost builds the RNIC for node, running on the shared parameter vector
// until SetParams gives it its own. The single uplink egress port is
// created from the node's first topology port; wire it to the ToR with
// Port().SetPeer. onComplete may be nil.
func NewHost(eng *eventsim.Engine, topo *topology.Topology, node topology.NodeID, shared *dcqcn.Params, onComplete FlowCompleteFunc) *Host {
	n := &topo.Nodes[node]
	if n.Kind != topology.Host {
		panic(fmt.Sprintf("rnic: node %d is a %v, not a host", node, n.Kind))
	}
	if len(n.Ports) != 1 {
		panic(fmt.Sprintf("rnic: host %d has %d ports, want 1", node, len(n.Ports)))
	}
	l := &topo.Links[n.Ports[0]]
	h := &Host{
		eng: eng, topo: topo, node: node, shared: shared,
		byID:       map[uint64]*SendFlow{},
		rx:         map[uint64]*recvFlow{},
		onComplete: onComplete,
	}
	h.port = netdev.NewEgressPort(eng, l.RateBps, l.PropDelay, netdev.PortSeed(eng.Seed(), node, 0))
	h.port.SetOnResume(func(class int) { h.schedule() })
	h.params = func() *dcqcn.Params {
		if h.override != nil {
			return h.override
		}
		return h.shared
	}
	h.timerFn = func() { h.schedule() }
	h.probeFn = func() {
		h.sendProbes()
		h.armProbe()
	}
	return h
}

// SetPacketPool installs the free-list this RNIC draws packets from and
// returns sunk packets to; it also covers the uplink port's PFC frames.
func (h *Host) SetPacketPool(pool *netdev.PacketPool) {
	h.pool = pool
	h.port.SetPacketPool(pool)
}

// NodeID reports the topology node this RNIC serves.
func (h *Host) NodeID() topology.NodeID { return h.node }

// Port returns the uplink egress port for wiring and counter sampling.
func (h *Host) Port() *netdev.EgressPort { return h.port }

// Params returns the DCQCN parameters this RNIC's QPs run on now.
func (h *Host) Params() *dcqcn.Params { return h.params() }

// Override returns the host's own parameter vector, or nil if it follows
// the shared one.
func (h *Host) Override() *dcqcn.Params { return h.override }

// SetParams is the one way this RNIC's parameters change. It first brings
// every QP's alpha decay up to now on the parameters it ran on, then makes
// override (nil: the shared vector) the one its QPs and NPs read and
// points each of them at it. A caller about to write G or
// alpha_update_interval into a vector this host reads calls it first, with
// the override it wants to keep; DCQCN+ rewrites the other fields of its
// overrides in place.
func (h *Host) SetParams(override *dcqcn.Params) {
	h.override = override
	p := h.params()
	for _, f := range h.sendFlows {
		f.rp.CatchUp()
		f.rp.SetParams(p)
	}
	for _, rf := range h.rx {
		rf.np.SetParams(p)
	}
}

// StartFlow begins transmitting size bytes to dst as flow id. The caller
// (normally sim.Network) must also register the expectation at the
// destination with ExpectFlow.
func (h *Host) StartFlow(id uint64, dst topology.NodeID, size int64) *SendFlow {
	if size <= 0 {
		panic(fmt.Sprintf("rnic: flow %d has size %d", id, size))
	}
	if _, dup := h.byID[id]; dup {
		panic(fmt.Sprintf("rnic: duplicate flow id %d", id))
	}
	f := &SendFlow{
		ID: id, Dst: dst, Size: size, Start: h.eng.Now(),
		rp:       dcqcn.NewRP(h.eng, h.params, h.port.RateBps()),
		nextSend: h.eng.Now(),
	}
	f.rp.Start()
	h.sendFlows = append(h.sendFlows, f)
	h.byID[id] = f
	h.Stats.FlowsStarted++
	h.schedule()
	return f
}

// ExpectFlow registers an inbound flow at the receiver so completion can
// be detected and timed from its true start.
func (h *Host) ExpectFlow(id uint64, src topology.NodeID, size int64, start eventsim.Time) {
	h.rx[id] = &recvFlow{src: src, expected: size, start: start, np: dcqcn.NewNP(h.params())}
}

// schedule is the QP arbiter: while the uplink is free and unpaused, the
// active flow with the earliest pacing deadline transmits one packet; then
// the one pacing wakeup is armed for the later of the next deadline and the
// moment the uplink frees. The port therefore never tells the RNIC that a
// packet has left, and never holds two of its data packets.
func (h *Host) schedule() {
	for !h.port.Paused(netdev.ClassData) {
		var best *SendFlow
		for _, f := range h.sendFlows {
			if best == nil || f.nextSend < best.nextSend {
				best = f
			}
		}
		if best == nil {
			return
		}
		at, now := best.nextSend, h.eng.Now()
		if free := h.port.BusyUntil(); at < free {
			at = free
		}
		if at <= now {
			if !h.port.Busy() {
				h.sendPacket(best)
				continue
			}
			// The uplink's own serialization-done event is still pending
			// this nanosecond and may start a queued control or probe
			// packet: look again right behind it.
			at = now
		}
		// Retarget the wakeup in place when it is still armed (one O(1)
		// wheel reschedule); arm afresh when it just fired.
		h.timerEv = h.eng.RearmAt(h.timerEv, at, h.timerFn)
		return
	}
}

func (h *Host) sendPacket(f *SendFlow) {
	payload := netdev.DefaultMTU
	if remaining := f.Size - f.Sent; int64(payload) > remaining {
		payload = int(remaining)
	}
	last := f.Sent+int64(payload) == f.Size
	pkt := h.pool.NewDataPacket(f.ID, h.node, f.Dst, f.Sent, payload, last)
	f.Sent += int64(payload)
	wire := int64(pkt.WireBytes)
	f.rp.OnBytesSent(wire)
	// Pace the next packet of this QP by the RP's current rate.
	f.nextSend = h.eng.Now() + eventsim.Time(float64(wire*8)/f.rp.Rate()*1e9)
	h.Stats.TxPackets++
	h.port.Enqueue(pkt, -1)
	if f.Sent >= f.Size {
		h.finishSendFlow(f)
	}
}

func (h *Host) finishSendFlow(f *SendFlow) {
	f.rp.Stop()
	if residue := f.Sent - h.reportedSent[f.ID]; h.finishedUnreported != nil && residue > 0 {
		h.finishedUnreported[f.ID] += residue
	}
	delete(h.reportedSent, f.ID)
	delete(h.byID, f.ID)
	// slices.Delete clears the vacated tail slot, so a finished flow and
	// its RP are not kept reachable by the slice's spare capacity.
	if i := slices.Index(h.sendFlows, f); i >= 0 {
		h.sendFlows = slices.Delete(h.sendFlows, i, i+1)
	}
}

// Receive implements netdev.Device. Every packet terminates here, so each
// branch returns the packet to the pool once its fields have been read.
func (h *Host) Receive(pkt *netdev.Packet, inPort int) {
	switch pkt.Kind {
	case netdev.KindPFC:
		h.port.SetPaused(int(pkt.PauseClass), pkt.Pause)

	case netdev.KindData:
		rf := h.rx[pkt.FlowID]
		if rf == nil {
			// Unregistered flow (e.g. raw injection in tests): track it
			// so NP behaviour still applies, but never complete it.
			rf = &recvFlow{src: pkt.Src, expected: -1, np: dcqcn.NewNP(h.params())}
			h.rx[pkt.FlowID] = rf
		}
		rf.got += int64(pkt.PayloadBytes)
		if pkt.ECNMarked && h.markedInbound != nil {
			h.markedInbound[pkt.FlowID] = true
		}
		if pkt.ECNMarked && rf.np.OnECNMarked(h.eng.Now()) {
			h.Stats.CNPsSent++
			h.port.Enqueue(h.pool.NewCNP(pkt.FlowID, h.node, pkt.Src), -1)
		}
		if rf.expected >= 0 && rf.got >= rf.expected {
			h.Stats.FlowsCompleted++
			if h.onComplete != nil {
				h.onComplete(pkt.FlowID, rf.src, h.node, rf.expected, rf.start, h.eng.Now())
			}
			delete(h.rx, pkt.FlowID)
		}

	case netdev.KindCNP:
		h.Stats.CNPsReceived++
		if f := h.byID[pkt.FlowID]; f != nil {
			f.rp.OnCNP()
		}

	case netdev.KindProbe:
		reply := h.pool.Get()
		reply.Kind, reply.Class = netdev.KindProbeReply, netdev.ClassCtrl
		reply.WireBytes = netdev.CtrlFrameBytes
		reply.FlowID, reply.Src, reply.Dst = pkt.FlowID, h.node, pkt.Src
		reply.SentAt = pkt.SentAt
		h.port.Enqueue(reply, -1)

	case netdev.KindProbeReply:
		rtt := h.eng.Now() - pkt.SentAt
		if rtt <= 0 {
			break
		}
		base := 2 * h.topo.BasePathDelay(h.node, pkt.Src)
		norm := float64(base) / float64(rtt)
		if norm > 1 {
			norm = 1
		}
		h.rttNormSum += norm
		h.rttNormCount++
		h.Stats.RTTSamples++
	}
	h.pool.Put(pkt)
}

// StartProbing arms periodic RTT probes toward the destinations of the
// host's active flows; every is typically a fraction of the monitor
// interval. Probes ride the data class so they observe real queueing.
func (h *Host) StartProbing(every eventsim.Time) {
	if every <= 0 {
		panic("rnic: non-positive probe interval")
	}
	h.StopProbing()
	h.probeEvery = every
	h.armProbe()
}

// StopProbing cancels periodic probing. A probe event that already fired
// or was cancelled leaves a stale ID, which Cancel ignores.
func (h *Host) StopProbing() { h.eng.Cancel(h.probeEv) }

func (h *Host) armProbe() {
	h.probeEv = h.eng.RearmAfter(h.probeEv, h.probeEvery, h.probeFn)
}

// resetDstSeen empties the destination scratch set, making it on the first
// walk: only probing hosts and DCQCN+'s reader ever walk destinations.
func (h *Host) resetDstSeen() {
	if h.dstSeen == nil {
		h.dstSeen = map[topology.NodeID]bool{}
	}
	clear(h.dstSeen)
}

func (h *Host) sendProbes() {
	h.resetDstSeen()
	for _, f := range h.sendFlows {
		if h.dstSeen[f.Dst] {
			continue
		}
		h.dstSeen[f.Dst] = true
		probe := h.pool.Get()
		probe.Kind, probe.Class = netdev.KindProbe, netdev.ClassData
		probe.WireBytes = netdev.CtrlFrameBytes
		probe.FlowID, probe.Src, probe.Dst = f.ID, h.node, f.Dst
		probe.SentAt = h.eng.Now()
		h.Stats.ProbesSent++
		h.port.Enqueue(probe, -1)
	}
}

// TakeRTT returns the sum of normalized RTT samples (base path delay over
// measured RTT, per Swift) and their count since the previous call, then
// resets both.
func (h *Host) TakeRTT() (sumNorm float64, count int64) {
	sumNorm, count = h.rttNormSum, h.rttNormCount
	h.rttNormSum, h.rttNormCount = 0, 0
	return sumNorm, count
}

// RecordCongestedInbound starts recording which inbound flows see ECN
// marks; the reader that will call TakeCongestedInbound turns it on when it
// is built. Until then the host keeps no per-flow record.
func (h *Host) RecordCongestedInbound() {
	if h.markedInbound == nil {
		h.markedInbound = map[uint64]bool{}
	}
}

// TakeCongestedInbound reports how many distinct inbound flows received
// ECN-marked packets since the previous call, then resets the set. This
// is the NP-side incast-scale estimate DCQCN+ keys its CNP interval on.
// It counts nothing unless RecordCongestedInbound was called.
func (h *Host) TakeCongestedInbound() int {
	n := len(h.markedInbound)
	clear(h.markedInbound)
	return n
}

// RecordFlowBytes starts recording the unreported residue of flows that
// complete; the reader that will call TakeFlowBytes turns it on when it is
// built. Until then a completed flow leaves nothing behind.
func (h *Host) RecordFlowBytes() {
	if h.finishedUnreported == nil {
		h.finishedUnreported = map[uint64]int64{}
	}
}

// TakeFlowBytes reports, per flow this RNIC sent on since the previous
// call, the payload bytes transmitted in that window — exact per-QP
// counters, the §V alternative to switch sketches. Output is sorted by
// flow ID; flows that completed between takes contribute their residue
// if RecordFlowBytes was called.
func (h *Host) TakeFlowBytes() []FlowBytes {
	if h.reportedSent == nil {
		h.reportedSent = map[uint64]int64{}
	}
	out := make([]FlowBytes, 0, len(h.sendFlows)+len(h.finishedUnreported))
	for _, f := range h.sendFlows {
		delta := f.Sent - h.reportedSent[f.ID]
		if delta <= 0 {
			continue
		}
		h.reportedSent[f.ID] = f.Sent
		out = append(out, FlowBytes{Flow: f.ID, Bytes: delta})
	}
	for id, b := range h.finishedUnreported {
		out = append(out, FlowBytes{Flow: id, Bytes: b})
	}
	clear(h.finishedUnreported)
	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}

// FlowBytes pairs a flow with bytes it moved in a window.
type FlowBytes struct {
	Flow  uint64
	Bytes int64
}

// ActiveDestinations lists the distinct destinations of in-progress
// sending flows, in first-flow order. The slice is the host's scratch: it
// is valid until the next call.
func (h *Host) ActiveDestinations() []topology.NodeID {
	h.resetDstSeen()
	h.dstList = h.dstList[:0]
	for _, f := range h.sendFlows {
		if !h.dstSeen[f.Dst] {
			h.dstSeen[f.Dst] = true
			h.dstList = append(h.dstList, f.Dst)
		}
	}
	return h.dstList
}
