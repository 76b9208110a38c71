package sim

import (
	"fmt"
	"sort"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/eventsim/shard"
	"repro/internal/netdev"
	"repro/internal/rnic"
	"repro/internal/topology"
)

// shardRuntime is the sharded execution state of a Network built with
// Config.Shards > 0: one engine and packet pool per ToR-pod shard, the
// cross-shard handoff queues, and the deferred flow-completion buffers.
// The coordinator (internal/eventsim/shard) drives the window loop; this
// type supplies the fabric-specific barrier work.
type shardRuntime struct {
	n       *Network
	coord   *shard.Coordinator
	engines []*eventsim.Engine
	pools   []*netdev.PacketPool
	part    []int
	nshards int

	// out[s] is shard s's outbox: packets that left a cross-shard port
	// during the current window. Appended only by shard s's worker,
	// drained only by the coordinator at the barrier — no lock needed.
	out     [][]handoff
	inboxes []*inbox
	sorted  []handoff // barrier merge scratch

	// deferred[s] buffers flow completions raised on shard s during a
	// window. Completion hooks are global (they may start flows on other
	// shards, append to Network.Completed, write traces), so they run on
	// the coordinator thread at the completion's exact virtual time.
	deferred [][]FlowRecord
}

// handoff is one packet crossing a shard boundary: where it is going
// (inbox), when it arrives, and its structural ordering key.
type handoff struct {
	pkt   *netdev.Packet
	at    eventsim.Time
	key   uint64
	inbox int32
}

// inbox is the receiving end of one cross-shard link direction. Its slot
// slab mirrors netdev's delivery slab: persistent closures so injecting a
// handoff costs one event and no allocation in steady state.
type inbox struct {
	eng   *eventsim.Engine
	dev   netdev.Device
	port  int
	slots []inboxSlot
	free  int32
}

type inboxSlot struct {
	pkt  *netdev.Packet
	next int32
	fn   eventsim.Handler
}

func (b *inbox) inject(pkt *netdev.Packet, at eventsim.Time, key uint64) {
	slot := b.free
	if slot >= 0 {
		b.free = b.slots[slot].next
	} else {
		slot = int32(len(b.slots))
		b.slots = append(b.slots, inboxSlot{})
		i := slot
		b.slots[i].fn = func() { b.deliver(i) }
	}
	b.slots[slot].pkt = pkt
	b.eng.ScheduleKeyed(at, key, b.slots[slot].fn)
}

func (b *inbox) deliver(i int32) {
	s := &b.slots[i]
	pkt := s.pkt
	s.pkt = nil
	s.next = b.free
	b.free = i
	b.dev.Receive(pkt, b.port)
}

// inFlight counts packets injected but not yet delivered (pool-leak
// accounting).
func (b *inbox) inFlight() int {
	n := 0
	for i := range b.slots {
		if b.slots[i].pkt != nil {
			n++
		}
	}
	return n
}

// buildSharded constructs the sharded form of the network: called by New
// once the topology, parameter maps, and global engine (n.Eng) exist.
func (n *Network) buildSharded() error {
	topo, cfg := n.Topo, n.cfg
	w := topo.MinPropDelay()
	if w <= 0 {
		return fmt.Errorf("sim: sharded mode needs positive link propagation delay for lookahead, have %v", w)
	}
	part, nshards := topo.PodPartition(cfg.Shards)
	rt := &shardRuntime{
		n: n, part: part, nshards: nshards,
		engines:  make([]*eventsim.Engine, nshards),
		pools:    make([]*netdev.PacketPool, nshards),
		out:      make([][]handoff, nshards),
		deferred: make([][]FlowRecord, nshards),
	}
	for s := 0; s < nshards; s++ {
		// The shard engines' master rand streams are never drawn — every
		// device stream comes from the global engine — so these seeds only
		// need to exist, not to match anything.
		rt.engines[s] = eventsim.NewEngine(cfg.Seed + int64(s) + 1)
		rt.pools[s] = netdev.NewPacketPool()
	}
	n.shard = rt

	// Build devices in the exact order the single-engine path does
	// (switches in SwitchIDs order, then hosts in Hosts order), drawing
	// their random streams from the global engine: the draw sequence — and
	// therefore every ECN coin flip — is identical for any shard count.
	for _, sn := range topo.SwitchIDs() {
		sp := cfg.Params
		spp := &sp
		n.switchParams[sn] = spp
		sw := netdev.NewSwitchSeeded(rt.engines[part[sn]], n.Eng, topo, sn, cfg.Switch, func() *dcqcn.Params { return spp })
		sw.SetPacketPool(rt.pools[part[sn]])
		n.Switches = append(n.Switches, sw)
		n.switchByNode[sn] = sw
	}
	for _, hn := range topo.Hosts() {
		hn := hn
		s := part[hn]
		h := rnic.NewHostSeeded(rt.engines[s], n.Eng, topo, hn, func() *dcqcn.Params {
			if p := n.hostParams[hn]; p != nil {
				return p
			}
			return n.rnicParams
		}, func(id uint64, src, dst topology.NodeID, size int64, start, end eventsim.Time) {
			rt.deferred[s] = append(rt.deferred[s], FlowRecord{ID: id, Src: src, Dst: dst, Size: size, Start: start, End: end})
		})
		if cfg.MTU > 0 {
			h.SetMTU(cfg.MTU)
		}
		h.SetTimerSuppression(cfg.SuppressQuiescentTimers)
		h.SetPacketPool(rt.pools[s])
		n.Hosts = append(n.Hosts, h)
		n.hostByNode[hn] = h
	}

	// Wire links. Every port gets keyed deliveries — same-timestamp
	// arrival order must be structural even within a shard, or shards=1
	// and shards=N would tie-break differently. Cross-shard ports
	// additionally divert deliveries into their shard's outbox.
	for i := range topo.Links {
		l := &topo.Links[i]
		devA, portA := n.devicePort(l.A, l.APort)
		devB, portB := n.devicePort(l.B, l.BPort)
		portA.SetPeer(devB, l.BPort)
		portB.SetPeer(devA, l.APort)
		portA.SetDeliveryKeying(l.A, l.APort)
		portB.SetDeliveryKeying(l.B, l.BPort)
		if part[l.A] != part[l.B] {
			rt.wireRemote(portA, part[l.A], part[l.B], devB, l.BPort)
			rt.wireRemote(portB, part[l.B], part[l.A], devA, l.APort)
		}
	}

	rt.coord = shard.New(n.Eng, rt.engines, w, rt.barrier)
	return nil
}

// wireRemote points a cross-shard egress port at its shard's outbox and
// registers the destination-side inbox.
func (rt *shardRuntime) wireRemote(src *netdev.EgressPort, srcShard, dstShard int, dev netdev.Device, port int) {
	b := &inbox{eng: rt.engines[dstShard], dev: dev, port: port, free: -1}
	idx := int32(len(rt.inboxes))
	rt.inboxes = append(rt.inboxes, b)
	src.SetRemoteHandoff(func(pkt *netdev.Packet, at eventsim.Time, key uint64) {
		rt.out[srcShard] = append(rt.out[srcShard], handoff{pkt: pkt, at: at, key: key, inbox: idx})
	})
}

// barrier runs at every window boundary with all shard workers parked:
// merge the window's cross-shard handoffs in structural order and inject
// them into their destination engines, then schedule the window's
// deferred flow completions onto the global engine at their exact end
// times (merged by (End, flow ID) so the order is shard-count-invariant).
func (rt *shardRuntime) barrier() {
	rt.sorted = rt.sorted[:0]
	for s := range rt.out {
		rt.sorted = append(rt.sorted, rt.out[s]...)
		rt.out[s] = rt.out[s][:0]
	}
	if len(rt.sorted) > 0 {
		sort.Slice(rt.sorted, func(i, j int) bool {
			a, b := &rt.sorted[i], &rt.sorted[j]
			if a.at != b.at {
				return a.at < b.at
			}
			return a.key < b.key
		})
		for i := range rt.sorted {
			h := &rt.sorted[i]
			rt.inboxes[h.inbox].inject(h.pkt, h.at, h.key)
			h.pkt = nil
		}
	}

	count := 0
	for s := range rt.deferred {
		count += len(rt.deferred[s])
	}
	if count == 0 {
		return
	}
	recs := make([]FlowRecord, 0, count)
	for s := range rt.deferred {
		recs = append(recs, rt.deferred[s]...)
		rt.deferred[s] = rt.deferred[s][:0]
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].End != recs[j].End {
			return recs[i].End < recs[j].End
		}
		return recs[i].ID < recs[j].ID
	})
	for _, rec := range recs {
		rec := rec
		rt.n.Eng.Schedule(rec.End, func() { rt.n.deliverCompletion(rec) })
	}
}

// outstanding counts packets held by the shard machinery itself: sitting
// in an outbox awaiting the barrier, or injected into an inbox slot but
// not yet delivered.
func (rt *shardRuntime) outstanding() int {
	total := 0
	for s := range rt.out {
		total += len(rt.out[s])
	}
	for _, b := range rt.inboxes {
		total += b.inFlight()
	}
	return total
}
