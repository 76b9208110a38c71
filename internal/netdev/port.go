package netdev

import (
	"repro/internal/eventsim"
	"repro/internal/splitmix"
	"repro/internal/topology"
)

// fifo is one class queue, linked through the packets it holds: push links
// at the tail and pop unlinks the head, both O(1) and allocation-free, and
// an empty queue pins no memory however deep it once was.
type fifo struct {
	head, tail *Packet
	n          int
	bytes      int64
}

// push queues pkt, which came in on inPort, at the tail.
func (q *fifo) push(pkt *Packet, inPort int) {
	pkt.inPort = int32(inPort)
	if q.tail == nil {
		q.head = pkt
	} else {
		q.tail.next = pkt
	}
	q.tail = pkt
	q.n++
	q.bytes += int64(pkt.WireBytes)
}

// pop unlinks the head packet, or returns nil when the queue is empty.
func (q *fifo) pop() *Packet {
	pkt := q.head
	if pkt == nil {
		return nil
	}
	q.head = pkt.next
	if q.head == nil {
		q.tail = nil
	}
	pkt.next = nil
	q.n--
	q.bytes -= int64(pkt.WireBytes)
	return pkt
}

func (q *fifo) empty() bool { return q.head == nil }

// PortStats are cumulative egress counters.
type PortStats struct {
	TxPackets, TxBytes   int64 // all classes
	TxDataBytes          int64 // class 0 only
	ECNMarked            int64
	PFCSent, PFCReceived int64
	// LinkDowns counts SetLinkUp(false) transitions (fault injection).
	LinkDowns int64
	// TxTimers counts the transmissions that needed a serialization-done
	// event: something waited on the port, or its owner had to see the
	// departure on time. The rest cost one event, the delivery.
	TxTimers int64
}

// EgressPort is one direction of a link: priority queues, a transmitter
// that serializes at line rate, optional ECN marking, and PFC pause state.
// Both switches and host RNICs transmit through EgressPorts.
type EgressPort struct {
	eng     *eventsim.Engine
	rateBps float64
	prop    eventsim.Time
	// seed keys the port's ECN coins (see coin); PortSeed derives it.
	seed uint64

	peer Device
	// peerPort is the port the peer receives on; index is this port's
	// egress index on its owning switch (sw).
	peerPort, index int32

	queues [NumClasses]fifo

	// The five flags sit together so they share one word
	// (TestEgressPortSizeClass). paused is the PFC state per class; txArmed
	// is described with the transmitter and pauseCounted with the pause
	// accounting below. up is the link fault state (internal/chaos): a down
	// link holds its queues — the sim has no link-layer retransmit, so
	// dropping in-queue lossless traffic would strand flows forever;
	// holding models an outage that upper layers experience as unbounded
	// delay while ECMP routes new traffic around the port.
	paused       [NumClasses]bool
	txArmed      bool
	up           bool
	pauseCounted bool

	// pool recycles packets this port originates (PFC frames). May be nil.
	pool *PacketPool

	// Transmitter state. A packet goes on the wire the moment it starts to
	// serialize, so all the transmitter keeps of it is busyUntil, the time
	// its last bit leaves. A serialization-done event (txDoneFn, pending
	// while txArmed) exists only when something needs that moment: eligible
	// traffic queued behind the packet, or an owner that must see the
	// departure on time. Until a pending event has run the port counts as
	// busy, so an Enqueue landing on the same nanosecond queues behind it.
	busyUntil eventsim.Time
	txDoneFn  eventsim.Handler

	// wire and wireTail are the packets crossing the link, each from the
	// start of its serialization until it arrives, linked through
	// Packet.next in arrival order. Every member has one landFn event
	// pending, and landFn lands the head, so nothing per packet is built.
	wire, wireTail *Packet
	landFn         eventsim.Handler

	// marker returns the ECN mark probability for a class-0 queue depth;
	// nil disables marking (host ports).
	marker func(queueBytes int64) float64

	// sw, when set, is the switch that owns this port as its egress index.
	// It records a buffer release at every transmit start and settles the
	// due ones whenever a serialization-done event runs (see Switch.settle).
	// Host ports have no owner to tell: the RNIC paces itself off BusyUntil.
	sw *Switch
	// onResume, if set, is called when a PFC RESUME unpauses a class
	// (host RNICs restart their flow scheduler here).
	onResume func(class int)

	// pause-duration accounting for the O_PFC utility term, open while
	// pauseCounted. pausedAccum is take-style (owned by the runtime
	// collector); pausedTotal accumulates the same closed intervals forever
	// so read-only consumers (the flight recorder) can take deltas without
	// stealing from the collector.
	pausedSince eventsim.Time
	pausedAccum eventsim.Time
	pausedTotal eventsim.Time

	Stats PortStats
}

// PortSeed is the coin seed of a node's port in the run seeded run: a pure
// function of the three, whatever order the devices are built in.
func PortSeed(run int64, node topology.NodeID, port int) uint64 {
	return splitmix.Fold(splitmix.Fold(splitmix.Next(uint64(run)), uint64(node)), uint64(port))
}

// NewEgressPort builds a port transmitting at rateBps over a link with
// one-way propagation delay prop, its ECN coins keyed by seed. Wire the
// destination with SetPeer before the first Enqueue.
func NewEgressPort(eng *eventsim.Engine, rateBps float64, prop eventsim.Time, seed uint64) *EgressPort {
	if rateBps <= 0 {
		panic("netdev: non-positive port rate")
	}
	p := &EgressPort{eng: eng, rateBps: rateBps, prop: prop, seed: seed, up: true}
	p.txDoneFn, p.landFn = p.txDone, p.land
	return p
}

// SetPacketPool installs the free-list this port recycles its locally
// generated control frames through. Devices install their shared pool on
// every port they own.
func (p *EgressPort) SetPacketPool(pool *PacketPool) { p.pool = pool }

// LinkUp reports whether the link out of this port is up.
func (p *EgressPort) LinkUp() bool { return p.up }

// SetLinkUp raises or cuts the link. While down the port transmits
// nothing (queued traffic is held, not dropped); restoring the link
// restarts the transmitter. PFC control frames still cross the wire so
// pause state cannot deadlock across an outage.
func (p *EgressPort) SetLinkUp(up bool) {
	if p.up == up {
		return
	}
	p.up = up
	if !up {
		p.Stats.LinkDowns++
		return
	}
	p.kick()
}

// SetPeer wires the far end of the link: packets arrive at dev.Receive
// with inPort = port.
func (p *EgressPort) SetPeer(dev Device, port int) {
	p.peer = dev
	p.peerPort = int32(port)
}

// SetMarker installs the ECN marking law (switch CP behaviour). The
// function is consulted at dequeue with the class-0 queue depth in bytes.
func (p *EgressPort) SetMarker(m func(queueBytes int64) float64) { p.marker = m }

// SetOnResume installs the PFC-resume hook.
func (p *EgressPort) SetOnResume(fn func(class int)) { p.onResume = fn }

// Busy reports whether the transmitter is taken: a packet is serializing,
// or the serialization-done event of one that just finished has yet to run.
func (p *EgressPort) Busy() bool { return p.txArmed || p.eng.Now() < p.busyUntil }

// BusyUntil reports when the packet on the transmitter finishes
// serializing; a time not after now means nothing is serializing.
func (p *EgressPort) BusyUntil() eventsim.Time { return p.busyUntil }

// RateBps reports the configured line rate.
func (p *EgressPort) RateBps() float64 { return p.rateBps }

// QueueBytes reports the current depth of the given class queue.
func (p *EgressPort) QueueBytes(class int) int64 { return p.queues[class].bytes }

// serialization returns the wire time of n bytes at the line rate.
func (p *EgressPort) serialization(n int) eventsim.Time {
	return eventsim.Time(float64(n*8) / p.rateBps * 1e9)
}

// Enqueue hands the port a packet tagged with its ingress port (−1 for
// locally generated traffic). A free port serves eligible traffic at once,
// so nothing eligible can be waiting when the port is free: the packet goes
// straight to the transmitter. Otherwise it queues.
func (p *EgressPort) Enqueue(pkt *Packet, inPort int) {
	if p.up && !p.paused[pkt.Class] && !p.Busy() {
		p.transmit(pkt, inPort)
		return
	}
	p.queues[pkt.Class].push(pkt, inPort)
	p.kick()
}

// Paused reports the PFC pause state of a class.
func (p *EgressPort) Paused(class int) bool { return p.paused[class] }

// SetPaused applies a PFC PAUSE (true) or RESUME (false) for a class, as
// commanded by the downstream device. Pause takes effect between packets.
func (p *EgressPort) SetPaused(class int, paused bool) {
	if p.paused[class] == paused {
		return
	}
	p.paused[class] = paused
	if class == ClassData {
		if paused {
			p.pausedSince = p.eng.Now()
			p.pauseCounted = true
		} else if p.pauseCounted {
			d := p.eng.Now() - p.pausedSince
			p.pausedAccum += d
			p.pausedTotal += d
			p.pauseCounted = false
		}
	}
	if !paused {
		p.kick()
		if p.onResume != nil {
			p.onResume(class)
		}
	}
}

// TakePausedTime returns the class-0 pause duration accumulated since the
// previous call and resets the accumulator. A port paused across the call
// contributes its elapsed pause so far.
func (p *EgressPort) TakePausedTime() eventsim.Time {
	if p.pauseCounted {
		now := p.eng.Now()
		p.pausedAccum += now - p.pausedSince
		p.pausedTotal += now - p.pausedSince
		p.pausedSince = now
	}
	v := p.pausedAccum
	p.pausedAccum = 0
	return v
}

// TotalPausedTime reports the cumulative class-0 pause duration since
// construction, without resetting anything: closed pause intervals
// plus the elapsed portion of a pause still in progress. Safe to read
// alongside TakePausedTime — the two never double- or under-count.
func (p *EgressPort) TotalPausedTime() eventsim.Time {
	if p.pauseCounted {
		return p.pausedTotal + (p.eng.Now() - p.pausedSince)
	}
	return p.pausedTotal
}

// TakeTxDataBytes returns class-0 bytes transmitted since the previous
// call and resets the counter (monitor-interval throughput sampling).
func (p *EgressPort) TakeTxDataBytes() int64 {
	v := p.Stats.TxDataBytes
	p.Stats.TxDataBytes = 0
	return v
}

// SendPFC emits a PAUSE or RESUME control frame to the peer. PFC frames
// bypass the queues; they only pay serialization plus propagation.
func (p *EgressPort) SendPFC(pause bool, class int) {
	if p.peer == nil {
		panic("netdev: SendPFC before SetPeer")
	}
	frame := p.pool.Get()
	frame.Kind, frame.WireBytes = KindPFC, CtrlFrameBytes
	frame.Class, frame.Pause, frame.PauseClass = ClassCtrl, pause, uint8(class)
	frame.SentAt = p.eng.Now()
	p.Stats.PFCSent++
	p.putOnWire(frame, frame.SentAt+p.serialization(CtrlFrameBytes)+p.prop)
}

// kick serves the highest-priority eligible queue: at once when the port is
// free, else from a serialization-done event at busyUntil. Every change
// that can make queued traffic eligible (Enqueue, RESUME, link up) ends
// here, which is what keeps a free port's queues free of eligible traffic.
func (p *EgressPort) kick() {
	if p.txArmed {
		return
	}
	class := p.eligible()
	if class < 0 {
		return
	}
	if p.eng.Now() < p.busyUntil {
		p.armTxDone()
		return
	}
	pkt := p.queues[class].pop()
	p.transmit(pkt, int(pkt.inPort))
}

// eligible picks the class to serve next — control first, then unpaused
// data — or -1 when nothing can go. A down link serves nothing.
func (p *EgressPort) eligible() int {
	if !p.up {
		return -1
	}
	if !p.paused[ClassCtrl] && !p.queues[ClassCtrl].empty() {
		return ClassCtrl
	}
	if !p.paused[ClassData] && !p.queues[ClassData].empty() {
		return ClassData
	}
	return -1
}

// transmit starts serializing pkt on a free port: the ECN decision, the
// counters and the hand-over to the wire all happen now, and the packet
// arrives serialization + propagation later.
func (p *EgressPort) transmit(pkt *Packet, inPort int) {
	if p.peer == nil {
		panic("netdev: transmit before SetPeer")
	}
	wire := int64(pkt.WireBytes)
	if pkt.Class == ClassData {
		if p.marker != nil && pkt.Kind != KindPFC {
			// Mark against the depth including the departing packet: the
			// packet experienced this queue.
			depth := p.queues[ClassData].bytes + wire
			if prob := p.marker(depth); prob > 0 && p.coin(pkt) < prob {
				pkt.ECNMarked = true
				p.Stats.ECNMarked++
			}
		}
		p.Stats.TxDataBytes += wire
	}
	p.Stats.TxPackets++
	p.Stats.TxBytes += wire
	ser := p.serialization(int(pkt.WireBytes))
	p.busyUntil = p.eng.Now() + ser
	watch := p.sw != nil && p.sw.departing(int(p.index), pkt, inPort, p.busyUntil)
	p.putOnWire(pkt, p.busyUntil+p.prop)
	if watch || p.eligible() >= 0 {
		p.armTxDone()
	}
}

// coin is the uniform [0,1) draw that decides whether this port marks pkt:
// a function of the port's seed and the packet's identity, not the next value
// of a stream, so a reordered tie can change the depth a packet sees but
// cannot hand its coin to a neighbour. A data segment is (FlowID, Seq) with
// SentAt zero; a probe always has Seq zero and is told apart by SentAt.
func (p *EgressPort) coin(pkt *Packet) float64 {
	h := splitmix.Fold(splitmix.Fold(p.seed, pkt.FlowID), uint64(pkt.Seq)^uint64(pkt.SentAt))
	return float64(h>>11) / (1 << 53)
}

// armTxDone schedules the serialization-done event for the packet on the
// transmitter.
func (p *EgressPort) armTxDone() {
	p.txArmed = true
	p.Stats.TxTimers++
	p.eng.Schedule(p.busyUntil, p.txDoneFn)
}

// watchDeparture makes the packet now serializing, if any, end in a
// serialization-done event, so the owning switch settles its release on
// time.
func (p *EgressPort) watchDeparture() {
	if !p.txArmed && p.eng.Now() < p.busyUntil {
		p.armTxDone()
	}
}

// txDone is the persistent serialization-done handler: the port is free
// again, the owner settles what has left, and the next packet starts.
func (p *EgressPort) txDone() {
	p.txArmed = false
	if p.sw != nil {
		p.sw.settle()
	}
	p.kick()
}

// putOnWire starts pkt's crossing; it lands at the peer at time at. The
// wire stays in landing order, ties in the order their events were armed,
// so the member each landFn event lands is the one due then. Appending keeps
// that order unless the tail lands after at; then pkt goes ahead of the
// first member that does.
func (p *EgressPort) putOnWire(pkt *Packet, at eventsim.Time) {
	p.eng.Schedule(at, p.landFn)
	switch tail := p.wireTail; {
	case tail == nil:
		p.wire, p.wireTail = pkt, pkt
	case !p.landsAfter(tail, at):
		tail.next, p.wireTail = pkt, pkt
	default:
		link := &p.wire
		for !p.landsAfter(*link, at) {
			link = &(*link).next
		}
		pkt.next, *link = *link, pkt
	}
}

// landsAfter reports whether m, on the wire, lands after at, the landing
// time being added now. A PFC frame skips the transmitter and lands a
// frame's serialization plus prop after it was sent (SentAt). Every other
// member went through the transmitter, which starts a packet no earlier than
// the one before it ends, so only the last one transmitted can land after a
// frame: the tail, at busyUntil + prop. When at belongs to a transmitted
// packet, busyUntil is already that packet's and no such member lands later.
func (p *EgressPort) landsAfter(m *Packet, at eventsim.Time) bool {
	if m.Kind == KindPFC {
		return m.SentAt+p.serialization(CtrlFrameBytes)+p.prop > at
	}
	return m == p.wireTail && p.busyUntil+p.prop > at
}

// land is the persistent arrival handler: the head of the wire reaches the
// peer.
func (p *EgressPort) land() {
	pkt := p.wire
	p.wire = pkt.next
	if p.wire == nil {
		p.wireTail = nil
	}
	pkt.next = nil
	p.peer.Receive(pkt, int(p.peerPort))
}

// InFlightPackets counts packets this port currently owns: queued in a
// class FIFO, or on the wire — where a packet is from the start of its
// serialization until it arrives. sim.Network sums this over every port to
// check the packet-pool leak invariant Fresh+Recycled == Puts + in-flight.
func (p *EgressPort) InFlightPackets() int {
	n := 0
	for pkt := p.wire; pkt != nil; pkt = pkt.next {
		n++
	}
	for c := range p.queues {
		n += p.queues[c].n
	}
	return n
}
