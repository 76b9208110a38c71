// Package netdev models the RoCEv2 data plane: packets, rate-limited
// egress ports with priority queues, PFC PAUSE/RESUME, and shared-buffer
// switches that ECN-mark per the DCQCN CP law.
//
// Modeling conventions (matching common NS-3 RDMA models):
//
//   - Two traffic classes share each link: class 0 carries RDMA data and
//     is lossless (PFC-protected, ECN-marked); class 1 carries CNPs and
//     probe replies with strict priority and is neither marked nor paused.
//   - PFC frames are MAC control frames: they bypass egress queues and the
//     transmitter, landing a 64-byte serialization plus propagation after
//     they are sent, and delay no other frame.
//   - ECN marking happens at dequeue against the instantaneous class-0
//     egress queue depth.
package netdev

import (
	"repro/internal/eventsim"
	"repro/internal/splitmix"
	"repro/internal/topology"
)

// Traffic classes.
const (
	// ClassData is lossless RDMA traffic: PFC-paused and ECN-marked.
	ClassData = 0
	// ClassCtrl is strict-priority control traffic (CNPs, probe replies).
	ClassCtrl = 1
	// NumClasses is the number of per-port queues.
	NumClasses = 2
)

// Kind discriminates packet roles.
type Kind uint8

const (
	// KindData is a segment of an RDMA message.
	KindData Kind = iota
	// KindCNP is a DCQCN congestion notification (NP → RP).
	KindCNP
	// KindProbe is an RTT probe riding the data class.
	KindProbe
	// KindProbeReply answers a probe on the control class.
	KindProbeReply
	// KindPFC is a PAUSE/RESUME control frame.
	KindPFC
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindCNP:
		return "cnp"
	case KindProbe:
		return "probe"
	case KindProbeReply:
		return "probe-reply"
	case KindPFC:
		return "pfc"
	default:
		return "unknown"
	}
}

// Wire sizes in bytes.
const (
	// HeaderBytes is the per-packet overhead (Ethernet + IP + UDP + BTH).
	HeaderBytes = 48
	// DefaultMTU is the RoCE payload size per data packet.
	DefaultMTU = 1000
	// CtrlFrameBytes is the wire size of CNPs, probes, and PFC frames.
	CtrlFrameBytes = 64
)

// Packet is one frame in flight, created per segment and passed by
// pointer; devices must not retain one after forwarding it. Packets are
// recycled through a PacketPool when the terminating device has one, so a
// sunk or dropped packet's memory may be reused by an unrelated later
// packet.
type Packet struct {
	FlowID uint64
	Src    topology.NodeID
	Dst    topology.NodeID

	// Seq is the first payload byte's offset within the message.
	Seq int64
	// PayloadBytes is the RDMA payload carried; WireBytes includes headers.
	PayloadBytes int32
	WireBytes    int32

	// SentAt is stamped by the sender, for RTT measurement and, on a PFC
	// frame, to know when it lands (EgressPort.landsAfter).
	SentAt eventsim.Time

	// next links the packet into the one list that holds it: an egress
	// queue, or the wire it is crossing (EgressPort.land). A packet is
	// queued or on a wire, never both, so one link serves both and neither
	// holds memory beyond its current members. inPort is the ingress port a
	// queued packet came in on (−1 for locally generated traffic), which the
	// owning switch needs to release ingress PFC accounting when it leaves.
	next   *Packet
	inPort int32

	// The one-byte fields sit together so they share one word
	// (TestPacketSizeClass).
	Kind  Kind
	Class uint8

	// ECNMarked is the CE codepoint set by a congested switch.
	ECNMarked bool
	// TOSMarked is Paraleon's "inserted into a sketch already" bit
	// (Keypoint 1, §III-B).
	TOSMarked bool
	// Last marks the final segment of a message.
	Last bool

	// PFC fields (KindPFC only): pause or resume for PauseClass.
	Pause      bool
	PauseClass uint8
}

// maxPooledPackets bounds a PacketPool's free-list so a transient burst
// cannot pin an unbounded number of dead packets.
const maxPooledPackets = 1 << 16

// PacketPool is a LIFO free-list of packets. Devices that terminate a
// packet's life — a host sinking it, a switch dropping it — return it with
// Put, and every construction path (data segments, CNPs, probes, PFC
// frames) draws from Get, so the per-packet forward path allocates nothing
// in steady state.
//
// The pool is intentionally not safe for concurrent use: a simulation is
// single-threaded per engine, and each sim.Network owns one pool, so
// parallel experiment arms never share one. A nil *PacketPool is valid
// everywhere and degrades to plain allocation (Get) and dropping (Put),
// which keeps hand-wired test setups working unchanged.
type PacketPool struct {
	free []*Packet

	// Recycled and Fresh count Get calls served from the free-list and by
	// allocation; their ratio is the pool hit rate.
	Recycled, Fresh int64
	// Puts counts packets returned to the pool (whether or not the
	// free-list had room to keep them). The leak invariant every Get must
	// eventually balance is Fresh+Recycled == Puts + packets still in
	// flight; sim.Network.CheckPoolInvariant walks the fabric to count the
	// in-flight term.
	Puts int64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed packet, recycling a dead one when available.
func (p *PacketPool) Get() *Packet {
	if p == nil || len(p.free) == 0 {
		if p != nil {
			p.Fresh++
		}
		return &Packet{}
	}
	n := len(p.free) - 1
	pkt := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	p.Recycled++
	return pkt
}

// Put recycles a packet whose life ended. The whole packet is zeroed here,
// so a late use-after-Put reads zeroes rather than another packet's fields.
// Callers must not retain pkt afterwards.
func (p *PacketPool) Put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	p.Puts++
	*pkt = Packet{}
	if len(p.free) >= maxPooledPackets {
		return
	}
	p.free = append(p.free, pkt)
}

// NewDataPacket builds a data segment of a flow from the pool.
func (p *PacketPool) NewDataPacket(flow uint64, src, dst topology.NodeID, seq int64, payload int, last bool) *Packet {
	pkt := p.Get()
	pkt.Kind, pkt.FlowID, pkt.Src, pkt.Dst = KindData, flow, src, dst
	pkt.Seq, pkt.PayloadBytes, pkt.WireBytes = seq, int32(payload), int32(payload+HeaderBytes)
	pkt.Class, pkt.Last = ClassData, last
	return pkt
}

// NewCNP builds a congestion notification for flow from the pool, sent
// from the NP back to the RP (src is the NP's host).
func (p *PacketPool) NewCNP(flow uint64, src, dst topology.NodeID) *Packet {
	pkt := p.Get()
	pkt.Kind, pkt.FlowID, pkt.Src, pkt.Dst = KindCNP, flow, src, dst
	pkt.WireBytes, pkt.Class = CtrlFrameBytes, ClassCtrl
	return pkt
}

// NewDataPacket builds a data segment of a flow without a pool.
func NewDataPacket(flow uint64, src, dst topology.NodeID, seq int64, payload int, last bool) *Packet {
	return (*PacketPool)(nil).NewDataPacket(flow, src, dst, seq, payload, last)
}

// NewCNP builds a pool-less congestion notification for flow, sent from
// the NP back to the RP (src is the NP's host).
func NewCNP(flow uint64, src, dst topology.NodeID) *Packet {
	return (*PacketPool)(nil).NewCNP(flow, src, dst)
}

// Device is anything that terminates a link: a switch or a host RNIC.
// Receive is invoked by the engine when a packet fully arrives on the
// device's local port inPort.
type Device interface {
	Receive(pkt *Packet, inPort int)
}

// ecmpHash mixes a flow ID into a uniform 64-bit value (splitmix64 final
// avalanche), used to pick among equal-cost next hops so a flow sticks to
// one path.
func ecmpHash(flow uint64, salt uint64) uint64 {
	return splitmix.Next(flow + salt)
}
