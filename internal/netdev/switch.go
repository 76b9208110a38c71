package netdev

import (
	"fmt"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/topology"
)

// SwitchConfig sets the buffer-management behaviour shared by all ports of
// a switch.
type SwitchConfig struct {
	// BufferBytes is the shared packet buffer (paper: 12 MB).
	BufferBytes int64
	// PFCAlpha is the dynamic-threshold α: an ingress port may occupy up
	// to α·(free buffer) before PAUSE is sent upstream (§V: typically 1/8).
	PFCAlpha float64
	// PFCResumeOffset is the hysteresis below the pause threshold before
	// RESUME is sent.
	PFCResumeOffset int64
}

// DefaultSwitchConfig mirrors the paper's simulation setup.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{
		BufferBytes:     12 << 20,
		PFCAlpha:        1.0 / 8.0,
		PFCResumeOffset: 2 * (DefaultMTU + HeaderBytes),
	}
}

// SwitchStats are cumulative device-level counters.
type SwitchStats struct {
	RxPackets   int64
	Drops       int64
	PFCTriggers int64
	PFCReceived int64
}

// Switch is a shared-buffer output-queued switch with per-port DCQCN ECN
// marking (the CP) and ingress-based PFC flow control. Every port marks by
// the vector NewSwitch was given, so a tuner retargets Kmin/Kmax/Pmax for
// this switch by writing through that pointer.
type Switch struct {
	eng  *eventsim.Engine
	topo *topology.Topology
	node topology.NodeID
	cfg  SwitchConfig

	ports        []*EgressPort
	ingressBytes []int64
	pauseSent    []bool
	totalUsed    int64

	// releases holds, sorted by due time from relHead on, the buffer
	// releases of packets that have started to serialize. settle applies
	// the due ones; every read of totalUsed or ingressBytes settles first,
	// so a release need not cost an event of its own.
	releases []release
	relHead  int

	// pool recycles packets this switch terminates (drops, sunk PFC
	// frames) and supplies its ports' control frames. May be nil.
	pool *PacketPool

	// Tap, if set, observes every admitted class-0 data packet at
	// ingress. Paraleon's sketch measurement points attach here.
	Tap func(pkt *Packet, now eventsim.Time)

	Stats SwitchStats
}

// release is the buffer a departing packet frees once its last bit has left.
// It carries sizes, not the packet: the packet may be delivered, sunk and
// recycled before the release is settled.
type release struct {
	at      eventsim.Time
	wire    int32
	inPort  int16
	outPort int16
}

// NewSwitch builds the device model for node within topo. Egress ports are
// created per the node's topology ports but remain unwired; call WirePort
// for each once the peer devices exist. NewSwitch calls params once and
// marks by the vector it returns.
func NewSwitch(eng *eventsim.Engine, topo *topology.Topology, node topology.NodeID, cfg SwitchConfig, params func() *dcqcn.Params) *Switch {
	n := &topo.Nodes[node]
	sp := params()
	s := &Switch{
		eng: eng, topo: topo, node: node, cfg: cfg,
		ingressBytes: make([]int64, len(n.Ports)),
		pauseSent:    make([]bool, len(n.Ports)),
	}
	s.ports = make([]*EgressPort, len(n.Ports))
	for i, lid := range n.Ports {
		l := &topo.Links[lid]
		p := NewEgressPort(eng, l.RateBps, l.PropDelay, PortSeed(eng.Seed(), node, i))
		p.SetMarker(sp.MarkProbability)
		p.sw, p.index = s, int32(i)
		s.ports[i] = p
	}
	return s
}

// SetPacketPool installs the free-list dead packets return to; it also
// covers every egress port of the switch.
func (s *Switch) SetPacketPool(pool *PacketPool) {
	s.pool = pool
	for _, p := range s.ports {
		p.SetPacketPool(pool)
	}
}

// NodeID reports which topology node this switch realizes.
func (s *Switch) NodeID() topology.NodeID { return s.node }

// Port returns the egress port at local index i.
func (s *Switch) Port(i int) *EgressPort { return s.ports[i] }

// NumPorts reports the port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// WirePort connects local port i to the peer device's port.
func (s *Switch) WirePort(i int, peer Device, peerPort int) {
	s.ports[i].SetPeer(peer, peerPort)
}

// BufferUsed reports the class-0 bytes currently buffered.
func (s *Switch) BufferUsed() int64 {
	s.settle()
	return s.totalUsed
}

// IngressBytes reports the class-0 bytes buffered that arrived on port i.
func (s *Switch) IngressBytes(i int) int64 {
	s.settle()
	return s.ingressBytes[i]
}

// Receive implements Device: route, admit, and enqueue.
func (s *Switch) Receive(pkt *Packet, inPort int) {
	if pkt.Kind == KindPFC {
		s.Stats.PFCReceived++
		s.ports[inPort].SetPaused(int(pkt.PauseClass), pkt.Pause)
		s.pool.Put(pkt)
		return
	}
	s.Stats.RxPackets++
	out := s.routePort(pkt)
	if pkt.Class == ClassData {
		s.settle()
		wire := int64(pkt.WireBytes)
		if s.totalUsed+wire > s.cfg.BufferBytes {
			// Lossless fabrics should pause before this point; a drop
			// here means PFC headroom was exhausted.
			s.Stats.Drops++
			s.pool.Put(pkt)
			return
		}
		s.totalUsed += wire
		s.ingressBytes[inPort] += wire
		s.maybePause(inPort)
		if s.Tap != nil {
			s.Tap(pkt, s.eng.Now())
		}
		s.ports[out].Enqueue(pkt, inPort)
		return
	}
	// Control class: tiny strict-priority traffic, not buffer-accounted.
	s.ports[out].Enqueue(pkt, -1)
}

// routePort picks the ECMP next hop for pkt. Next hops whose link is
// down are excluded — the switch reroutes over the surviving members of
// the ECMP group, as a fabric with BFD/LACP link detection would. When
// every next hop is down the packet still queues on its hashed port and
// waits out the outage (the fabric is lossless; see EgressPort.SetLinkUp).
func (s *Switch) routePort(pkt *Packet) int {
	hops := s.topo.NextHops(s.node, pkt.Dst)
	if len(hops) == 0 {
		panic(fmt.Sprintf("netdev: switch %d has no route to %d", s.node, pkt.Dst))
	}
	if len(hops) == 1 {
		return hops[0]
	}
	// Pick the k-th live hop without building the live list: an ECMP
	// group may be any width and this runs once per packet-hop.
	live := 0
	for _, h := range hops {
		if s.ports[h].LinkUp() {
			live++
		}
	}
	hash := ecmpHash(pkt.FlowID, uint64(s.node))
	if live == 0 || live == len(hops) {
		return hops[hash%uint64(len(hops))]
	}
	k := int(hash % uint64(live))
	for _, h := range hops {
		if s.ports[h].LinkUp() {
			if k == 0 {
				return h
			}
			k--
		}
	}
	panic("netdev: live next hop vanished mid-selection")
}

// pauseThreshold is the dynamic threshold α·(B − used).
func (s *Switch) pauseThreshold() int64 {
	free := s.cfg.BufferBytes - s.totalUsed
	if free < 0 {
		free = 0
	}
	return int64(s.cfg.PFCAlpha * float64(free))
}

func (s *Switch) maybePause(inPort int) {
	if s.pauseSent[inPort] {
		return
	}
	if s.ingressBytes[inPort] >= s.pauseThreshold() {
		s.pauseSent[inPort] = true
		s.Stats.PFCTriggers++
		s.ports[inPort].SendPFC(true, ClassData)
		// A packet from this ingress that is serializing right now may be
		// the one whose release sends RESUME: it must settle on time.
		for _, r := range s.releases[s.relHead:] {
			if int(r.inPort) == inPort {
				s.ports[r.outPort].watchDeparture()
			}
		}
	}
}

// departing is called by egress port out at the start of a transmission
// that ends at time at. It records the release of the packet's buffer and
// reports whether the port must end the transmission with an event: while
// PAUSE is out on the packet's ingress, its release may be the one that
// sends RESUME, and RESUME leaves at the nanosecond the packet does.
func (s *Switch) departing(out int, pkt *Packet, inPort int, at eventsim.Time) bool {
	if pkt.Class != ClassData || inPort < 0 {
		return false
	}
	// Insert by due time. A transmission that starts later almost always
	// ends later, so the walk back from the tail is short.
	i := len(s.releases)
	s.releases = append(s.releases, release{})
	for ; i > s.relHead && s.releases[i-1].at > at; i-- {
		s.releases[i] = s.releases[i-1]
	}
	s.releases[i] = release{at: at, wire: int32(pkt.WireBytes), inPort: int16(inPort), outPort: int16(out)}
	return s.pauseSent[inPort]
}

// settle applies every release due by now, in due order: free shared
// buffer, release ingress accounting, and send RESUME when occupancy falls
// far enough.
func (s *Switch) settle() {
	now := s.eng.Now()
	for s.relHead < len(s.releases) && s.releases[s.relHead].at <= now {
		r := s.releases[s.relHead]
		s.relHead++
		wire, inPort := int64(r.wire), int(r.inPort)
		s.totalUsed -= wire
		s.ingressBytes[inPort] -= wire
		if s.pauseSent[inPort] {
			thr := s.pauseThreshold() - s.cfg.PFCResumeOffset
			if thr < 0 {
				thr = 0
			}
			if s.ingressBytes[inPort] <= thr {
				s.pauseSent[inPort] = false
				s.ports[inPort].SendPFC(false, ClassData)
			}
		}
	}
	if s.relHead == len(s.releases) {
		s.releases, s.relHead = s.releases[:0], 0
	} else if s.relHead >= 64 {
		// A busy switch always has a release pending: reclaim the head.
		s.releases = s.releases[:copy(s.releases, s.releases[s.relHead:])]
		s.relHead = 0
	}
}

// InFlightPackets sums in-flight packets over the switch's ports (pool
// leak accounting).
func (s *Switch) InFlightPackets() int {
	n := 0
	for _, p := range s.ports {
		n += p.InFlightPackets()
	}
	return n
}

// TakePausedTime sums and resets TakePausedTime over all ports: the
// λ_xoff numerator of the O_PFC utility term for this device.
func (s *Switch) TakePausedTime() eventsim.Time {
	var total eventsim.Time
	for _, p := range s.ports {
		total += p.TakePausedTime()
	}
	return total
}

// TotalPausedTime sums the ports' cumulative pause durations without
// resetting anything (flight-recorder sampling; see
// EgressPort.TotalPausedTime).
func (s *Switch) TotalPausedTime() eventsim.Time {
	var total eventsim.Time
	for _, p := range s.ports {
		total += p.TotalPausedTime()
	}
	return total
}
