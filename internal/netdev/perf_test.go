package netdev

import (
	"testing"
	"unsafe"

	"repro/internal/eventsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// poolSink terminates packets the way a host RNIC does: count, bump a
// telemetry counter (the forward path must stay zero-alloc with the
// instrumentation that production devices run per packet), and recycle.
type poolSink struct {
	pool     *PacketPool
	counter  *telemetry.Counter
	received int64
	bytes    int64
}

func (s *poolSink) Receive(pkt *Packet, inPort int) {
	s.received++
	s.bytes += int64(pkt.WireBytes)
	if s.counter != nil {
		s.counter.Inc()
	}
	s.pool.Put(pkt)
}

// forwardRig is a minimal one-hop data path: pooled packets enqueued on an
// egress port, serialized, propagated, and sunk back into the pool.
type forwardRig struct {
	eng  *eventsim.Engine
	pool *PacketPool
	port *EgressPort
	sink *poolSink
}

func newForwardRig(counter *telemetry.Counter) *forwardRig {
	eng := eventsim.NewEngine(1)
	pool := NewPacketPool()
	port := NewEgressPort(eng, 100e9, 1000, PortSeed(1, 0, 0))
	port.SetPacketPool(pool)
	sink := &poolSink{pool: pool, counter: counter}
	port.SetPeer(sink, 0)
	return &forwardRig{eng: eng, pool: pool, port: port, sink: sink}
}

// sendOne pushes one pooled data packet through the whole path: Enqueue →
// transmit → land → sink → pool.Put.
func (r *forwardRig) sendOne(seq int64) {
	pkt := r.pool.NewDataPacket(1, 0, 1, seq, DefaultMTU, false)
	r.port.Enqueue(pkt, -1)
	r.eng.Run()
}

// TestPortForwardZeroAlloc pins the acceptance criterion for the packet
// free-lists: once the pool and the engine's event slab are warm,
// forwarding a data packet — including the per-packet telemetry counter
// increment — allocates nothing.
func TestPortForwardZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	rig := newForwardRig(reg.Counter("test_rx_packets_total", "packets sunk by the test rig"))
	for i := int64(0); i < 256; i++ {
		rig.sendOne(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rig.sendOne(0)
	})
	if allocs != 0 {
		t.Fatalf("data-packet forward path allocates %.1f per packet in steady state, want 0", allocs)
	}
	if rig.pool.Recycled == 0 {
		t.Fatal("pool never recycled a packet; sink is not returning them")
	}
}

// TestPacketPoolRecycles checks the pool contract: Put zeroes, Get reuses
// LIFO, nil pools degrade to plain allocation.
func TestPacketPoolRecycles(t *testing.T) {
	pool := NewPacketPool()
	a := pool.NewDataPacket(7, 1, 2, 100, DefaultMTU, true)
	pool.Put(a)
	if a.FlowID != 0 || a.WireBytes != 0 || a.Last {
		t.Fatal("Put did not zero the packet")
	}
	b := pool.Get()
	if b != a {
		t.Fatal("Get did not reuse the recycled packet")
	}
	if pool.Recycled != 1 || pool.Fresh != 1 {
		t.Fatalf("Recycled=%d Fresh=%d, want 1/1", pool.Recycled, pool.Fresh)
	}
	var nilPool *PacketPool
	if nilPool.Get() == nil {
		t.Fatal("nil pool Get returned nil")
	}
	nilPool.Put(&Packet{}) // must not panic
}

// BenchmarkPortForward measures the full per-packet data-path cost — queue,
// serialize, propagate, sink, recycle. Each packet finds the port free, so
// it costs one engine event, its landing, plus the pool round-trip.
func BenchmarkPortForward(b *testing.B) {
	rig := newForwardRig(nil)
	for i := int64(0); i < 256; i++ {
		rig.sendOne(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.sendOne(int64(i))
	}
	b.StopTimer()
	b.ReportMetric(float64(rig.sink.bytes)/b.Elapsed().Seconds()/1e9, "simGB/s")
}

// TestPacketSizeClass pins the packet inside Go's 64-byte size class, one
// aligned cache line. The one link, next, threads the packet through an
// egress queue while it waits and through the wire's landing order while it
// crosses (EgressPort.land), so no port keeps a backing array sized by its
// deepest backlog or its wire's BDP and no packet carries an arrival handler
// of its own. Byte counts and the ingress port are int32, which holds the
// 300 KB synthetic packets some tests feed; five bytes are spare.
func TestPacketSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 64 {
		t.Fatalf("Packet is %d bytes, want <= 64", size)
	}
}

// TestEgressPortSizeClass pins the port inside Go's 288-byte size class:
// the 4096-host CLOS builds 10 240 of them, so a field that pushes the port
// into the 320-byte class shows up in the fabric's resident memory.
func TestEgressPortSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(EgressPort{}); size > 288 {
		t.Fatalf("EgressPort is %d bytes, want <= 288", size)
	}
}

// lastSink remembers the latest arrival without allocating.
type lastSink struct {
	n, port int
	pkt     *Packet
}

func (s *lastSink) Receive(pkt *Packet, inPort int) { s.n, s.port, s.pkt = s.n+1, inPort, pkt }

// TestPutZeroesThePacket pins what survives recycling: nothing. After Put
// the packet equals the zero Packet, a recycled packet's crossing allocates
// nothing, and it lands at the peer of the port it crosses now, not the one
// it crossed before.
func TestPutZeroesThePacket(t *testing.T) {
	eng := eventsim.NewEngine(1)
	pool := NewPacketPool()
	var sinks [2]lastSink
	var ports [2]*EgressPort
	for i := range ports {
		ports[i] = NewEgressPort(eng, 100e9, 1000, PortSeed(1, 0, i))
		ports[i].SetPeer(&sinks[i], 10+i)
	}
	pkt := pool.NewDataPacket(7, 1, 2, 100, DefaultMTU, true)
	pkt.SentAt, pkt.ECNMarked, pkt.TOSMarked = 5, true, true
	ports[0].Enqueue(pkt, -1)
	eng.Run()
	if sinks[0].n != 1 || sinks[0].port != 10 || sinks[0].pkt != pkt {
		t.Fatalf("first crossing: %d arrivals on port %d", sinks[0].n, sinks[0].port)
	}
	pool.Put(pkt)
	if *pkt != (Packet{}) {
		t.Fatalf("Put left data behind: %+v", *pkt)
	}

	again := pool.NewDataPacket(8, 3, 4, 0, DefaultMTU, false)
	if again != pkt {
		t.Fatal("Get did not reuse the recycled packet")
	}
	allocs := testing.AllocsPerRun(10, func() {
		ports[1].Enqueue(again, -1)
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("a recycled packet's crossing allocates %.1f, want 0", allocs)
	}
	if sinks[0].n != 1 || sinks[1].n != 11 || sinks[1].port != 11 || sinks[1].pkt != again {
		t.Errorf("recycled packet: %d arrivals at the old peer, %d at the new on port %d; want 1, 11, 11",
			sinks[0].n, sinks[1].n, sinks[1].port)
	}
	if ports[0].InFlightPackets() != 0 || ports[1].InFlightPackets() != 0 {
		t.Errorf("in flight after drain: %d, %d", ports[0].InFlightPackets(), ports[1].InFlightPackets())
	}
}

// refRoutePort is the list-building selection routePort replaced: gather
// the live next hops, fall back to all of them when none is up, index by
// flow hash.
func refRoutePort(s *Switch, pkt *Packet) int {
	hops := s.topo.NextHops(s.node, pkt.Dst)
	var live []int
	for _, h := range hops {
		if s.ports[h].LinkUp() {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		live = hops
	}
	return live[ecmpHash(pkt.FlowID, uint64(s.node))%uint64(len(live))]
}

// TestRoutePortWideECMP drives a ToR with 16 uplinks — wider than any
// fixed scratch array routePort once appended past — and checks the
// choice is allocation-free and, for every flow and link state, the port
// the live-list selection picks.
func TestRoutePortWideECMP(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		NumToR: 2, NumLeaf: 16, HostsPerToR: 1,
		HostLinkBps: 100e9, FabricLinkBps: 100e9, PropDelay: eventsim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tor := topo.ToRs()[0]
	sw := NewSwitch(eventsim.NewEngine(1), topo, tor, DefaultSwitchConfig(), defaultParamsPtr)
	pkt := NewDataPacket(0, topo.Hosts()[0], topo.Hosts()[1], 0, DefaultMTU, false)
	hops := topo.NextHops(tor, pkt.Dst)
	if len(hops) != 16 {
		t.Fatalf("ECMP width = %d, want 16", len(hops))
	}
	// Bit i of a mask cuts the i-th uplink: all up, one down, scattered,
	// one survivor, all down.
	for _, down := range []uint16{0, 1 << 5, 0xa5a5, 0xfffe, 0x7fff, 0xffff} {
		for i, h := range hops {
			sw.Port(h).SetLinkUp(down&(1<<i) == 0)
		}
		for flow := uint64(0); flow < 10000; flow++ {
			pkt.FlowID = flow
			if got, want := sw.routePort(pkt), refRoutePort(sw, pkt); got != want {
				t.Fatalf("down=%#04x flow %d: routePort = %d, live-list selection = %d", down, flow, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(1000, func() { sw.routePort(pkt) }); allocs != 0 {
			t.Fatalf("down=%#04x: routePort allocates %.1f per call, want 0", down, allocs)
		}
	}
}
