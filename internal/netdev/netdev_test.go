package netdev

import (
	"runtime"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/topology"
)

// sink records arrivals for assertions.
type sink struct {
	pkts  []*Packet
	times []eventsim.Time
	ports []int
	eng   *eventsim.Engine
}

func (s *sink) Receive(pkt *Packet, inPort int) {
	s.pkts = append(s.pkts, pkt)
	s.ports = append(s.ports, inPort)
	if s.eng != nil {
		s.times = append(s.times, s.eng.Now())
	}
}

func TestFIFO(t *testing.T) {
	var q fifo
	if !q.empty() {
		t.Error("new fifo not empty")
	}
	for i := 0; i < 100; i++ {
		q.push(&Packet{WireBytes: 10, Seq: int64(i)}, i)
	}
	if q.bytes != 1000 || q.n != 100 {
		t.Errorf("bytes = %d, n = %d, want 1000, 100", q.bytes, q.n)
	}
	for i := 0; i < 100; i++ {
		pkt := q.pop()
		if pkt == nil || pkt.Seq != int64(i) || int(pkt.inPort) != i {
			t.Fatalf("pop %d: %+v", i, pkt)
		}
		if pkt.next != nil {
			t.Fatalf("pop %d left the packet linked", i)
		}
	}
	if q.pop() != nil {
		t.Error("pop on empty fifo succeeded")
	}
	if q.bytes != 0 || q.n != 0 || q.head != nil || q.tail != nil {
		t.Errorf("after drain: bytes = %d, n = %d, head %p, tail %p", q.bytes, q.n, q.head, q.tail)
	}
}

func TestFIFOInterleaved(t *testing.T) {
	var q fifo
	next := int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.push(&Packet{WireBytes: 1, Seq: int64(round*3 + i)}, -1)
		}
		for i := 0; i < 2; i++ {
			pkt := q.pop()
			if pkt == nil || pkt.Seq != next {
				t.Fatalf("round %d: got %+v, want seq %d", round, pkt, next)
			}
			next++
		}
	}
	if q.n != 50 || q.bytes != 50 {
		t.Errorf("n = %d, bytes = %d after 50 rounds, want 50, 50", q.n, q.bytes)
	}
}

// countSink counts arrivals and keeps none of them.
type countSink struct{ n int }

func (s *countSink) Receive(*Packet, int) { s.n++ }

// TestQueueMemoryIsSizedByBacklog pins that a port's queues hold memory in
// proportion to what is queued now, not to the deepest backlog they ever
// held: 50 000 packets pile up behind a PAUSE, drain, and the port keeps
// no trace of them. The slice-backed queue this replaced kept its backing
// array for the life of the port, and with it, past its compaction, stale
// pointers to packets that had already left: 3.3 MB retained here.
func TestQueueMemoryIsSizedByBacklog(t *testing.T) {
	const backlog = 50000
	eng := eventsim.NewEngine(1)
	p := NewEgressPort(eng, 100e9, eventsim.Microsecond, PortSeed(1, 0, 0))
	dst := &countSink{}
	p.SetPeer(dst, 0)
	// Warm the engine's event storage so only the queue is measured.
	for i := 0; i < 64; i++ {
		p.Enqueue(&Packet{Class: ClassData, WireBytes: 1048}, -1)
	}
	eng.Run()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p.SetPaused(ClassData, true)
	for i := 0; i < backlog; i++ {
		p.Enqueue(&Packet{Class: ClassData, WireBytes: 1048, Seq: int64(i)}, -1)
	}
	if got := p.InFlightPackets(); got != backlog {
		t.Fatalf("InFlightPackets = %d while paused, want %d", got, backlog)
	}
	p.SetPaused(ClassData, false)
	eng.Run()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)

	if dst.n != 64+backlog || p.InFlightPackets() != 0 || p.QueueBytes(ClassData) != 0 {
		t.Fatalf("drain: %d arrivals, %d in flight, %d bytes queued", dst.n, p.InFlightPackets(), p.QueueBytes(ClassData))
	}
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 64<<10 {
		t.Errorf("port retains %d B of heap after draining a %d-packet backlog, want <= 64 KB", retained, backlog)
	}
}

func newPort(t *testing.T, rate float64, prop eventsim.Time) (*eventsim.Engine, *EgressPort, *sink) {
	t.Helper()
	eng := eventsim.NewEngine(3)
	p := NewEgressPort(eng, rate, prop, PortSeed(3, 0, 0))
	dst := &sink{eng: eng}
	p.SetPeer(dst, 7)
	return eng, p, dst
}

func TestPortSerializationAndPropagation(t *testing.T) {
	// 1 Gbps, 1 µs propagation: a 1250-byte packet serializes in 10 µs.
	eng, p, dst := newPort(t, 1e9, eventsim.Microsecond)
	pkt := &Packet{Kind: KindData, Class: ClassData, WireBytes: 1250}
	p.Enqueue(pkt, -1)
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	want := 11 * eventsim.Microsecond
	if dst.times[0] != want {
		t.Errorf("arrival at %v, want %v", dst.times[0], want)
	}
	if dst.ports[0] != 7 {
		t.Errorf("arrival port %d, want 7", dst.ports[0])
	}
}

func TestPortBackToBackPacing(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, 0)
	for i := 0; i < 3; i++ {
		p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250, Seq: int64(i)}, -1)
	}
	eng.Run()
	if len(dst.times) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.times))
	}
	for i, want := range []eventsim.Time{10, 20, 30} {
		if dst.times[i] != want*eventsim.Microsecond {
			t.Errorf("packet %d at %v, want %vus", i, dst.times[i], want)
		}
	}
}

func TestPortStrictPriority(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, 0)
	// Fill data queue, then a control packet: control must overtake the
	// queued data (but not the in-flight packet).
	for i := 0; i < 3; i++ {
		p.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: 1250, Seq: int64(i)}, -1)
	}
	p.Enqueue(&Packet{Kind: KindCNP, Class: ClassCtrl, WireBytes: 64}, -1)
	eng.Run()
	if dst.pkts[0].Kind != KindData || dst.pkts[0].Seq != 0 {
		t.Errorf("first delivery %v seq %d, want in-flight data 0", dst.pkts[0].Kind, dst.pkts[0].Seq)
	}
	if dst.pkts[1].Kind != KindCNP {
		t.Errorf("second delivery %v, want CNP overtaking queued data", dst.pkts[1].Kind)
	}
}

func TestPortPauseResume(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, 0)
	p.SetPaused(ClassData, true)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1)
	eng.RunUntil(100 * eventsim.Microsecond)
	if len(dst.pkts) != 0 {
		t.Fatal("paused port transmitted")
	}
	// Control traffic still flows while data is paused.
	p.Enqueue(&Packet{Kind: KindCNP, Class: ClassCtrl, WireBytes: 64}, -1)
	eng.RunUntil(200 * eventsim.Microsecond)
	if len(dst.pkts) != 1 || dst.pkts[0].Kind != KindCNP {
		t.Fatalf("control did not bypass data pause: %d delivered", len(dst.pkts))
	}
	p.SetPaused(ClassData, false)
	eng.Run()
	if len(dst.pkts) != 2 {
		t.Fatalf("data not released after resume: %d delivered", len(dst.pkts))
	}
	paused := p.TakePausedTime()
	if paused != 200*eventsim.Microsecond {
		t.Errorf("TakePausedTime = %v, want 200us", paused)
	}
	if p.TakePausedTime() != 0 {
		t.Error("TakePausedTime did not reset")
	}
}

func TestPortPausedTimeWhileStillPaused(t *testing.T) {
	eng, p, _ := newPort(t, 1e9, 0)
	p.SetPaused(ClassData, true)
	eng.RunUntil(50 * eventsim.Microsecond)
	if got := p.TakePausedTime(); got != 50*eventsim.Microsecond {
		t.Errorf("mid-pause TakePausedTime = %v, want 50us", got)
	}
	eng.RunUntil(80 * eventsim.Microsecond)
	p.SetPaused(ClassData, false)
	if got := p.TakePausedTime(); got != 30*eventsim.Microsecond {
		t.Errorf("second TakePausedTime = %v, want 30us", got)
	}
}

func TestPortECNMarking(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, 0)
	p.SetMarker(func(depth int64) float64 {
		if depth > 2000 {
			return 1
		}
		return 0
	})
	// Four packets enqueued at once. The first is popped immediately with
	// an empty queue behind it (depth 1250, unmarked); the second departs
	// with two still queued (depth 3750, marked); the third with one
	// queued (depth 2500, marked); the last with an empty queue (1250,
	// unmarked).
	for i := 0; i < 4; i++ {
		p.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: 1250}, -1)
	}
	eng.Run()
	if dst.pkts[0].ECNMarked {
		t.Error("first packet marked despite empty queue")
	}
	if !dst.pkts[1].ECNMarked || !dst.pkts[2].ECNMarked {
		t.Error("deep-queue packets not marked")
	}
	if dst.pkts[3].ECNMarked {
		t.Error("shallow-queue packet marked")
	}
	if p.Stats.ECNMarked != 2 {
		t.Errorf("ECNMarked = %d, want 2", p.Stats.ECNMarked)
	}
}

func TestPortPFCBypassesQueue(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, 0)
	// Saturate with data, then a PFC frame must still arrive promptly.
	for i := 0; i < 100; i++ {
		p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1)
	}
	p.SendPFC(true, ClassData)
	eng.RunUntil(2 * eventsim.Microsecond)
	var sawPFC bool
	for _, pkt := range dst.pkts {
		if pkt.Kind == KindPFC {
			sawPFC = true
		}
	}
	if !sawPFC {
		t.Error("PFC frame did not bypass the data queue")
	}
}

func TestPortTakeTxDataBytes(t *testing.T) {
	eng, p, _ := newPort(t, 1e9, 0)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1000}, -1)
	p.Enqueue(&Packet{Kind: KindCNP, Class: ClassCtrl, WireBytes: 64}, -1)
	eng.Run()
	if got := p.TakeTxDataBytes(); got != 1000 {
		t.Errorf("TakeTxDataBytes = %d, want 1000 (control excluded)", got)
	}
	if p.TakeTxDataBytes() != 0 {
		t.Error("TakeTxDataBytes did not reset")
	}
}

// --- Switch ---

func defaultParamsPtr() *dcqcn.Params {
	p := dcqcn.DefaultParams()
	return &p
}

// testFabric builds a 2-host/1-ToR fabric with the hosts replaced by
// sinks, returning the switch and the sinks by host index.
func testFabric(t *testing.T, cfg SwitchConfig, params *dcqcn.Params) (*eventsim.Engine, *topology.Topology, *Switch, []*sink) {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		NumToR: 1, NumLeaf: 0, HostsPerToR: 2,
		HostLinkBps: 1e9, PropDelay: eventsim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventsim.NewEngine(5)
	sw := NewSwitch(eng, topo, topo.ToRs()[0], cfg, func() *dcqcn.Params { return params })
	sinks := make([]*sink, 2)
	for i, h := range topo.Hosts() {
		sinks[i] = &sink{eng: eng}
		// Host h connects on its port 0; find the switch-side port.
		l := topo.LinkAt(h, 0)
		_, swPort := l.Peer(h)
		sw.WirePort(swPort, sinks[i], 0)
	}
	return eng, topo, sw, sinks
}

// NewSwitch reads its vector once, and every port marks by it: a write in
// place, as sim.Network.ApplySwitchECN makes, retargets the marking law
// without another call.
func TestSwitchMarksByItsVector(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		NumToR: 1, NumLeaf: 0, HostsPerToR: 2,
		HostLinkBps: 1e9, PropDelay: eventsim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := dcqcn.DefaultParams()
	calls := 0
	sw := NewSwitch(eventsim.NewEngine(5), topo, topo.ToRs()[0], DefaultSwitchConfig(), func() *dcqcn.Params { calls++; return &p })
	depth := int64(800 << 10)
	for i := 0; i < sw.NumPorts(); i++ {
		if got, want := sw.Port(i).marker(depth), p.MarkProbability(depth); got != want || got == 0 {
			t.Fatalf("port %d marks %g at %d B, want %g", i, got, depth, want)
		}
	}
	p.KminBytes, p.KmaxBytes, p.PMax = 1000<<10, 2000<<10, 0.5
	for i := 0; i < sw.NumPorts(); i++ {
		if got := sw.Port(i).marker(depth); got != 0 {
			t.Fatalf("port %d marks %g at %d B under Kmin %d B", i, got, depth, p.KminBytes)
		}
		if got, want := sw.Port(i).marker(1500<<10), 0.25; got != want {
			t.Fatalf("port %d marks %g at 1500 KB, want %g", i, got, want)
		}
	}
	if calls != 1 {
		t.Fatalf("the params func ran %d times, want 1", calls)
	}
}

func TestSwitchForwardsToHost(t *testing.T) {
	eng, topo, sw, sinks := testFabric(t, DefaultSwitchConfig(), defaultParamsPtr())
	hosts := topo.Hosts()
	pkt := NewDataPacket(1, hosts[0], hosts[1], 0, 1000, true)
	sw.Receive(pkt, 0) // arrives on the port toward host 0
	eng.Run()
	if len(sinks[1].pkts) != 1 {
		t.Fatalf("host1 received %d packets, want 1", len(sinks[1].pkts))
	}
	if len(sinks[0].pkts) != 0 {
		t.Error("packet echoed to source host")
	}
	if sw.Stats.RxPackets != 1 {
		t.Errorf("RxPackets = %d, want 1", sw.Stats.RxPackets)
	}
	if sw.BufferUsed() != 0 {
		t.Errorf("buffer not released: %d bytes", sw.BufferUsed())
	}
}

func TestSwitchDropsWhenBufferFull(t *testing.T) {
	cfg := DefaultSwitchConfig()
	cfg.BufferBytes = 3000
	cfg.PFCAlpha = 1000 // effectively disable PFC so the drop path triggers
	eng, topo, sw, _ := testFabric(t, cfg, defaultParamsPtr())
	hosts := topo.Hosts()
	for i := 0; i < 5; i++ {
		sw.Receive(NewDataPacket(1, hosts[0], hosts[1], int64(i)*1000, 1000, false), 0)
	}
	if sw.Stats.Drops == 0 {
		t.Error("no drops with oversubscribed 3 KB buffer")
	}
	eng.Run()
	if sw.BufferUsed() != 0 {
		t.Errorf("buffer leak: %d bytes after drain", sw.BufferUsed())
	}
}

func TestSwitchPFCTriggerAndResume(t *testing.T) {
	cfg := DefaultSwitchConfig()
	cfg.BufferBytes = 100 << 10
	cfg.PFCAlpha = 0.05 // threshold ≈ 5 KB when empty
	eng, topo, sw, sinks := testFabric(t, cfg, defaultParamsPtr())
	hosts := topo.Hosts()
	for i := 0; i < 20; i++ {
		sw.Receive(NewDataPacket(1, hosts[0], hosts[1], int64(i)*1000, 1000, false), 0)
	}
	if sw.Stats.PFCTriggers == 0 {
		t.Fatal("PFC never triggered despite ingress over threshold")
	}
	eng.Run()
	// The PAUSE frame goes out the ingress port toward host 0.
	var pauses, resumes int
	for _, pkt := range sinks[0].pkts {
		if pkt.Kind == KindPFC {
			if pkt.Pause {
				pauses++
			} else {
				resumes++
			}
		}
	}
	if pauses == 0 {
		t.Error("no PAUSE frame reached the upstream host")
	}
	if resumes == 0 {
		t.Error("no RESUME after the queue drained")
	}
}

// TestQueuedPacketReleasesItsIngress pins that a packet queued behind a
// busy egress port carries its own ingress port through the queue: when it
// departs, the switch releases the buffer it holds against that ingress
// port, not against the one of the packet ahead of it.
func TestQueuedPacketReleasesItsIngress(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		NumToR: 1, NumLeaf: 0, HostsPerToR: 3,
		HostLinkBps: 1e9, PropDelay: eventsim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventsim.NewEngine(5)
	sw := NewSwitch(eng, topo, topo.ToRs()[0], DefaultSwitchConfig(), defaultParamsPtr)
	hosts := topo.Hosts()
	swPort := make([]int, len(hosts))
	for i, h := range hosts {
		_, swPort[i] = topo.LinkAt(h, 0).Peer(h)
		sw.WirePort(swPort[i], &sink{}, 0)
	}
	// Hosts 0 and 2 each send one packet to host 1: the first goes straight
	// onto the wire, the second queues behind it.
	sw.Receive(NewDataPacket(1, hosts[0], hosts[1], 0, 1000, false), swPort[0])
	sw.Receive(NewDataPacket(2, hosts[2], hosts[1], 0, 1000, false), swPort[2])
	if got := sw.Port(swPort[1]).QueueBytes(ClassData); got != 1048 {
		t.Fatalf("queued %d B behind the busy port, want 1048", got)
	}
	// 1048 B serialize in 8384 ns at 1 Gbps: at 9 µs the first packet has
	// left and the second is on the wire.
	eng.RunUntil(9 * eventsim.Microsecond)
	if a, c := sw.IngressBytes(swPort[0]), sw.IngressBytes(swPort[2]); a != 0 || c != 1048 {
		t.Fatalf("after the first departure: ingress %d B and %d B, want 0 and 1048", a, c)
	}
	eng.Run()
	if a, c := sw.IngressBytes(swPort[0]), sw.IngressBytes(swPort[2]); a != 0 || c != 0 {
		t.Fatalf("after both departures: ingress %d B and %d B, want 0 and 0", a, c)
	}
	if sw.BufferUsed() != 0 {
		t.Errorf("buffer not released: %d bytes", sw.BufferUsed())
	}
}

func TestSwitchHandlesPFCFrame(t *testing.T) {
	eng, _, sw, _ := testFabric(t, DefaultSwitchConfig(), defaultParamsPtr())
	sw.Receive(&Packet{Kind: KindPFC, Pause: true, PauseClass: ClassData}, 1)
	if !sw.Port(1).Paused(ClassData) {
		t.Error("PAUSE frame did not pause egress port")
	}
	sw.Receive(&Packet{Kind: KindPFC, Pause: false, PauseClass: ClassData}, 1)
	if sw.Port(1).Paused(ClassData) {
		t.Error("RESUME frame did not unpause egress port")
	}
	if sw.Stats.PFCReceived != 2 {
		t.Errorf("PFCReceived = %d, want 2", sw.Stats.PFCReceived)
	}
	eng.Run()
}

func TestSwitchECNMarksUnderCongestion(t *testing.T) {
	params := dcqcn.DefaultParams()
	params.KminBytes = 2000
	params.KmaxBytes = 4000
	params.PMax = 1
	eng, topo, sw, sinks := testFabric(t, DefaultSwitchConfig(), &params)
	hosts := topo.Hosts()
	// Pile 20 packets onto one egress: later departures see deep queues.
	for i := 0; i < 20; i++ {
		sw.Receive(NewDataPacket(1, hosts[0], hosts[1], int64(i)*1000, 1000, false), 0)
	}
	eng.Run()
	var marked int
	for _, pkt := range sinks[1].pkts {
		if pkt.ECNMarked {
			marked++
		}
	}
	if marked == 0 {
		t.Error("no ECN marks despite queue over Kmax")
	}
	if marked == len(sinks[1].pkts) {
		t.Error("every packet marked; shallow-queue departures should escape")
	}
}

func TestSwitchECNThresholdsLiveUpdate(t *testing.T) {
	params := dcqcn.DefaultParams()
	params.KminBytes = 1 << 30 // effectively never mark
	params.KmaxBytes = 2 << 30
	eng, topo, sw, sinks := testFabric(t, DefaultSwitchConfig(), &params)
	hosts := topo.Hosts()
	for i := 0; i < 10; i++ {
		sw.Receive(NewDataPacket(1, hosts[0], hosts[1], int64(i)*1000, 1000, false), 0)
	}
	eng.Run()
	for _, pkt := range sinks[1].pkts {
		if pkt.ECNMarked {
			t.Fatal("marked despite huge thresholds")
		}
	}
	// Lower the thresholds live; new congestion must mark.
	params.KminBytes = 1000
	params.KmaxBytes = 2000
	params.PMax = 1
	for i := 0; i < 10; i++ {
		sw.Receive(NewDataPacket(1, hosts[0], hosts[1], int64(i)*1000, 1000, false), 0)
	}
	eng.Run()
	var marked int
	for _, pkt := range sinks[1].pkts {
		if pkt.ECNMarked {
			marked++
		}
	}
	if marked == 0 {
		t.Error("live-updated thresholds not observed by marker")
	}
}

func TestSwitchTapSeesAdmittedPackets(t *testing.T) {
	eng, topo, sw, _ := testFabric(t, DefaultSwitchConfig(), defaultParamsPtr())
	hosts := topo.Hosts()
	var tapped int
	sw.Tap = func(pkt *Packet, now eventsim.Time) { tapped++ }
	for i := 0; i < 5; i++ {
		sw.Receive(NewDataPacket(1, hosts[0], hosts[1], int64(i)*1000, 1000, false), 0)
	}
	// Control packets must not hit the tap.
	sw.Receive(NewCNP(1, hosts[0], hosts[1]), 0)
	eng.Run()
	if tapped != 5 {
		t.Errorf("tap saw %d packets, want 5 (data only)", tapped)
	}
}

func TestECMPHashConsistency(t *testing.T) {
	// Same flow+salt always picks the same value; different flows spread.
	a := ecmpHash(42, 7)
	if ecmpHash(42, 7) != a {
		t.Error("ecmpHash not deterministic")
	}
	buckets := map[uint64]int{}
	for f := uint64(0); f < 1000; f++ {
		buckets[ecmpHash(f, 7)%4]++
	}
	for b, n := range buckets {
		if n < 150 {
			t.Errorf("ECMP bucket %d has %d/1000 flows; distribution too skewed", b, n)
		}
	}
}
