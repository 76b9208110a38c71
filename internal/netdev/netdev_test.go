package netdev

import (
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
		q.push(queueEntry{pkt: &Packet{WireBytes: 10, Seq: int64(i)}})
	}
	if q.bytes != 1000 {
		t.Errorf("bytes = %d, want 1000", q.bytes)
	}
	for i := 0; i < 100; i++ {
		e, ok := q.pop()
		if !ok || e.pkt.Seq != int64(i) {
			t.Fatalf("pop %d: ok=%v seq=%d", i, ok, e.pkt.Seq)
		}
	}
	if _, ok := q.pop(); ok {
		t.Error("pop on empty fifo succeeded")
	}
	if q.bytes != 0 {
		t.Errorf("bytes = %d after drain, want 0", q.bytes)
	}
}

func TestFIFOInterleaved(t *testing.T) {
	var q fifo
	next := int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.push(queueEntry{pkt: &Packet{WireBytes: 1, Seq: int64(round*3 + i)}})
		}
		for i := 0; i < 2; i++ {
			e, ok := q.pop()
			if !ok || e.pkt.Seq != next {
				t.Fatalf("round %d: got seq %d, want %d", round, e.pkt.Seq, next)
			}
			next++
		}
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
