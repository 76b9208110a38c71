package netdev

import (
	"testing"

	"repro/internal/eventsim"
)

// The tests in this file pin the contract of the timer-less transmitter:
// a port arms its serialization-done event only when something waits on
// it, and nothing observable — arrival order, release accounting, the
// nanosecond a RESUME leaves — depends on whether it did.

const us = eventsim.Microsecond

// TestPortNoTimerWhenNothingWaits: spaced packets on a bare port cost one
// event each (the delivery); a packet that finds the port busy is the only
// reason a serialization timer exists.
func TestPortNoTimerWhenNothingWaits(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, us)
	for i := 0; i < 3; i++ {
		at := eventsim.Time(i) * 20 * us
		eng.Schedule(at, func() { p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1) })
	}
	eng.Run()
	if p.Stats.TxTimers != 0 {
		t.Errorf("TxTimers = %d on a port nothing waited on, want 0", p.Stats.TxTimers)
	}
	if got := eng.Stats().Processed; got != 6 { // three injections, three deliveries
		t.Errorf("%d events, want 6", got)
	}
	for i, want := range []eventsim.Time{11, 31, 51} {
		if dst.times[i] != want*us {
			t.Errorf("packet %d arrived at %v, want %vus", i, dst.times[i], want)
		}
	}
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1)
	eng.Run()
	if p.Stats.TxTimers != 1 {
		t.Errorf("TxTimers = %d after one back-to-back pair, want 1", p.Stats.TxTimers)
	}
	if p.InFlightPackets() != 0 {
		t.Errorf("InFlightPackets = %d after drain", p.InFlightPackets())
	}
}

// TestPortInFlightCountsSerializingPacketOnce: a packet is on the wire from
// transmit start, so it is counted there and nowhere else.
func TestPortInFlightCountsSerializingPacketOnce(t *testing.T) {
	eng, p, _ := newPort(t, 1e9, us)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1)
	for _, c := range []struct {
		at   eventsim.Time
		want int
	}{{5 * us, 2}, {10*us + 500, 2}, {11*us + 500, 1}, {21*us + 500, 0}} {
		eng.RunUntil(c.at)
		if got := p.InFlightPackets(); got != c.want {
			t.Errorf("at %v: InFlightPackets = %d, want %d", c.at, got, c.want)
		}
	}
}

// TestPortEnqueueAtBusyUntilBehindPendingTimer: at now == busyUntil with the
// serialization-done event still pending this nanosecond the port is not
// free. A packet enqueued then waits behind the one the event is about to
// start; taking the transmitter would reorder the queue.
func TestPortEnqueueAtBusyUntilBehindPendingTimer(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, 0)
	// Scheduled first, so it runs before the timer armed below for 10us.
	eng.Schedule(10*us, func() {
		if !p.Busy() {
			t.Error("port free at busyUntil with its timer still pending")
		}
		p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250, Seq: 2}, -1)
	})
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250, Seq: 0}, -1)
	eng.Schedule(5*us, func() { p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250, Seq: 1}, -1) })
	eng.Run()
	if len(dst.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.pkts))
	}
	for i, want := range []eventsim.Time{10, 20, 30} {
		if dst.pkts[i].Seq != int64(i) || dst.times[i] != want*us {
			t.Errorf("delivery %d: seq %d at %v, want seq %d at %vus", i, dst.pkts[i].Seq, dst.times[i], i, want)
		}
	}
	if p.Stats.TxTimers != 2 {
		t.Errorf("TxTimers = %d, want 2 (packets 0 and 1 each had a successor)", p.Stats.TxTimers)
	}
}

// TestPortFaultMidSerializationWithoutTimer: a fault raised while a packet
// serializes on a port that armed no timer holds what is enqueued behind it;
// lifting the fault must restart the queue whether the transmitter is still
// busy (serve at busyUntil) or already free (serve at once).
func TestPortFaultMidSerializationWithoutTimer(t *testing.T) {
	faults := []struct {
		name        string
		raise, lift func(p *EgressPort)
	}{
		{"link", func(p *EgressPort) { p.SetLinkUp(false) }, func(p *EgressPort) { p.SetLinkUp(true) }},
		{"pfc", func(p *EgressPort) { p.SetPaused(ClassData, true) }, func(p *EgressPort) { p.SetPaused(ClassData, false) }},
	}
	for _, f := range faults {
		for _, c := range []struct {
			liftAt, wantArrival eventsim.Time
		}{{4 * us, 20 * us}, {15 * us, 25 * us}} {
			eng, p, dst := newPort(t, 1e9, 0)
			p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1) // serializes until 10us, no timer
			eng.Schedule(2*us, func() {
				f.raise(p)
				p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250}, -1)
			})
			eng.Schedule(c.liftAt, func() { f.lift(p) })
			eng.Run()
			if len(dst.times) != 2 || dst.times[1] != c.wantArrival {
				t.Errorf("%s lifted at %v: arrivals %v, want the second at %v", f.name, c.liftAt, dst.times, c.wantArrival)
			}
		}
	}
}

// pending reports how many releases the switch has yet to settle.
func (s *Switch) pending() int { return len(s.releases) - s.relHead }

// TestSwitchReleaseOutlivesPacket: on an idle switch the forwarded packet is
// delivered, sunk and recycled (zeroed) with its release still unsettled.
// The release carries its own sizes, so settling it afterwards returns the
// accounting to exactly zero; and a read between the departure and the
// next arrival already sees the released value.
func TestSwitchReleaseOutlivesPacket(t *testing.T) {
	eng, topo, sw, _ := testFabric(t, DefaultSwitchConfig(), defaultParamsPtr())
	pool := NewPacketPool()
	sw.SetPacketPool(pool)
	recycler := &poolSink{pool: pool}
	sw.WirePort(1, recycler, 0)
	hosts := topo.Hosts()

	pkt := pool.NewDataPacket(1, hosts[0], hosts[1], 0, 1000, true)
	wire := int64(pkt.WireBytes)
	sw.Receive(pkt, 0)
	eng.RunUntil(4 * us) // mid-serialization (8.384us at 1 Gbps)
	if got := sw.BufferUsed(); got != wire {
		t.Errorf("BufferUsed mid-serialization = %d, want %d", got, wire)
	}
	eng.Run()
	if recycler.received != 1 || pkt.WireBytes != 0 {
		t.Fatalf("packet not sunk and zeroed (received %d, WireBytes %d)", recycler.received, pkt.WireBytes)
	}
	if sw.pending() != 1 {
		t.Fatalf("%d releases pending after the run, want the one nobody has read yet", sw.pending())
	}
	if sw.Port(1).Stats.TxTimers != 0 {
		t.Errorf("idle switch port armed %d serialization timers", sw.Port(1).Stats.TxTimers)
	}
	if got := sw.BufferUsed(); got != 0 {
		t.Errorf("BufferUsed after the departure = %d, want 0", got)
	}
	if got := sw.IngressBytes(0); got != 0 {
		t.Errorf("IngressBytes(0) = %d, want 0", got)
	}

	// Admission reads the settled value too: with room for one packet only,
	// a second arriving after the first has left must not be dropped.
	cfg := DefaultSwitchConfig()
	cfg.BufferBytes = wire + wire/2
	cfg.PFCAlpha = 1000
	eng, _, sw, _ = testFabric(t, cfg, defaultParamsPtr())
	sw.SetPacketPool(pool)
	sw.Receive(pool.NewDataPacket(1, hosts[0], hosts[1], 0, 1000, false), 0)
	eng.RunUntil(9 * us)
	sw.Receive(pool.NewDataPacket(1, hosts[0], hosts[1], 1000, 1000, true), 0)
	eng.Run()
	if sw.Stats.Drops != 0 {
		t.Errorf("%d drops: admission saw a buffer the departed packet still held", sw.Stats.Drops)
	}
	if got := sw.BufferUsed(); got != 0 {
		t.Errorf("BufferUsed = %d after drain, want 0", got)
	}
}

// resumeArrival runs the two-packet PFC scenario below and returns when the
// RESUME frame reached the upstream device.
//
// 1 Gbps links, 1us propagation, 1048-byte packets (8384 ns on the wire),
// 64-byte PFC frames (512 ns), buffer 10000 B, α = 1/4. Packet A arrives on
// ingress 0 at t=0 for host 1: ingress holds 1048 < (10000−1048)/4, no
// PAUSE, and A starts on the idle port 1 with no timer. Packet B arrives on
// ingress 0 at t=3us, addressed back to host 0: ingress holds 2096 ≥
// (10000−2096)/4 = 1976, PAUSE goes out, and B starts on the idle port 0
// with PAUSE already out on its ingress.
func resumeArrival(t *testing.T, resumeOffset int64) eventsim.Time {
	t.Helper()
	cfg := SwitchConfig{BufferBytes: 10000, PFCAlpha: 0.25, PFCResumeOffset: resumeOffset}
	eng, topo, sw, sinks := testFabric(t, cfg, defaultParamsPtr())
	sw.SetPacketPool(NewPacketPool())
	hosts := topo.Hosts()
	sw.Receive(NewDataPacket(1, hosts[0], hosts[1], 0, 1000, false), 0)
	eng.Schedule(3*us, func() {
		sw.Receive(NewDataPacket(2, hosts[0], hosts[0], 0, 1000, false), 0)
		if sw.Stats.PFCTriggers != 1 {
			t.Errorf("PFCTriggers = %d after the second arrival, want 1", sw.Stats.PFCTriggers)
		}
	})
	eng.Run()
	for i, pkt := range sinks[0].pkts {
		if pkt.Kind == KindPFC && !pkt.Pause {
			return sinks[0].times[i]
		}
	}
	t.Fatal("no RESUME reached the upstream device")
	return 0
}

// TestSwitchResumeLeavesOnTime: a release that may send RESUME is never
// left to a lazy settle.
func TestSwitchResumeLeavesOnTime(t *testing.T) {
	const ser, pfcSer = 8384, 512
	// PAUSE raised mid-serialization of a timer-less packet from the same
	// ingress. With no hysteresis A's release at 8384 ns already resumes:
	// ingress 1048 ≤ (10000−1048)/4 = 2238. The RESUME frame serializes
	// and propagates: 8384 + 512 + 1000.
	if got, want := resumeArrival(t, 0), eventsim.Time(ser+pfcSer+1000); got != want {
		t.Errorf("RESUME after a mid-serialization PAUSE arrived at %d ns, want %d", got, want)
	}
	// With 1200 B of hysteresis A's release is not enough (1048 > 2238 −
	// 1200); B's is, at 3000 + 8384 ns (ingress 0 ≤ 2500 − 1200). B started
	// on an idle port, so only the PAUSE on its ingress makes it end in an
	// event.
	if got, want := resumeArrival(t, 1200), eventsim.Time(3000+ser+pfcSer+1000); got != want {
		t.Errorf("RESUME from a departure on an idle port arrived at %d ns, want %d", got, want)
	}
}
