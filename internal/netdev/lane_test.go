package netdev

import (
	"testing"

	"repro/internal/eventsim"
)

// The tests in this file pin the wire's landing order: every packet on a
// port's wire lands through the port's one arrival handler, which takes the
// head, so the wire must be kept in arrival order even when one member
// overtakes another: a PFC frame, which skips the transmitter, overtaking
// the packet still serializing, or a packet shorter than a frame overtaking
// the frame.
//
// All of them run at 1 Gbps with 1us propagation: a 1250-byte packet
// serializes in 10us and lands 11us after it starts, a 64-byte PFC frame
// lands 512 ns + 1us after it is sent.

// landing names one arrival: the packet's Seq, or −1/−2 for a PAUSE/RESUME
// frame, and when it landed.
type landing struct {
	id int64
	at eventsim.Time
}

func landings(dst *sink) []landing {
	out := make([]landing, len(dst.pkts))
	for i, pkt := range dst.pkts {
		out[i] = landing{pkt.Seq, dst.times[i]}
		if pkt.Kind == KindPFC {
			out[i].id = -2
			if pkt.Pause {
				out[i].id = -1
			}
		}
	}
	return out
}

func checkLandings(t *testing.T, name string, dst *sink, want []landing) {
	t.Helper()
	got := landings(dst)
	if len(got) != len(want) {
		t.Fatalf("%s: landings %v, want %v", name, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: landings %v, want %v", name, got, want)
		}
	}
}

// TestWireFrameOvertakesSerializingPacket: a frame sent at 2us, while packet
// 1 serializes until 10us, lands at 3.512us, before the packet's 11us.
func TestWireFrameOvertakesSerializingPacket(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, us)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250, Seq: 1}, -1)
	eng.Schedule(2*us, func() { p.SendPFC(true, ClassData) })
	eng.Run()
	checkLandings(t, "mid-serialization", dst, []landing{{-1, 3*us + 512}, {1, 11 * us}})
}

// TestWireFrameTyingThePacketLandsAfterIt: a frame sent at 9.488us lands at
// 11us, the same nanosecond as the packet serializing since 0. The packet's
// landing was armed first, so it lands first.
func TestWireFrameTyingThePacketLandsAfterIt(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, us)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250, Seq: 1}, -1)
	eng.Schedule(10*us-512, func() { p.SendPFC(true, ClassData) })
	eng.Run()
	checkLandings(t, "tie", dst, []landing{{1, 11 * us}, {-1, 11 * us}})
}

// TestWireFramesBehindOnePacketKeepTheirOrder: a PAUSE and a RESUME sent in
// the same nanosecond (2us) and a PAUSE at 4us all overtake packet 1 and
// land in the order they were sent; InFlightPackets counts every member of
// the wire until it lands.
func TestWireFramesBehindOnePacketKeepTheirOrder(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, us)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 1250, Seq: 1}, -1)
	eng.Schedule(2*us, func() {
		p.SendPFC(true, ClassData)
		p.SendPFC(false, ClassData)
	})
	eng.Schedule(4*us, func() { p.SendPFC(true, ClassData) })
	for _, c := range []struct {
		at   eventsim.Time
		want int
	}{{us, 1}, {3 * us, 3}, {3*us + 512, 1}, {4 * us, 2}, {5*us + 512, 1}, {11*us - 1, 1}, {11 * us, 0}} {
		eng.RunUntil(c.at)
		if got := p.InFlightPackets(); got != c.want {
			t.Errorf("at %v: InFlightPackets = %d, want %d", c.at, got, c.want)
		}
	}
	eng.Run()
	checkLandings(t, "two frames", dst, []landing{
		{-1, 3*us + 512}, {-2, 3*us + 512}, {-1, 5*us + 512}, {1, 11 * us},
	})
}

// TestWireShortPacketOvertakesFrame: a 50-byte packet serializes in 400 ns,
// less than a frame's 512, so transmitted in the nanosecond a frame is sent
// it lands first: at 1.4us, the frame at 1.512us.
func TestWireShortPacketOvertakesFrame(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, us)
	p.SendPFC(true, ClassData)
	p.Enqueue(&Packet{Class: ClassData, WireBytes: 50, Seq: 1}, -1)
	if got := p.InFlightPackets(); got != 2 {
		t.Errorf("InFlightPackets = %d, want 2", got)
	}
	eng.Run()
	checkLandings(t, "short packet", dst, []landing{{1, us + 400}, {-1, us + 512}})
	if got := p.InFlightPackets(); got != 0 {
		t.Errorf("InFlightPackets = %d after drain, want 0", got)
	}
}
