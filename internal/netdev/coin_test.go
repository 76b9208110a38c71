package netdev

import (
	"math"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/topology"
)

// The tests in this file pin the contract of the ECN coin: whether a port
// marks a packet is a function of (run seed, node, port, packet identity)
// and the probability the marker returns, never of how many coins were
// drawn before.

// pktID names a packet the way the coin does.
type pktID struct {
	flow   uint64
	seq    int64
	sentAt eventsim.Time
}

// markedSet pushes pkts through a port that marks with constant probability
// prob, in the given order and all at once (everything behind the first
// queues), and returns the identities that came out marked.
func markedSet(t *testing.T, seed uint64, prob float64, pkts []pktID) map[pktID]bool {
	t.Helper()
	eng := eventsim.NewEngine(1)
	p := NewEgressPort(eng, 100e9, 0, seed)
	dst := &sink{}
	p.SetPeer(dst, 0)
	p.SetMarker(func(int64) float64 { return prob })
	for _, id := range pkts {
		kind := KindData
		if id.sentAt != 0 {
			kind = KindProbe
		}
		p.Enqueue(&Packet{Kind: kind, Class: ClassData, WireBytes: CtrlFrameBytes,
			FlowID: id.flow, Seq: id.seq, SentAt: id.sentAt}, -1)
	}
	eng.Run()
	if len(dst.pkts) != len(pkts) {
		t.Fatalf("delivered %d of %d packets", len(dst.pkts), len(pkts))
	}
	marked := map[pktID]bool{}
	for _, pkt := range dst.pkts {
		if pkt.ECNMarked {
			marked[pktID{pkt.FlowID, pkt.Seq, pkt.SentAt}] = true
		}
	}
	return marked
}

// twoFlows is n segments of each of two flows, flow by flow (interleaved
// false) or alternating.
func twoFlows(n int, interleaved bool) []pktID {
	pkts := make([]pktID, 0, 2*n)
	for i := 0; i < 2*n; i++ {
		flow, seg := i/n, i%n
		if interleaved {
			flow, seg = i%2, i/2
		}
		pkts = append(pkts, pktID{flow: uint64(flow + 1), seq: int64(seg) * DefaultMTU})
	}
	return pkts
}

// within reports whether got successes out of n trials is within four
// standard deviations of a binomial with success probability p.
func within(got, n int, p float64) bool {
	mean, sigma := float64(n)*p, math.Sqrt(float64(n)*p*(1-p))
	return math.Abs(float64(got)-mean) <= 4*sigma
}

// TestCoinIgnoresArrivalOrder: the same packets in two interleavings get the
// identical marked set. A stream hands coins out in draw order, so with one
// this fails as soon as two packets swap places.
func TestCoinIgnoresArrivalOrder(t *testing.T) {
	seed := PortSeed(1, 3, 2)
	a := markedSet(t, seed, 0.2, twoFlows(5000, false))
	b := markedSet(t, seed, 0.2, twoFlows(5000, true))
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("marked %d flow-by-flow, %d interleaved", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatalf("flow %d seq %d marked flow-by-flow but not interleaved", id.flow, id.seq)
		}
	}
}

// TestCoinIsFairAndIndependentAcrossPorts: one port marks a fraction p of
// 10 000 packets, and two ports mark the same packet together p² of the time.
func TestCoinIsFairAndIndependentAcrossPorts(t *testing.T) {
	pkts := twoFlows(5000, true)
	for _, p := range []float64{0.01, 0.2, 0.9} {
		a := markedSet(t, PortSeed(1, 3, 0), p, pkts)
		b := markedSet(t, PortSeed(1, 3, 1), p, pkts)
		both := 0
		for id := range a {
			if b[id] {
				both++
			}
		}
		if !within(len(a), len(pkts), p) || !within(len(b), len(pkts), p) {
			t.Errorf("p=%g: ports marked %d and %d of %d", p, len(a), len(b), len(pkts))
		}
		if !within(both, len(pkts), p*p) {
			t.Errorf("p=%g: %d of %d marked by both ports, want about %.0f", p, both, len(pkts), float64(len(pkts))*p*p)
		}
	}
}

// TestCoinTellsProbesApart: the probes of a flow all carry Seq 0, so the
// time they were sent is what gives each its own coin.
func TestCoinTellsProbesApart(t *testing.T) {
	probes := make([]pktID, 1000)
	for i := range probes {
		probes[i] = pktID{flow: 9, sentAt: eventsim.Time(i+1) * 100 * eventsim.Microsecond}
	}
	for _, p := range []float64{0.2, 0.5} {
		if got := len(markedSet(t, PortSeed(1, 3, 0), p, probes)); !within(got, len(probes), p) {
			t.Errorf("p=%g: %d of %d probes marked", p, got, len(probes))
		}
	}
}

// TestPortSeedsIgnoreConstructionOrder: building a fabric's switches in
// reverse gives every port the seed it had, no two ports share one, and
// another run seed changes them all.
func TestPortSeedsIgnoreConstructionOrder(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		NumToR: 4, NumLeaf: 2, HostsPerToR: 4,
		HostLinkBps: 100e9, FabricLinkBps: 100e9, PropDelay: eventsim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := topo.SwitchIDs()
	build := func(run int64, reverse bool) map[[2]int]uint64 {
		eng := eventsim.NewEngine(run)
		seeds := map[[2]int]uint64{}
		for i := range ids {
			if reverse {
				i = len(ids) - 1 - i
			}
			sw := NewSwitch(eng, topo, ids[i], DefaultSwitchConfig(), defaultParamsPtr)
			for port := 0; port < sw.NumPorts(); port++ {
				seeds[[2]int{int(ids[i]), port}] = sw.Port(port).seed
			}
		}
		return seeds
	}
	forward, backward, other := build(1, false), build(1, true), build(2, false)
	seen := map[uint64]bool{}
	for at, seed := range forward {
		if backward[at] != seed {
			t.Errorf("node %d port %d: seed %#x forward, %#x in reverse", at[0], at[1], seed, backward[at])
		}
		if other[at] == seed {
			t.Errorf("node %d port %d: same seed under run seeds 1 and 2", at[0], at[1])
		}
		if seen[seed] {
			t.Errorf("node %d port %d: seed %#x is shared with another port", at[0], at[1], seed)
		}
		seen[seed] = true
	}
}

// TestMarkedFractionFollowsRamp holds a switch port's data queue at a fixed
// depth — one packet enqueued between every two departures — and checks the
// marked fraction against the DCQCN CP law: nothing up to Kmin, the linear
// ramp to Pmax at Kmax, everything beyond.
func TestMarkedFractionFollowsRamp(t *testing.T) {
	params := dcqcn.DefaultParams()
	params.KminBytes, params.KmaxBytes, params.PMax = 100<<10, 400<<10, 0.2
	const wire, departures = DefaultMTU + HeaderBytes, 10000
	for _, held := range []int{50, 250, 350, 500} {
		eng, _, sw, _ := testFabric(t, DefaultSwitchConfig(), &params)
		p := sw.Port(1)
		seq := int64(0)
		feed := func() {
			p.Enqueue(NewDataPacket(1, 0, 1, seq, DefaultMTU, false), -1)
			seq += DefaultMTU
		}
		p.SetPaused(ClassData, true)
		for i := 0; i < held; i++ {
			feed()
		}
		p.SetPaused(ClassData, false)
		ser := p.serialization(wire)
		for i := 0; i < departures-held; i++ {
			eng.Schedule(eventsim.Time(i)*ser+1, feed)
		}
		eng.RunUntil(eventsim.Time(departures-held) * ser)

		depth := int64(held * wire)
		want := 0.0
		switch {
		case depth >= params.KmaxBytes:
			want = 1
		case depth > params.KminBytes:
			want = params.PMax * float64(depth-params.KminBytes) / float64(params.KmaxBytes-params.KminBytes)
		}
		// Every transmission so far started at the held depth; the queue only
		// drains after the feed stops.
		got, n := int(p.Stats.ECNMarked), int(p.Stats.TxPackets)
		if n < departures-held || !within(got, n, want) {
			t.Errorf("queue held at %d B: %d of %d marked, want a fraction of %.4f", depth, got, n, want)
		}
	}
}
