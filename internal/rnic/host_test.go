package rnic

import (
	"testing"
	"unsafe"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/netdev"
	"repro/internal/topology"
)

// noPool builds packets outside any pool, as a test that hands a device
// one packet at a time needs.
var noPool *netdev.PacketPool

// pipe is a stand-in ToR that relays every non-PFC packet to the other
// host instantly, recording what it saw. With mark set it ECN-marks every
// data packet it relays.
type pipe struct {
	eng   *eventsim.Engine
	hosts [2]*Host
	seen  []*netdev.Packet
	at    []eventsim.Time // arrival time of each packet in seen
	mark  bool
}

func (p *pipe) Receive(pkt *netdev.Packet, inPort int) {
	p.seen = append(p.seen, pkt)
	p.at = append(p.at, p.eng.Now())
	if pkt.Kind == netdev.KindPFC {
		return
	}
	if p.mark && pkt.Kind == netdev.KindData {
		pkt.ECNMarked = true
	}
	for i := range p.hosts {
		if p.hosts[i].NodeID() == pkt.Dst {
			p.hosts[i].Receive(pkt, 0)
			return
		}
	}
}

type rig struct {
	eng    *eventsim.Engine
	topo   *topology.Topology
	params *dcqcn.Params
	hosts  [2]*Host
	relay  *pipe
	done   []uint64
}

func newRig(t *testing.T, p dcqcn.Params) *rig {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		NumToR: 1, NumLeaf: 0, HostsPerToR: 2,
		HostLinkBps: 1e9, PropDelay: eventsim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventsim.NewEngine(11)
	r := &rig{eng: eng, topo: topo, params: &p, relay: &pipe{eng: eng}}
	onDone := func(id uint64, src, dst topology.NodeID, size int64, start, end eventsim.Time) {
		r.done = append(r.done, id)
	}
	for i, hn := range topo.Hosts() {
		h := NewHost(r.eng, topo, hn, r.params, onDone)
		h.Port().SetPeer(r.relay, i)
		r.hosts[i] = h
		r.relay.hosts[i] = h
	}
	return r
}

func TestSegmentationAndCompletion(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	size := int64(2500) // 3 packets at MTU 1000
	b.ExpectFlow(1, a.NodeID(), size, 0)
	a.StartFlow(1, b.NodeID(), size)
	r.eng.RunUntil(eventsim.Second)
	var data []*netdev.Packet
	for _, pkt := range r.relay.seen {
		if pkt.Kind == netdev.KindData {
			data = append(data, pkt)
		}
	}
	if len(data) != 3 {
		t.Fatalf("saw %d data packets, want 3", len(data))
	}
	wantPayloads := []int32{1000, 1000, 500}
	wantSeqs := []int64{0, 1000, 2000}
	for i, pkt := range data {
		if pkt.PayloadBytes != wantPayloads[i] || pkt.Seq != wantSeqs[i] {
			t.Errorf("packet %d: payload %d seq %d, want %d/%d", i, pkt.PayloadBytes, pkt.Seq, wantPayloads[i], wantSeqs[i])
		}
		if pkt.WireBytes != pkt.PayloadBytes+netdev.HeaderBytes {
			t.Errorf("packet %d wire %d, want payload+header", i, pkt.WireBytes)
		}
	}
	if !data[2].Last || data[0].Last || data[1].Last {
		t.Error("Last flag misplaced")
	}
	if len(r.done) != 1 || r.done[0] != 1 {
		t.Errorf("completions %v, want [1]", r.done)
	}
	if a.ActiveFlows() != 0 {
		t.Errorf("sender still has %d active flows", a.ActiveFlows())
	}
}

func TestDuplicateFlowIDPanics(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	a.StartFlow(1, b.NodeID(), 1<<20)
	defer func() {
		if recover() == nil {
			t.Error("duplicate flow id did not panic")
		}
	}()
	a.StartFlow(1, b.NodeID(), 1<<20)
}

func TestZeroSizeFlowPanics(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	defer func() {
		if recover() == nil {
			t.Error("zero-size flow did not panic")
		}
	}()
	r.hosts[0].StartFlow(1, r.hosts[1].NodeID(), 0)
}

func TestPacingFollowsRPRate(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	f := a.StartFlow(1, b.NodeID(), 1<<20)
	// Knock the RP down to ~minimum rate with repeated CNPs.
	for i := 0; i < 60; i++ {
		r.eng.RunUntil(r.eng.Now() + 10*eventsim.Microsecond)
		f.RP().OnCNP()
	}
	rate := f.RP().Rate()
	txBefore := a.Stats.TxPackets
	window := 20 * eventsim.Millisecond
	r.eng.RunUntil(r.eng.Now() + window)
	sent := a.Stats.TxPackets - txBefore
	wire := int64(netdev.DefaultMTU + netdev.HeaderBytes)
	// Expected packets ≈ rate·window/bits-per-packet. The RP keeps
	// recovering during the window, so allow generous slack upward but
	// require at least the floor rate's worth.
	floorPkts := float64(rate) * window.Seconds() / float64(wire*8)
	if float64(sent) < 0.5*floorPkts {
		t.Errorf("sent %d packets in %v at rate %g, want >= %g", sent, window, rate, 0.5*floorPkts)
	}
}

func TestCNPReducesRate(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	f := a.StartFlow(7, b.NodeID(), 8<<20)
	r.eng.RunUntil(eventsim.Millisecond)
	before := f.RP().Rate()
	// Deliver a CNP for the flow through the host's receive path.
	a.Receive(noPool.NewCNP(7, b.NodeID(), a.NodeID()), 0)
	if f.RP().Rate() >= before {
		t.Errorf("rate %g did not fall after CNP (was %g)", f.RP().Rate(), before)
	}
	if a.Stats.CNPsReceived != 1 {
		t.Errorf("CNPsReceived = %d, want 1", a.Stats.CNPsReceived)
	}
}

func TestCNPForFinishedFlowIgnored(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	b.ExpectFlow(3, a.NodeID(), 1000, 0)
	a.StartFlow(3, b.NodeID(), 1000)
	r.eng.RunUntil(eventsim.Second)
	// Must not panic or corrupt state.
	a.Receive(noPool.NewCNP(3, b.NodeID(), a.NodeID()), 0)
	if a.Stats.CNPsReceived != 1 {
		t.Errorf("CNPsReceived = %d, want 1", a.Stats.CNPsReceived)
	}
}

func TestECNMarkedDataTriggersCNP(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	b.ExpectFlow(9, a.NodeID(), 1<<20, 0)
	pkt := noPool.NewDataPacket(9, a.NodeID(), b.NodeID(), 0, 1000, false)
	pkt.ECNMarked = true
	b.Receive(pkt, 0)
	r.eng.RunUntil(10 * eventsim.Millisecond)
	if b.Stats.CNPsSent != 1 {
		t.Fatalf("CNPsSent = %d, want 1", b.Stats.CNPsSent)
	}
	// The CNP must arrive back at the sender.
	if a.Stats.CNPsReceived != 1 {
		t.Errorf("sender CNPsReceived = %d, want 1", a.Stats.CNPsReceived)
	}
}

// TestUnreadFlowRecordsStayEmpty pins that a host nobody reads per-flow
// records from keeps none: 10 000 ECN-marked flows complete, and neither
// the congested-inbound set (DCQCN+'s signal) nor the completed-flow
// residue (the per-QP monitor's) grows on either end.
func TestUnreadFlowRecordsStayEmpty(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	r.relay.mark = true
	a, b := r.hosts[0], r.hosts[1]
	const flows, batch = 10000, 100
	for id := uint64(0); id < flows; {
		for end := id + batch; id < end; id++ {
			b.ExpectFlow(id, a.NodeID(), 1000, r.eng.Now())
			a.StartFlow(id, b.NodeID(), 1000)
		}
		r.eng.RunUntil(r.eng.Now() + eventsim.Millisecond)
	}
	if len(r.done) != flows || b.Stats.CNPsSent == 0 {
		t.Fatalf("%d of %d flows completed, %d CNPs sent", len(r.done), flows, b.Stats.CNPsSent)
	}
	for _, h := range r.hosts {
		if h.markedInbound != nil || h.finishedUnreported != nil || h.reportedSent != nil || h.dstSeen != nil {
			t.Errorf("host %d made a per-flow map with no reader: congested-inbound %v, unreported %v, reported %v, destinations %v",
				h.NodeID(), h.markedInbound != nil, h.finishedUnreported != nil, h.reportedSent != nil, h.dstSeen != nil)
		}
	}
}

// TestFinishedFlowsAreNotRetained pins that removing a finished flow from
// sendFlows clears the slot it vacates: a stale pointer in the slice's spare
// capacity would keep the flow and its reaction point reachable until a
// later StartFlow overwrote it, which never happens for a host's last flow.
func TestFinishedFlowsAreNotRetained(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	// Different sizes finish out of start order, from the middle of the
	// slice as well as its ends.
	for id, size := range []int64{4000, 1000, 8000, 2000} {
		b.ExpectFlow(uint64(id), a.NodeID(), size, r.eng.Now())
		a.StartFlow(uint64(id), b.NodeID(), size)
	}
	r.eng.RunUntil(r.eng.Now() + eventsim.Millisecond)
	if len(r.done) != 4 || a.ActiveFlows() != 0 {
		t.Fatalf("%d of 4 flows completed, %d still sending", len(r.done), a.ActiveFlows())
	}
	for i, f := range a.sendFlows[:cap(a.sendFlows)] {
		if f != nil {
			t.Errorf("sendFlows[%d] past the end still holds finished flow %d", i, f.ID)
		}
	}
}

// TestHostSizeClass pins the RNIC inside Go's 288-byte size class: the
// 4096-host CLOS builds one per host.
func TestHostSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Host{}); size > 288 {
		t.Fatalf("Host is %d bytes, want <= 288", size)
	}
}

func TestCNPPacingAtReceiver(t *testing.T) {
	p := dcqcn.DefaultParams()
	p.MinTimeBetweenCNPs = 100 * eventsim.Microsecond
	r := newRig(t, p)
	a, b := r.hosts[0], r.hosts[1]
	b.ExpectFlow(9, a.NodeID(), 1<<20, 0)
	// Three marked packets in quick succession: only one CNP.
	for i := 0; i < 3; i++ {
		pkt := noPool.NewDataPacket(9, a.NodeID(), b.NodeID(), int64(i)*1000, 1000, false)
		pkt.ECNMarked = true
		b.Receive(pkt, 0)
	}
	if b.Stats.CNPsSent != 1 {
		t.Errorf("CNPsSent = %d, want 1 (paced)", b.Stats.CNPsSent)
	}
}

func TestPFCPausesHostUplink(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	a.StartFlow(1, b.NodeID(), 1<<20)
	r.eng.RunUntil(100 * eventsim.Microsecond)
	txAtPause := a.Stats.TxPackets
	a.Receive(&netdev.Packet{Kind: netdev.KindPFC, Pause: true, PauseClass: netdev.ClassData}, 0)
	r.eng.RunUntil(r.eng.Now() + eventsim.Millisecond)
	// At most the in-flight packet may still depart.
	if a.Stats.TxPackets > txAtPause+1 {
		t.Errorf("host sent %d packets while paused", a.Stats.TxPackets-txAtPause)
	}
	a.Receive(&netdev.Packet{Kind: netdev.KindPFC, Pause: false, PauseClass: netdev.ClassData}, 0)
	r.eng.RunUntil(r.eng.Now() + eventsim.Millisecond)
	if a.Stats.TxPackets <= txAtPause+1 {
		t.Error("host did not resume after PFC RESUME")
	}
}

func TestProbeReplyAndNormalizedRTT(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	a.StartFlow(1, b.NodeID(), 4<<20)
	a.StartProbing(100 * eventsim.Microsecond)
	r.eng.RunUntil(2 * eventsim.Millisecond)
	if a.Stats.ProbesSent == 0 {
		t.Fatal("no probes sent despite active flow")
	}
	sum, count := a.TakeRTT()
	if count == 0 {
		t.Fatal("no RTT samples")
	}
	avg := sum / float64(count)
	if avg <= 0 || avg > 1 {
		t.Errorf("normalized RTT %g outside (0,1]", avg)
	}
}

func TestProbingStopsWithStopProbing(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	a.StartFlow(1, b.NodeID(), 4<<20)
	a.StartProbing(100 * eventsim.Microsecond)
	r.eng.RunUntil(eventsim.Millisecond)
	a.StopProbing()
	sent := a.Stats.ProbesSent
	r.eng.RunUntil(2 * eventsim.Millisecond)
	if a.Stats.ProbesSent != sent {
		t.Errorf("probes kept flowing after StopProbing: %d -> %d", sent, a.Stats.ProbesSent)
	}
}

func TestNoProbesWithoutFlows(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a := r.hosts[0]
	a.StartProbing(100 * eventsim.Microsecond)
	r.eng.RunUntil(eventsim.Millisecond)
	if a.Stats.ProbesSent != 0 {
		t.Errorf("idle host sent %d probes", a.Stats.ProbesSent)
	}
}

func TestUnregisteredFlowNeverCompletes(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	pkt := noPool.NewDataPacket(99, a.NodeID(), b.NodeID(), 0, 1000, true)
	b.Receive(pkt, 0)
	if len(r.done) != 0 {
		t.Error("unregistered flow completed")
	}
	if b.Stats.FlowsCompleted != 0 {
		t.Error("FlowsCompleted incremented for unregistered flow")
	}
}

func TestHostRequiresHostNode(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	defer func() {
		if recover() == nil {
			t.Error("NewHost on a switch node did not panic")
		}
	}()
	p := dcqcn.DefaultParams()
	NewHost(r.eng, r.topo, r.topo.ToRs()[0], &p, nil)
}

// TestWakeupFollowsUplinkPastControlFrame: the RNIC hears nothing when a
// packet leaves its uplink; it wakes at the later of its pacing deadline and
// the uplink's BusyUntil. A CNP queued behind a data packet moves that
// moment, and the next data packet starts exactly when the CNP has left.
func TestWakeupFollowsUplinkPastControlFrame(t *testing.T) {
	r := newRig(t, dcqcn.DefaultParams())
	a, b := r.hosts[0], r.hosts[1]
	a.StartFlow(1, b.NodeID(), 1<<20) // line rate: 1048 B every 8384 ns at 1 Gbps
	r.eng.Schedule(2*eventsim.Microsecond, func() {
		marked := noPool.NewDataPacket(9, b.NodeID(), a.NodeID(), 0, 1000, false)
		marked.ECNMarked = true
		a.Receive(marked, 0) // a answers with a CNP while its first packet serializes
	})
	r.eng.RunUntil(30 * eventsim.Microsecond)
	const ser, cnpSer, prop = 8384, 512, 1000
	want := []struct {
		kind netdev.Kind
		at   eventsim.Time
	}{
		{netdev.KindData, ser + prop},
		{netdev.KindCNP, ser + cnpSer + prop},
		{netdev.KindData, ser + cnpSer + ser + prop},
		{netdev.KindData, ser + cnpSer + 2*ser + prop},
	}
	if len(r.relay.seen) < len(want) {
		t.Fatalf("relay saw %d packets, want at least %d", len(r.relay.seen), len(want))
	}
	for i, w := range want {
		if got := r.relay.seen[i]; got.Kind != w.kind || r.relay.at[i] != w.at {
			t.Errorf("arrival %d: %v at %d ns, want %v at %d ns", i, got.Kind, r.relay.at[i], w.kind, w.at)
		}
	}
}

// TestUplinkNeverHoldsTwoDataPackets: control frames and probes interleave
// with a line-rate flow for a long time; because the RNIC sends only into a
// free uplink, its data queue never holds a data packet (a probe at most),
// however many control frames have gone out.
func TestUplinkNeverHoldsTwoDataPackets(t *testing.T) {
	p := dcqcn.DefaultParams()
	p.MinTimeBetweenCNPs = 0
	r := newRig(t, p)
	a, b := r.hosts[0], r.hosts[1]
	a.StartFlow(1, b.NodeID(), 1<<30)
	a.StartProbing(20 * eventsim.Microsecond)
	for i := 1; i <= 200; i++ {
		r.eng.Schedule(eventsim.Time(i)*5*eventsim.Microsecond, func() {
			marked := noPool.NewDataPacket(9, b.NodeID(), a.NodeID(), 0, 1000, false)
			marked.ECNMarked = true
			a.Receive(marked, 0)
		})
	}
	for r.eng.Now() < 2*eventsim.Millisecond && r.eng.Step() {
		if q := a.Port().QueueBytes(netdev.ClassData); q > 2*netdev.CtrlFrameBytes {
			t.Fatalf("at %v the uplink data queue holds %d bytes", r.eng.Now(), q)
		}
	}
	if a.Stats.CNPsSent < 100 || a.Stats.ProbesSent == 0 {
		t.Fatalf("scenario did not interleave control traffic (CNPs %d, probes %d)", a.Stats.CNPsSent, a.Stats.ProbesSent)
	}
}

// Every QP and NP of a host runs on the vector SetParams last put in force,
// whether it was registered before or after the call, and a write in place
// into that vector reaches it without one. A CNP's alpha update shows the
// G a QP reads; a second marked packet in one nanosecond shows the
// min_time_between_cnps an NP reads.
func TestSetParamsRepointsQPsAndNPs(t *testing.T) {
	shared := dcqcn.DefaultParams()
	shared.InitialAlpha = 0
	r := newRig(t, shared)
	h, dst := r.hosts[0], r.hosts[1].NodeID()
	override := *r.params
	override.G = 1.0 / 2
	override.MinTimeBetweenCNPs = 0
	var id uint64
	register := func() {
		id++
		h.StartFlow(id, dst, 1<<20)
		id++
		h.ExpectFlow(id, dst, 1<<20, 0)
	}
	check := func(when string, want *dcqcn.Params) {
		t.Helper()
		for _, f := range h.sendFlows {
			before := f.rp.Alpha()
			f.rp.OnCNP()
			if got := f.rp.Alpha(); got != (1-want.G)*before+want.G {
				t.Fatalf("%s: QP %d updates alpha %g to %g, not by G = %g", when, f.ID, before, got, want.G)
			}
		}
		for fid, rf := range h.rx {
			rf.np.OnECNMarked(r.eng.Now())
			if got := rf.np.OnECNMarked(r.eng.Now()); got != (want.MinTimeBetweenCNPs == 0) {
				t.Fatalf("%s: NP of flow %d sends a second CNP in one nanosecond: %v, want %v", when, fid, got, !got)
			}
		}
	}
	register()
	check("shared", r.params)
	h.SetParams(&override)
	register()
	check("override", &override)
	h.SetParams(nil)
	register()
	check("shared again", r.params)
	r.params.G = 1.0 / 8
	r.params.MinTimeBetweenCNPs = 0
	check("written in place", r.params)
	if len(h.sendFlows) != 3 || len(h.rx) != 3 {
		t.Fatalf("%d QPs and %d NPs, want 3 and 3", len(h.sendFlows), len(h.rx))
	}
}
