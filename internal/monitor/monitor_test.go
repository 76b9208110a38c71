package monitor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topology"
)

// noPool builds packets outside any pool, as a test that hands a device
// one packet at a time needs.
var noPool *netdev.PacketPool

func TestBucketFor(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{
		{1, 0}, {1024, 0}, {1025, 1}, {2048, 1}, {2049, 2},
		{1 << 20, 10}, {32 << 20, 15}, {1 << 40, loop.NumBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketFor(c.size); got != c.want {
			t.Errorf("BucketFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestQuickBucketMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a)+1, int64(b)+1
		if x > y {
			x, y = y, x
		}
		bx, by := BucketFor(x), BucketFor(y)
		return bx <= by && bx >= 0 && by < loop.NumBuckets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregate(t *testing.T) {
	var a, b Report
	a.Hist[0] = 100
	a.MiceBytes = 100
	a.MiceFlowsW = 2
	a.Flows = 2
	b.Hist[10] = 900
	b.ElephantBytes = 900
	b.ElephantFlowsW = 18
	b.Flows = 1
	f := Aggregate(a, b)
	if f.TotalBytes != 1000 {
		t.Errorf("TotalBytes = %g, want 1000", f.TotalBytes)
	}
	if math.Abs(f.Hist[0]-0.1) > 1e-12 || math.Abs(f.Hist[10]-0.9) > 1e-12 {
		t.Errorf("Hist shares wrong: %v %v", f.Hist[0], f.Hist[10])
	}
	if math.Abs(f.ElephantShare-0.9) > 1e-12 {
		t.Errorf("ElephantShare = %g, want 0.9", f.ElephantShare)
	}
	if f.Flows != 3 {
		t.Errorf("Flows = %d, want 3", f.Flows)
	}
	if math.Abs(f.ElephantFlowShare-0.9) > 1e-12 {
		t.Errorf("ElephantFlowShare = %g, want 0.9", f.ElephantFlowShare)
	}
	dom, mu := f.DominantElephant()
	if !dom || mu != 0.9 {
		t.Errorf("DominantElephant = %v/%g, want true/0.9 (flow-count based)", dom, mu)
	}
}

func TestAggregateEmpty(t *testing.T) {
	f := Aggregate()
	if f.TotalBytes != 0 || f.ElephantShare != 0 {
		t.Error("empty aggregate not zero")
	}
	dom, mu := f.DominantElephant()
	if dom || mu != 1 {
		t.Errorf("empty dominance = %v/%g, want mice/1", dom, mu)
	}
}

func TestAccuracy(t *testing.T) {
	var a Report
	a.Hist[3] = 1000
	a.ElephantBytes = 1000
	f := Aggregate(a)
	if acc := Accuracy(f, f); math.Abs(acc-1) > 1e-12 {
		t.Errorf("self accuracy = %g, want 1", acc)
	}
	var b Report
	b.Hist[0] = 1000
	b.MiceBytes = 1000
	g := Aggregate(b)
	if acc := Accuracy(f, g); acc > 0.1 {
		t.Errorf("disjoint accuracy = %g, want ~0", acc)
	}
}

// --- Ternary tracker ---

func fs(flow uint64, b int64) sketch.FlowSize { return sketch.FlowSize{Flow: flow, Bytes: b} }

func TestTrackerImmediateElephant(t *testing.T) {
	tr := NewTracker()
	out := tr.EndInterval([]sketch.FlowSize{fs(1, 2<<20)})
	if len(out) != 1 || out[0].State != Elephant || out[0].EWeight != 1 {
		t.Errorf("big flow classified %+v, want elephant", out)
	}
}

// TestTrackerFig4F2 walks flow f2 of Fig 4: mice for two intervals,
// potential elephant once the window fills, elephant once Φ ≥ τ.
func TestTrackerFig4F2(t *testing.T) {
	tr := NewTracker()        // τ=1MB, δ=3
	perMI := int64(160 << 10) // 160 KB per interval
	wantStates := []FlowState{Mice, Mice, PotentialElephant, PotentialElephant, PotentialElephant, PotentialElephant}
	for i, want := range wantStates {
		out := tr.EndInterval([]sketch.FlowSize{fs(2, perMI)})
		if out[0].State != want {
			t.Fatalf("MI%d: state %v, want %v", i+1, out[0].State, want)
		}
	}
	// MI7: cumulative 7×160KB = 1120KB ≥ τ → elephant.
	out := tr.EndInterval([]sketch.FlowSize{fs(2, perMI)})
	if out[0].State != Elephant {
		t.Errorf("MI7: state %v, want elephant at Φ=%d", out[0].State, out[0].Cum)
	}
}

// TestTrackerFig4F3 walks f3: becomes PE, then goes inactive and never
// becomes an elephant; eventually evicted.
func TestTrackerFig4F3(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 5; i++ {
		tr.EndInterval([]sketch.FlowSize{fs(3, 50<<10)})
	}
	if tr.State(3) != PotentialElephant {
		t.Fatalf("state %v after 5 active MIs, want PE", tr.State(3))
	}
	// Flow goes quiet.
	for i := 0; i < evictAfter; i++ {
		tr.EndInterval(nil)
	}
	if tr.Tracked() != 0 {
		t.Errorf("idle flow not evicted: %d tracked", tr.Tracked())
	}
	if tr.State(3) != Mice {
		t.Errorf("evicted flow state %v, want mice default", tr.State(3))
	}
}

func TestTrackerStreakResetByGap(t *testing.T) {
	tr := NewTracker()
	tr.EndInterval([]sketch.FlowSize{fs(1, 1000)})
	tr.EndInterval([]sketch.FlowSize{fs(1, 1000)})
	tr.EndInterval(nil) // gap resets the streak
	out := tr.EndInterval([]sketch.FlowSize{fs(1, 1000)})
	if out[0].State != Mice {
		t.Errorf("state %v after gap, want mice (streak reset)", out[0].State)
	}
}

func TestTrackerPEWeightGrows(t *testing.T) {
	tr := NewTracker()
	var prev float64
	for i := 0; i < 5; i++ {
		out := tr.EndInterval([]sketch.FlowSize{fs(1, 100<<10)})
		if out[0].State == PotentialElephant {
			if out[0].EWeight <= prev {
				t.Errorf("PE weight not growing: %g then %g", prev, out[0].EWeight)
			}
			prev = out[0].EWeight
		}
	}
	if prev == 0 {
		t.Fatal("flow never became PE")
	}
	if prev > 1 {
		t.Errorf("EWeight %g exceeds 1", prev)
	}
}

func TestTrackerDeterministicOrder(t *testing.T) {
	tr := NewTracker()
	out := tr.EndInterval([]sketch.FlowSize{fs(9, 10), fs(3, 10), fs(7, 10)})
	for i := 1; i < len(out); i++ {
		if out[i].Flow < out[i-1].Flow {
			t.Errorf("output not sorted by flow: %v", out)
		}
	}
}

func TestReportFrom(t *testing.T) {
	cls := []Classified{
		{Flow: 1, State: Elephant, Bytes: 1000, Cum: 2 << 20, EWeight: 1},
		{Flow: 2, State: PotentialElephant, Bytes: 500, Cum: 512 << 10, EWeight: 0.5},
		{Flow: 3, State: Mice, Bytes: 200, Cum: 200, EWeight: 0},
	}
	r := ReportFrom(cls, 300)
	if r.Flows != 3 {
		t.Errorf("Flows = %d, want 3", r.Flows)
	}
	wantE := 1000 + 0.5*500
	if math.Abs(r.ElephantBytes-wantE) > 1e-9 {
		t.Errorf("ElephantBytes = %g, want %g", r.ElephantBytes, wantE)
	}
	wantM := 0.5*500 + 200 + 300
	if math.Abs(r.MiceBytes-wantM) > 1e-9 {
		t.Errorf("MiceBytes = %g, want %g", r.MiceBytes, wantM)
	}
	var histTotal float64
	for _, v := range r.Hist {
		histTotal += v
	}
	if histTotal != 2000 {
		t.Errorf("hist mass = %g, want 2000", histTotal)
	}
}

// --- Agents ---

func TestInsertOnceSkipsMarkedPackets(t *testing.T) {
	a := NewSwitchAgent(ParaleonAgentConfig(), 1)
	pkt := noPool.NewDataPacket(1, 0, 1, 0, 1000, false)
	a.OnPacket(pkt, 0)
	if !pkt.TOSMarked {
		t.Fatal("agent did not mark the TOS bit")
	}
	// A second measurement point must skip it.
	b := NewSwitchAgent(ParaleonAgentConfig(), 2)
	b.OnPacket(pkt, 0)
	if b.Skipped != 1 {
		t.Errorf("second agent Skipped = %d, want 1", b.Skipped)
	}
	if got := b.Sketch().TotalBytes; got != 0 {
		t.Errorf("second agent recorded %d bytes, want 0", got)
	}
	if got := a.Sketch().TotalBytes; got != 1000 {
		t.Errorf("first agent recorded %d bytes, want 1000", got)
	}
}

func TestNaiveAgentDoubleCounts(t *testing.T) {
	a := NewSwitchAgent(NaiveElasticConfig(), 1)
	b := NewSwitchAgent(NaiveElasticConfig(), 2)
	pkt := noPool.NewDataPacket(1, 0, 1, 0, 1000, false)
	a.OnPacket(pkt, 0)
	b.OnPacket(pkt, 0)
	if a.Sketch().TotalBytes != 1000 || b.Sketch().TotalBytes != 1000 {
		t.Error("naive agents should both record the packet (the overlap bug)")
	}
}

func TestAgentIgnoresControlPackets(t *testing.T) {
	a := NewSwitchAgent(ParaleonAgentConfig(), 1)
	a.OnPacket(noPool.NewCNP(1, 0, 1), 0)
	if a.Sketch().Inserts != 0 {
		t.Error("CNP inserted into sketch")
	}
}

// TestTernaryFixesSlowElephant reproduces the §III-B motivation: an
// elephant squeezed below τ per interval is misidentified by the naive
// single-interval rule but correctly promoted by the ternary tracker.
func TestTernaryFixesSlowElephant(t *testing.T) {
	paraleon := NewSwitchAgent(ParaleonAgentConfig(), 1)
	naive := NewSwitchAgent(NaiveElasticConfig(), 1)
	// An elephant trickling 300 KB per interval (< τ = 1 MB) for 8
	// intervals: 2.4 MB total.
	var lastP, lastN Report
	for i := 0; i < 8; i++ {
		pkt := noPool.NewDataPacket(42, 0, 1, 0, 300<<10, false)
		paraleon.OnPacket(pkt, 0)
		naivePkt := noPool.NewDataPacket(42, 0, 1, 0, 300<<10, false)
		naive.OnPacket(naivePkt, 0)
		lastP = paraleon.EndInterval()
		lastN = naive.EndInterval()
	}
	fP := Aggregate(lastP)
	fN := Aggregate(lastN)
	if fP.ElephantShare < 0.99 {
		t.Errorf("paraleon elephant share = %g, want ~1 (Φ=2.4MB ≥ τ)", fP.ElephantShare)
	}
	if fN.ElephantShare > 0.01 {
		t.Errorf("naive elephant share = %g, want ~0 (single-interval misidentification)", fN.ElephantShare)
	}
}

func TestOracleCountsOnlyAtSourceToR(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		NumToR: 2, NumLeaf: 1, HostsPerToR: 2,
		HostLinkBps: 1e9, FabricLinkBps: 1e9, PropDelay: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()
	tors := topo.ToRs()
	oSrc := NewOracle(topo, tors[0])
	oDst := NewOracle(topo, tors[1])
	pkt := noPool.NewDataPacket(7, hosts[0], hosts[2], 0, 1000, false)
	oSrc.OnPacket(pkt, 0)
	oDst.OnPacket(pkt, 0)
	rSrc, rDst := oSrc.EndInterval(), oDst.EndInterval()
	if rSrc.Flows != 1 || rSrc.MiceBytes != 1000 {
		t.Errorf("source oracle report %+v, want 1 mice flow of 1000B", rSrc)
	}
	if rDst.Flows != 0 {
		t.Errorf("destination oracle counted a transit packet: %+v", rDst)
	}
}

// TestOracleClassifiesByBytesSoFar: the oracle classifies a flow by
// what it has sent up to the end of the interval, not by a final size
// no agent could know — 600 KB is a mice flow in the 600 KB class, and
// the next 600 KB make it an elephant in the 1.2 MB class.
func TestOracleClassifiesByBytesSoFar(t *testing.T) {
	topo, _ := topology.NewClos(topology.ClosConfig{
		NumToR: 1, NumLeaf: 0, HostsPerToR: 2, HostLinkBps: 1e9,
	})
	hosts := topo.Hosts()
	o := NewOracle(topo, topo.ToRs()[0])
	const chunk = 600 << 10
	for i, want := range []struct {
		elephant, mice float64
		bucket         int
	}{
		{0, chunk, BucketFor(chunk)},
		{chunk, 0, BucketFor(2 * chunk)},
	} {
		o.OnPacket(noPool.NewDataPacket(1, hosts[0], hosts[1], int64(i)*chunk, chunk, false), 0)
		r := o.EndInterval()
		if r.ElephantBytes != want.elephant || r.MiceBytes != want.mice || r.Hist[want.bucket] != chunk {
			t.Errorf("interval %d: oracle split %g/%g in %v, want %g/%g in bucket %d",
				i+1, r.ElephantBytes, r.MiceBytes, r.Hist, want.elephant, want.mice, want.bucket)
		}
	}
}

// --- Controller ---

type fakeSource struct{ reports []Report }

func (f *fakeSource) EndInterval() Report {
	if len(f.reports) == 0 {
		return Report{}
	}
	r := f.reports[0]
	f.reports = f.reports[1:]
	return r
}

func TestControllerTriggersOnShift(t *testing.T) {
	mice := Report{Flows: 10}
	mice.Hist[0] = 1000
	mice.MiceBytes = 1000
	mice.MiceFlowsW = 10
	eleph := Report{Flows: 2}
	eleph.Hist[12] = 1000
	eleph.ElephantBytes = 1000
	eleph.ElephantFlowsW = 2
	src := &fakeSource{reports: []Report{mice, mice, mice, eleph, eleph}}
	c := NewController(0.01, src)
	var fired []loop.FSD
	c.OnTrigger = func(f loop.FSD) { fired = append(fired, f) }
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	// At least two triggers: traffic onset (change from silence) and the
	// mice→elephant shift. The smoothed share converges over a couple of
	// intervals, so the shift may fire more than once — the System layer
	// ignores triggers while a session is already active.
	if c.Triggers < 2 {
		t.Errorf("Triggers = %d, want >= 2 (onset + shift)", c.Triggers)
	}
	if len(fired) < 2 {
		t.Fatalf("only %d trigger payloads", len(fired))
	}
	if fired[0].ElephantFlowShare != 0 {
		t.Errorf("onset payload share %g, want mice-dominant", fired[0].ElephantFlowShare)
	}
	last := fired[len(fired)-1]
	if last.ElephantFlowShare <= fired[0].ElephantFlowShare {
		t.Errorf("shift payloads not trending toward elephants: %v", fired)
	}
	if c.Ticks != 5 {
		t.Errorf("Ticks = %d, want 5", c.Ticks)
	}
}

func TestControllerStableNoTrigger(t *testing.T) {
	r := Report{Flows: 1}
	r.Hist[5] = 100
	r.MiceBytes = 100
	r.MiceFlowsW = 1
	src := &fakeSource{reports: []Report{r, r, r, r}}
	c := NewController(0.01, src)
	for i := 0; i < 4; i++ {
		c.Tick()
	}
	// Only the onset trigger; stable traffic must not re-fire.
	if c.Triggers != 1 {
		t.Errorf("stable traffic fired %d triggers, want 1 (onset only)", c.Triggers)
	}
}

func TestControllerIgnoresSilence(t *testing.T) {
	traffic := Report{Flows: 2}
	traffic.Hist[8] = 500
	traffic.ElephantBytes = 500
	traffic.ElephantFlowsW = 2
	// Traffic, three OFF gaps, then the same traffic again: the gaps
	// must not trigger, and neither must the resumption (same pattern).
	src := &fakeSource{reports: []Report{traffic, {}, {}, {}, traffic}}
	c := NewController(0.01, src)
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if c.Triggers != 1 {
		t.Errorf("ON/OFF gaps fired %d triggers, want 1 (onset only)", c.Triggers)
	}
}

// --- Runtime collector (integration with sim) ---

func TestRuntimeCollectorUnderTraffic(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.Hosts()
	col := NewRuntimeCollector(n)
	col.StartProbing(200 * eventsim.Microsecond)
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 8<<20)
	}
	interval := eventsim.Millisecond
	n.Run(interval)
	s := col.Sample(interval)
	if s.OTP <= 0 || s.OTP > 1 {
		t.Errorf("OTP = %g, want in (0,1]", s.OTP)
	}
	if s.ActiveLinks == 0 {
		t.Error("no active links despite incast")
	}
	if s.ORTT <= 0 || s.ORTT > 1 {
		t.Errorf("ORTT = %g, want in (0,1]", s.ORTT)
	}
	if s.RTTSamples == 0 {
		t.Error("no RTT samples with probing on")
	}
	if s.OPFC < 0 || s.OPFC > 1 {
		t.Errorf("OPFC = %g, want in [0,1]", s.OPFC)
	}
}

func TestRuntimeCollectorIdleNetwork(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Run(eventsim.Millisecond)
	col := NewRuntimeCollector(n)
	n.Run(2 * eventsim.Millisecond)
	s := col.Sample(eventsim.Millisecond)
	if s.OTP != 0 {
		t.Errorf("idle OTP = %g, want 0", s.OTP)
	}
	if s.ORTT != 1 {
		t.Errorf("idle ORTT = %g, want neutral 1", s.ORTT)
	}
	if s.OPFC != 1 {
		t.Errorf("idle OPFC = %g, want 1", s.OPFC)
	}
}

func TestRuntimeCollectorSeesPFC(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Switch.BufferBytes = 300 << 10
	cfg.Params.KminBytes = 200 << 10
	cfg.Params.KmaxBytes = 260 << 10
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.Hosts()
	for i := 1; i < 8; i++ {
		n.StartFlow(hosts[i], hosts[0], 2<<20)
	}
	col := NewRuntimeCollector(n)
	n.Run(5 * eventsim.Millisecond)
	s := col.Sample(5 * eventsim.Millisecond)
	if s.OPFC >= 1 {
		t.Errorf("OPFC = %g despite PFC storm, want < 1", s.OPFC)
	}
}

// End-to-end: sketch agents on a live network produce an FSD close to the
// oracle's.
func TestAgentsVsOracleOnLiveTraffic(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.Hosts()
	var agents []ReportSource
	var oracles []ReportSource
	for i, tor := range n.Topo.ToRs() {
		a := NewSwitchAgent(ParaleonAgentConfig(), uint64(i+1))
		o := NewOracle(n.Topo, tor)
		TapAll(n.Switch(tor), o.OnPacket, a.OnPacket)
		agents = append(agents, a)
		oracles = append(oracles, o)
	}
	// Elephants plus mice.
	n.StartFlow(hosts[0], hosts[4], 8<<20)
	n.StartFlow(hosts[1], hosts[5], 8<<20)
	for i := 0; i < 10; i++ {
		n.StartFlowAt(eventsim.Time(i)*200*eventsim.Microsecond, hosts[2], hosts[6], 20<<10)
	}
	est := NewController(0.01, agents...)
	truth := NewController(0.01, oracles...)
	var acc float64
	ticks := 0
	for mi := 1; mi <= 8; mi++ {
		n.Run(eventsim.Time(mi) * eventsim.Millisecond)
		e := est.Tick()
		tr := truth.Tick()
		if tr.TotalBytes == 0 {
			continue
		}
		acc += Accuracy(e, tr)
		ticks++
	}
	if ticks == 0 {
		t.Fatal("no intervals with traffic")
	}
	avg := acc / float64(ticks)
	if avg < 0.99 {
		t.Errorf("average FSD accuracy %g, want >= 0.99", avg)
	}
}
