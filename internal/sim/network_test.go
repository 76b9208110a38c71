package sim

import (
	"strings"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/topology"
)

func build(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSingleFlowCompletesNearIdeal(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	size := int64(1 << 20) // 1 MB
	n.StartFlow(hosts[0], hosts[1], size)
	n.RunUntilIdle(eventsim.Second)
	if len(n.Completed) != 1 {
		t.Fatalf("completed %d flows, want 1", len(n.Completed))
	}
	rec := n.Completed[0]
	ideal := n.IdealFCT(hosts[0], hosts[1], size)
	if rec.FCT() < ideal {
		t.Errorf("FCT %v below ideal %v — physics violation", rec.FCT(), ideal)
	}
	// An uncontended flow should finish within a few percent of ideal.
	if float64(rec.FCT()) > 1.10*float64(ideal) {
		t.Errorf("uncontended FCT %v, want within 10%% of ideal %v", rec.FCT(), ideal)
	}
}

func TestCrossRackFlow(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	src, dst := hosts[0], hosts[7] // different racks (4 per rack)
	n.StartFlow(src, dst, 512<<10)
	n.RunUntilIdle(eventsim.Second)
	if len(n.Completed) != 1 {
		t.Fatalf("cross-rack flow did not complete")
	}
	if n.Completed[0].Src != src || n.Completed[0].Dst != dst {
		t.Errorf("record endpoints %v→%v, want %v→%v", n.Completed[0].Src, n.Completed[0].Dst, src, dst)
	}
}

func TestBidirectionalFlows(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	n.StartFlow(hosts[0], hosts[1], 256<<10)
	n.StartFlow(hosts[1], hosts[0], 256<<10)
	n.RunUntilIdle(eventsim.Second)
	if len(n.Completed) != 2 {
		t.Fatalf("completed %d flows, want 2", len(n.Completed))
	}
}

func TestIncastTriggersCongestionControl(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	// 3-to-1 incast within a rack onto hosts[0].
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 4<<20)
	}
	n.RunUntilIdle(2 * eventsim.Second)
	if len(n.Completed) != 3 {
		t.Fatalf("completed %d flows, want 3", len(n.Completed))
	}
	var cnps int64
	for _, h := range n.Hosts {
		cnps += h.Stats.CNPsSent
	}
	if cnps == 0 {
		t.Error("3:1 incast produced no CNPs — ECN/NP path broken")
	}
	var marked int64
	for _, sw := range n.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			marked += sw.Port(i).Stats.ECNMarked
		}
	}
	if marked == 0 {
		t.Error("no ECN marks at any switch under incast")
	}
}

func TestIncastFairness(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 4<<20)
	}
	n.RunUntilIdle(2 * eventsim.Second)
	// DCQCN shares the bottleneck: the three same-size FCTs must be
	// within ~2.5x of each other (AIMD fairness is approximate).
	var min, max eventsim.Time
	for i, rec := range n.Completed {
		fct := rec.FCT()
		if i == 0 || fct < min {
			min = fct
		}
		if fct > max {
			max = fct
		}
	}
	if float64(max) > 2.5*float64(min) {
		t.Errorf("incast FCT spread too wide: min %v max %v", min, max)
	}
}

func TestNoDropsUnderIncast(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	for i := 1; i < 8; i++ {
		n.StartFlow(hosts[i], hosts[0], 2<<20)
	}
	n.RunUntilIdle(4 * eventsim.Second)
	for _, sw := range n.Switches {
		if sw.Stats.Drops != 0 {
			t.Errorf("switch %d dropped %d packets — PFC failed to keep fabric lossless", sw.NodeID(), sw.Stats.Drops)
		}
	}
	if len(n.Completed) != 7 {
		t.Errorf("completed %d flows, want 7", len(n.Completed))
	}
}

func TestSevereIncastTriggersPFC(t *testing.T) {
	cfg := DefaultConfig()
	// Small buffer and tall ECN thresholds force PFC before ECN bites.
	cfg.Switch.BufferBytes = 300 << 10
	cfg.Params.KminBytes = 200 << 10
	cfg.Params.KmaxBytes = 260 << 10
	n := build(t, cfg)
	hosts := n.Topo.Hosts()
	for i := 1; i < 8; i++ {
		n.StartFlow(hosts[i], hosts[0], 1<<20)
	}
	n.RunUntilIdle(4 * eventsim.Second)
	var pfc int64
	for _, sw := range n.Switches {
		pfc += sw.Stats.PFCTriggers
	}
	if pfc == 0 {
		t.Error("severe incast with small buffer triggered no PFC")
	}
	for _, sw := range n.Switches {
		if sw.Stats.Drops != 0 {
			t.Errorf("drops despite PFC: %d", sw.Stats.Drops)
		}
	}
}

func TestApplyParamsReachesAllDevices(t *testing.T) {
	n := build(t, DefaultConfig())
	p := dcqcn.ExpertParams()
	n.ApplyParams(p)
	if n.RNICParams().AIRateBps != p.AIRateBps {
		t.Error("RNIC params not applied")
	}
	for _, sn := range n.Topo.SwitchIDs() {
		if n.SwitchParams(sn).KminBytes != p.KminBytes {
			t.Errorf("switch %d params not applied", sn)
		}
	}
}

// A retune of alpha_update_interval keeps a QP's alpha-decay grid where a
// recurring timer would have kept it, even while alpha sits at 0: the fire
// already armed lands on the old interval, and only the fires after it
// step by the new one. Here the grid is 55, 110 µs, then 130, 150, 170 µs
// after the retune at 100 µs; a CNP at 115 µs raises alpha to G, the fire
// at 130 µs only clears the CNP flag, and 150 and 170 µs decay.
func TestApplyParamsKeepsAlphaGridOnRetune(t *testing.T) {
	us := eventsim.Microsecond
	cfg := DefaultConfig()
	cfg.Params.InitialAlpha = 0
	n := build(t, cfg)
	hosts := n.Topo.Hosts()
	src, dst := n.Host(hosts[0]), n.Host(hosts[1])
	const id = 1
	dst.ExpectFlow(id, src.NodeID(), 1<<30, 0)
	rp := src.StartFlow(id, dst.NodeID(), 1<<30).RP()

	n.Eng.RunUntil(100 * us)
	p := *n.RNICParams()
	p.AlphaUpdateInterval = 20 * us
	n.ApplyParams(p)
	n.Eng.RunUntil(115 * us)
	src.Receive(n.pool.NewCNP(id, dst.NodeID(), src.NodeID()), 0)

	g := p.G
	for _, c := range []struct {
		at    eventsim.Time
		alpha float64
	}{
		{115 * us, g}, {130 * us, g}, {150*us - 1, g},
		{150 * us, g * (1 - g)}, {170*us - 1, g * (1 - g)}, {170 * us, g * (1 - g) * (1 - g)},
	} {
		n.Eng.RunUntil(c.at)
		if got := rp.Alpha(); got != c.alpha {
			t.Fatalf("alpha at %v = %g, want %g", c.at, got, c.alpha)
		}
	}
	if rp.Cuts != 1 {
		t.Fatalf("%d cuts, want the one CNP's", rp.Cuts)
	}
}

func TestApplySwitchECNIsLocal(t *testing.T) {
	n := build(t, DefaultConfig())
	sws := n.Topo.SwitchIDs()
	n.ApplySwitchECN(sws[0], 111, 222, 0.33)
	if p := n.SwitchParams(sws[0]); p.KminBytes != 111 || p.KmaxBytes != 222 || p.PMax != 0.33 {
		t.Error("target switch ECN not applied")
	}
	if p := n.SwitchParams(sws[1]); p.KminBytes == 111 {
		t.Error("ECN change leaked to another switch")
	}
}

func TestLiveRetuningChangesBehaviour(t *testing.T) {
	// The same incast under throughput-hostile retuning mid-flight must
	// produce more CNPs than an untouched run.
	run := func(retune bool) int64 {
		n := build(t, DefaultConfig())
		hosts := n.Topo.Hosts()
		for i := 1; i <= 3; i++ {
			n.StartFlow(hosts[i], hosts[0], 4<<20)
		}
		if retune {
			n.Eng.Schedule(eventsim.Millisecond, func() {
				p := *n.RNICParams()
				p.KminBytes = 5 << 10
				p.KmaxBytes = 20 << 10
				p.PMax = 1
				p.MinTimeBetweenCNPs = 0
				n.ApplyParams(p)
			})
		}
		n.RunUntilIdle(2 * eventsim.Second)
		var cnps int64
		for _, h := range n.Hosts {
			cnps += h.Stats.CNPsSent
		}
		return cnps
	}
	base, tuned := run(false), run(true)
	if tuned <= base {
		t.Errorf("aggressive marking mid-run gave %d CNPs vs %d baseline; live retuning ineffective", tuned, base)
	}
}

func TestStartFlowAt(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	n.StartFlowAt(5*eventsim.Millisecond, hosts[0], hosts[1], 100<<10)
	n.RunUntilIdle(eventsim.Second)
	if len(n.Completed) != 1 {
		t.Fatal("scheduled flow did not complete")
	}
	if n.Completed[0].Start != 5*eventsim.Millisecond {
		t.Errorf("flow started at %v, want 5ms", n.Completed[0].Start)
	}
}

func TestOnFlowCompleteHook(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	var hooked []uint64
	n.AddFlowCompleteHook(func(r FlowRecord) { hooked = append(hooked, r.ID) })
	id := n.StartFlow(hosts[0], hosts[1], 64<<10)
	n.RunUntilIdle(eventsim.Second)
	if len(hooked) != 1 || hooked[0] != id {
		t.Errorf("hook saw %v, want [%d]", hooked, id)
	}
}

func TestRTTProbing(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	h := n.Host(hosts[0])
	n.StartFlow(hosts[0], hosts[5], 8<<20)
	h.StartProbing(200 * eventsim.Microsecond)
	n.Run(5 * eventsim.Millisecond)
	sum, count := h.TakeRTT()
	if count == 0 {
		t.Fatal("no RTT samples collected")
	}
	avg := sum / float64(count)
	if avg <= 0 || avg > 1 {
		t.Errorf("normalized RTT %g outside (0,1]", avg)
	}
	// Second take must be (near) empty after reset unless new samples came.
	h.StopProbing()
	sum2, count2 := h.TakeRTT()
	if count2 != 0 || sum2 != 0 {
		t.Errorf("TakeRTT did not reset: %g/%d", sum2, count2)
	}
}

func TestProbeRTTReflectsCongestion(t *testing.T) {
	// Normalized RTT (base/runtime) must degrade under incast vs idle.
	measure := func(congest bool) float64 {
		n := build(t, DefaultConfig())
		hosts := n.Topo.Hosts()
		n.StartFlow(hosts[1], hosts[0], 16<<20)
		if congest {
			for i := 2; i <= 5; i++ {
				n.StartFlow(hosts[i], hosts[0], 16<<20)
			}
		}
		h := n.Host(hosts[1])
		h.StartProbing(100 * eventsim.Microsecond)
		n.Run(10 * eventsim.Millisecond)
		sum, count := h.TakeRTT()
		if count == 0 {
			t.Fatal("no samples")
		}
		return sum / float64(count)
	}
	idle, congested := measure(false), measure(true)
	if congested >= idle {
		t.Errorf("normalized RTT under congestion %g >= idle %g; probes blind to queueing", congested, idle)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []eventsim.Time {
		n := build(t, DefaultConfig())
		hosts := n.Topo.Hosts()
		for i := 1; i <= 4; i++ {
			n.StartFlow(hosts[i], hosts[0], 1<<20)
		}
		n.RunUntilIdle(2 * eventsim.Second)
		var fcts []eventsim.Time
		for _, r := range n.Completed {
			fcts = append(fcts, r.FCT())
		}
		return fcts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different completion counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at flow %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestExpertVsDefaultOnAlltoall(t *testing.T) {
	// The Table II direction at small scale: the expert setting's higher
	// ECN thresholds and gentler cut cadence yield strictly less
	// congestion signaling with no loss of alltoall makespan.
	run := func(p dcqcn.Params) (makespan eventsim.Time, cnps int64) {
		cfg := DefaultConfig()
		// 4:1 over-subscribed fabric (paper's simulation ratio) so the
		// alltoall's cross-rack traffic actually contends.
		cfg.Clos.FabricLinkBps = 10e9
		cfg.Params = p
		n := build(t, cfg)
		hosts := n.Topo.Hosts()
		k := 6
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j {
					n.StartFlow(hosts[i], hosts[j], 1<<20)
				}
			}
		}
		n.RunUntilIdle(10 * eventsim.Second)
		if len(n.Completed) != k*(k-1) {
			t.Fatalf("only %d/%d flows completed", len(n.Completed), k*(k-1))
		}
		for _, rec := range n.Completed {
			if rec.End > makespan {
				makespan = rec.End
			}
		}
		for _, h := range n.Hosts {
			cnps += h.Stats.CNPsSent
		}
		return makespan, cnps
	}
	defaultTime, defaultCNPs := run(dcqcn.DefaultParams())
	expertTime, expertCNPs := run(dcqcn.ExpertParams())
	if expertCNPs >= defaultCNPs {
		t.Errorf("expert produced %d CNPs vs default %d; higher thresholds should mark less", expertCNPs, defaultCNPs)
	}
	if float64(expertTime) > 1.05*float64(defaultTime) {
		t.Errorf("expert makespan %v materially worse than default %v", expertTime, defaultTime)
	}
}

func TestIdealFCT(t *testing.T) {
	n := build(t, DefaultConfig())
	hosts := n.Topo.Hosts()
	got := n.IdealFCT(hosts[0], hosts[1], 1000)
	// 1 packet: 1048 bytes at 10 Gbps = 838.4 ns, plus 2×2 µs base delay.
	serNanos := float64(1048*8) / 10e9 * 1e9
	ser := eventsim.Time(serNanos)
	want := ser + 4*eventsim.Microsecond
	if got != want {
		t.Errorf("IdealFCT = %v, want %v", got, want)
	}
}

func TestFlowToSelfPanics(t *testing.T) {
	n := build(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("flow to self did not panic")
		}
	}()
	n.StartFlow(n.Topo.Hosts()[0], n.Topo.Hosts()[0], 1000)
}

func TestPaperScaleTopologyBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build skipped in -short")
	}
	cfg := DefaultConfig()
	cfg.Clos = topology.PaperClosConfig()
	n := build(t, cfg)
	if len(n.Hosts) != 128 || len(n.Switches) != 12 {
		t.Fatalf("paper fabric: %d hosts, %d switches", len(n.Hosts), len(n.Switches))
	}
	// A couple of flows across the big fabric still complete.
	hosts := n.Topo.Hosts()
	n.StartFlow(hosts[0], hosts[127], 1<<20)
	n.StartFlow(hosts[64], hosts[3], 1<<20)
	n.RunUntilIdle(eventsim.Second)
	if len(n.Completed) != 2 {
		t.Errorf("completed %d flows on paper fabric, want 2", len(n.Completed))
	}
}

func TestApplySwitchECNUnknownNodePanics(t *testing.T) {
	n, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	host := n.Topo.Hosts()[0]
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ApplySwitchECN on a host node did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "not a switch") {
			t.Fatalf("panic %v does not explain the bad node", r)
		}
	}()
	n.ApplySwitchECN(host, 1<<10, 1<<20, 0.5)
}

func TestApplySwitchECNUpdatesSwitch(t *testing.T) {
	n, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw := n.Topo.SwitchIDs()[0]
	n.ApplySwitchECN(sw, 1<<10, 1<<20, 0.5)
	sp := n.SwitchParams(sw)
	if sp.KminBytes != 1<<10 || sp.KmaxBytes != 1<<20 || sp.PMax != 0.5 {
		t.Errorf("switch params not updated: %+v", sp)
	}
}
