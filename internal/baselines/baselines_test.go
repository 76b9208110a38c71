package baselines

import (
	"testing"

	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newNet(t *testing.T) *sim.Network {
	t.Helper()
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// --- ACC ---

func TestACCActionBounds(t *testing.T) {
	kmin, kmax, pmax := int64(10<<10), int64(80<<10), 0.02
	for action := 0; action < accActions; action++ {
		k1, k2, p := applyACCAction(action, kmin, kmax, pmax)
		if k1 < 10<<10 || k1 > 4000<<10 {
			t.Errorf("action %d: kmin %d out of range", action, k1)
		}
		if k2 <= k1 {
			t.Errorf("action %d: kmax %d <= kmin %d", action, k2, k1)
		}
		if p < 0.01 || p > 1 {
			t.Errorf("action %d: pmax %g out of range", action, p)
		}
	}
	// Extreme shrink must still respect ordering.
	k1, k2, _ := applyACCAction(4, 4000<<10, 70<<10, 0.5)
	if k2 <= k1 {
		t.Errorf("ordering repair failed: %d <= %d", k2, k1)
	}
}

func TestACCAdjustsECNUnderLoad(t *testing.T) {
	n := newNet(t)
	cfg := DefaultACCConfig()
	cfg.Interval = eventsim.Millisecond
	acc := InstallACC(n, cfg)
	acc.Start()
	hosts := n.Topo.Hosts()
	for i := 1; i <= 5; i++ {
		n.StartFlow(hosts[i], hosts[0], 32<<20)
	}
	before := *n.SwitchParams(n.Topo.SwitchIDs()[0])
	n.Run(20 * eventsim.Millisecond)
	if acc.Decisions() == 0 {
		t.Fatal("no ACC decisions in 20 ms at 1 ms cadence")
	}
	changed := false
	for _, sn := range n.Topo.SwitchIDs() {
		p := n.SwitchParams(sn)
		if p.KminBytes != before.KminBytes || p.KmaxBytes != before.KmaxBytes || p.PMax != before.PMax {
			changed = true
		}
		if err := p.Validate(); err != nil {
			t.Errorf("switch %d params invalid after ACC: %v", sn, err)
		}
	}
	if !changed {
		t.Error("ACC never moved any ECN threshold")
	}
	// ACC must not touch RNIC-side parameters.
	if n.RNICParams().AIRateBps != before.AIRateBps {
		t.Error("ACC modified RNIC parameters")
	}
	acc.Stop()
	d := acc.Decisions()
	n.Run(40 * eventsim.Millisecond)
	if acc.Decisions() != d {
		t.Error("ACC kept deciding after Stop")
	}
}

func TestACCPerSwitchIndependence(t *testing.T) {
	n := newNet(t)
	cfg := DefaultACCConfig()
	cfg.Interval = eventsim.Millisecond
	acc := InstallACC(n, cfg)
	acc.Start()
	hosts := n.Topo.Hosts()
	// Congest only rack 0.
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 32<<20)
	}
	n.Run(30 * eventsim.Millisecond)
	// All switches decide (they're independent agents), but validity
	// holds everywhere.
	for _, sn := range n.Topo.SwitchIDs() {
		if err := n.SwitchParams(sn).Validate(); err != nil {
			t.Errorf("switch %d invalid: %v", sn, err)
		}
	}
}

// --- DCQCN+ ---

func TestDCQCNPlusScalesWithIncast(t *testing.T) {
	n := newNet(t)
	base := *n.RNICParams()
	dp := InstallDCQCNPlus(n, DefaultDCQCNPlusConfig())
	dp.Start()
	hosts := n.Topo.Hosts()
	// 6:1 incast onto hosts[0] (some cross-rack).
	for i := 1; i <= 6; i++ {
		n.StartFlow(hosts[i], hosts[0], 16<<20)
	}
	// DCQCN's queue oscillates, so an adaptation interval with no marked
	// inbound flow — and no override at its end — is normal mid-incast, and
	// which intervals those are depends on the ECN coins. Look at the end of
	// every interval of the incast, not at one instant.
	foundReceiver, foundSender := false, false
	for at := dp.cfg.Interval; at <= 10*eventsim.Millisecond; at += dp.cfg.Interval {
		n.Run(at)
		// The receiver must have a stretched CNP interval.
		if rx := n.Host(hosts[0]).Override(); rx != nil {
			foundReceiver = true
			if rx.MinTimeBetweenCNPs <= base.MinTimeBetweenCNPs {
				t.Errorf("at %v: receiver CNP interval %v not stretched from %v", at, rx.MinTimeBetweenCNPs, base.MinTimeBetweenCNPs)
			}
		}
		// Senders must have shrunken increase steps.
		for i := 1; i <= 6; i++ {
			if p := n.Host(hosts[i]).Override(); p != nil {
				foundSender = true
				if p.AIRateBps >= base.AIRateBps {
					t.Errorf("at %v: sender %d ai_rate %g not reduced from %g", at, i, p.AIRateBps, base.AIRateBps)
				}
				if p.RPGTimeReset <= base.RPGTimeReset {
					t.Errorf("at %v: sender %d timer %v not stretched", at, i, p.RPGTimeReset)
				}
			}
		}
	}
	if !foundReceiver {
		t.Error("no override installed at the incast receiver")
	}
	if !foundSender {
		t.Error("no sender-side adjustment")
	}
	if dp.Adjustments == 0 {
		t.Error("Adjustments counter stuck at 0")
	}
}

func TestDCQCNPlusRelaxesWhenCalm(t *testing.T) {
	n := newNet(t)
	dp := InstallDCQCNPlus(n, DefaultDCQCNPlusConfig())
	dp.Start()
	hosts := n.Topo.Hosts()
	for i := 1; i <= 6; i++ {
		n.StartFlow(hosts[i], hosts[0], 4<<20)
	}
	n.RunUntilIdle(2 * eventsim.Second)
	// Let several calm intervals elapse after the incast drains.
	n.Run(n.Eng.Now() + 10*eventsim.Millisecond)
	for _, hn := range n.Topo.Hosts() {
		if p := n.Host(hn).Override(); p != nil {
			t.Errorf("host %d still overridden after traffic drained", hn)
		}
	}
}

func TestDCQCNPlusStopRemovesOverrides(t *testing.T) {
	n := newNet(t)
	dp := InstallDCQCNPlus(n, DefaultDCQCNPlusConfig())
	dp.Start()
	hosts := n.Topo.Hosts()
	for i := 1; i <= 6; i++ {
		n.StartFlow(hosts[i], hosts[0], 16<<20)
	}
	n.Run(5 * eventsim.Millisecond)
	dp.Stop()
	for _, hn := range n.Topo.Hosts() {
		if n.Host(hn).Override() != nil {
			t.Fatalf("override on host %d survives Stop", hn)
		}
	}
}

// --- NetFlow ---

func TestNetFlowSamplesAndScales(t *testing.T) {
	n := newNet(t)
	cfg := DefaultNetFlowConfig()
	cfg.Interval = 10 * eventsim.Millisecond // fast export for the test
	tors := n.Topo.ToRs()
	agents := make([]*NetFlowAgent, len(tors))
	var sources []loop.ReportSource
	for i, tor := range tors {
		agents[i] = NewNetFlowAgent(cfg, n.Topo, tor)
		agents[i].Attach(n.Switch(tor))
		sources = append(sources, agents[i])
	}
	hosts := n.Topo.Hosts()
	n.StartFlow(hosts[0], hosts[1], 20<<20) // elephant: ~20k packets, ~200 samples
	ctl := loop.NewController(0.01, sources...)
	var lastFSD loop.FSD
	for mi := 1; mi <= 15; mi++ {
		n.Run(eventsim.Time(mi) * eventsim.Millisecond)
		lastFSD = ctl.Tick()
	}
	var sampled int64
	for _, a := range agents {
		sampled += a.Sampled
	}
	if sampled == 0 {
		t.Fatal("NetFlow sampled nothing from a 20 MB flow")
	}
	// ~20k data packets at 1:100 → roughly 200 samples.
	if sampled < 50 || sampled > 800 {
		t.Errorf("sampled %d packets, want ≈200", sampled)
	}
	if lastFSD.TotalBytes == 0 {
		t.Error("no FSD mass after export interval")
	}
	if lastFSD.ElephantShare < 0.9 {
		t.Errorf("elephant share %g for a pure-elephant workload", lastFSD.ElephantShare)
	}
}

func TestNetFlowStaleBetweenExports(t *testing.T) {
	n := newNet(t)
	cfg := DefaultNetFlowConfig() // 1 s export, 1 ms λ_MI
	a := NewNetFlowAgent(cfg, n.Topo, n.Topo.ToRs()[0])
	a.Attach(n.Switch(n.Topo.ToRs()[0]))
	hosts := n.Topo.Hosts()
	n.StartFlow(hosts[0], hosts[1], 8<<20)
	n.Run(5 * eventsim.Millisecond)
	// 5 controller ticks within one export window: all identical (zero)
	// reports despite live traffic.
	for i := 0; i < 5; i++ {
		r := a.EndInterval()
		if r.Flows != 0 {
			t.Fatalf("tick %d returned fresh data inside the export window", i)
		}
	}
}

func TestNetFlowMissesMice(t *testing.T) {
	// 1:100 sampling loses most flows of a mice-heavy workload —
	// exactly why Fig 10 shows NetFlow's FSD accuracy lagging.
	n := newNet(t)
	cfg := DefaultNetFlowConfig()
	cfg.Interval = 20 * eventsim.Millisecond
	tors := n.Topo.ToRs()
	var sources []loop.ReportSource
	for _, tor := range tors {
		a := NewNetFlowAgent(cfg, n.Topo, tor)
		a.Attach(n.Switch(tor))
		sources = append(sources, a)
	}
	g, err := workload.InstallPoisson(n, workload.PoissonConfig{
		CDF:  workload.SolarRPC(),
		Load: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := loop.NewController(0.01, sources...)
	var fsd loop.FSD
	for mi := 1; mi <= 25; mi++ {
		n.Run(eventsim.Time(mi) * eventsim.Millisecond)
		fsd = ctl.Tick()
	}
	if g.Launched < 50 {
		t.Fatalf("only %d mice flows launched", g.Launched)
	}
	if fsd.Flows >= g.Launched/2 {
		t.Errorf("NetFlow saw %d of %d mice flows; 1:100 sampling should miss most", fsd.Flows, g.Launched)
	}
}

// Paraleon's sketch agent beats NetFlow on FSD accuracy for the same
// traffic — the Fig 10(a) direction.
func TestParaleonBeatsNetFlowAccuracy(t *testing.T) {
	run := func(useNetFlow bool) float64 {
		n := newNet(t)
		tors := n.Topo.ToRs()
		var est []loop.ReportSource
		var oracles []loop.ReportSource
		for i, tor := range tors {
			o := monitor.NewOracle(n.Topo, tor)
			oracles = append(oracles, o)
			if useNetFlow {
				cfg := DefaultNetFlowConfig()
				a := NewNetFlowAgent(cfg, n.Topo, tor)
				monitor.TapAll(n.Switch(tor), o.OnPacket, a.OnPacket)
				est = append(est, a)
			} else {
				a := monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), uint64(i+1))
				monitor.TapAll(n.Switch(tor), o.OnPacket, a.OnPacket)
				est = append(est, a)
			}
		}
		if _, err := workload.InstallPoisson(n, workload.PoissonConfig{
			CDF: workload.FBHadoop(), Load: 0.3,
		}); err != nil {
			t.Fatal(err)
		}
		estCtl := loop.NewController(0.01, est...)
		truthCtl := loop.NewController(0.01, oracles...)
		var accSum float64
		ticks := 0
		for mi := 1; mi <= 30; mi++ {
			n.Run(eventsim.Time(mi) * eventsim.Millisecond)
			e := estCtl.Tick()
			tr := truthCtl.Tick()
			if tr.TotalBytes == 0 {
				continue
			}
			accSum += monitor.Accuracy(e, tr)
			ticks++
		}
		if ticks == 0 {
			t.Fatal("no traffic intervals")
		}
		return accSum / float64(ticks)
	}
	paraleon := run(false)
	netflow := run(true)
	if paraleon <= netflow {
		t.Errorf("paraleon accuracy %g <= netflow %g", paraleon, netflow)
	}
}
