package harness

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
)

func TestRunStaticScheme(t *testing.T) {
	scale := QuickScale()
	sc := DefaultScheme()
	sc.SystemCfg.Telemetry = telemetry.NewRegistry()
	r, err := Run(RunConfig{
		Net:        scale.Net,
		Scheme:     sc,
		Interval:   scale.Interval,
		Duration:   20 * eventsim.Millisecond,
		DrainAfter: true,
		Workload:   fbPoisson(0.3, 20*eventsim.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.TP.Len() != 20 {
		t.Errorf("TP series has %d samples, want 20", r.TP.Len())
	}
	if len(r.Net.Completed) == 0 {
		t.Error("no flows completed")
	}
	if r.Triggers != 0 || r.Dispatches != 0 {
		t.Error("static scheme reported tuner activity")
	}
	sum := r.Summary()
	if sum.MeanSlowdown < 1 {
		t.Errorf("mean slowdown %g < 1", sum.MeanSlowdown)
	}

	// The arm published its engine and port accounting once, and the
	// report derives events per transmission from them: below two, because
	// a port nothing waits on arms no serialization timer.
	tm := telemetry.NewEngineMetrics(sc.SystemCfg.Telemetry)
	tx, timers := r.Net.PortTotals()
	if tm.Transmissions.Value() != tx || tm.TxTimers.Value() != timers || timers == 0 || timers >= tx {
		t.Errorf("published %d transmissions / %d timers, network has %d / %d",
			tm.Transmissions.Value(), tm.TxTimers.Value(), tx, timers)
	}
	if perTx := float64(tm.Events.Value()) / float64(tx); perTx >= 2 {
		t.Errorf("%.3f events per transmission, want < 2", perTx)
	}
	if pkts, bytes := r.Net.PacketsAllocated(); pkts == 0 || tm.PacketsAllocated.Value() != float64(pkts) || tm.PacketBytes.Value() != float64(bytes) {
		t.Errorf("published %g packets allocated (%g B), network allocated %d (%d B)",
			tm.PacketsAllocated.Value(), tm.PacketBytes.Value(), pkts, bytes)
	}
	var rep strings.Builder
	sc.SystemCfg.Telemetry.BuildReport().Fprint(&rep)
	if !strings.Contains(rep.String(), "  ports: ") || !strings.Contains(rep.String(), " packets allocated (") {
		t.Errorf("report has no ports line with packets allocated:\n%s", rep.String())
	}
}

// TestQuickArmRelinksPerEvent gates the timing wheel's geometry on a real
// arm. A packet hop is scheduled 0.8–3 µs ahead, so a 4096-ns level 0 files
// most events once, and cascades refile well under one per event; a 64-ns
// level 0 refiles 1.5 per event on this arm.
func TestQuickArmRelinksPerEvent(t *testing.T) {
	scale := QuickScale()
	r, err := Run(RunConfig{
		Net:        scale.Net,
		Scheme:     DefaultScheme(),
		Interval:   scale.Interval,
		Duration:   20 * eventsim.Millisecond,
		DrainAfter: true,
		Workload:   fbPoisson(0.3, 20*eventsim.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Net.Eng.Stats()
	if perEvent := float64(st.Relinks) / float64(st.Processed); st.Processed == 0 || perEvent > 0.7 {
		t.Errorf("%d relinks over %d events (%.3f per event), want at most 0.7 per event",
			st.Relinks, st.Processed, perEvent)
	}
}

func TestRunParaleonScheme(t *testing.T) {
	scale := QuickScale()
	sc := ParaleonScheme()
	// Short SA session for test speed.
	sc.SystemCfg.SA.TotalIterNum = 5
	sc.SystemCfg.SA.InitialTemp = 30
	sc.SystemCfg.SA.CoolingRate = 0.5
	r, err := Run(RunConfig{
		Net:      scale.Net,
		Scheme:   sc,
		Interval: scale.Interval,
		Duration: 40 * eventsim.Millisecond,
		Workload: fbPoisson(0.4, 40*eventsim.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Triggers == 0 {
		t.Error("Paraleon never triggered on workload onset")
	}
	if r.Dispatches == 0 {
		t.Error("no parameter dispatches")
	}
	if len(r.UtilTrace) == 0 {
		t.Error("empty utility trace")
	}
	for i := 1; i < len(r.UtilTrace); i++ {
		if r.UtilTrace[i] < r.UtilTrace[i-1]-1e-9 {
			t.Fatalf("best-so-far trace decreased at %d", i)
		}
	}
}

func TestRunEachBaselineKind(t *testing.T) {
	scale := QuickScale()
	for _, sc := range []Scheme{ACCScheme(), DCQCNPlusScheme()} {
		r, err := Run(RunConfig{
			Net:        scale.Net,
			Scheme:     sc,
			Interval:   scale.Interval,
			Duration:   15 * eventsim.Millisecond,
			DrainAfter: true,
			Workload:   fbPoisson(0.3, 15*eventsim.Millisecond),
		})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if r.TP.Len() == 0 || len(r.Net.Completed) == 0 {
			t.Errorf("%s: empty results", sc.Name)
		}
	}
}

// TestRunDrainsToReceiverCompletion: rack 0 blasts one host of rack 1
// with ECN off, so the senders stay at line rate, fill the ToR until PFC
// throttles them and hand over their last packets with ~4 MB — over three
// intervals of the 10 Gbps uplink — still queued in the fabric. The drain
// must wait for the receivers' records, not the senders' hand-over; a drain
// that MaxTime cuts short must count the flows it leaves behind.
func TestRunDrainsToReceiverCompletion(t *testing.T) {
	scale := QuickScale()
	sc := DefaultScheme()
	sc.Static.KminBytes, sc.Static.KmaxBytes = 1<<40, 2<<40
	const senders = 4
	cfg := RunConfig{
		Net: scale.Net, Scheme: sc, Interval: scale.Interval,
		Duration: scale.Interval, DrainAfter: true,
		Workload: func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			for _, src := range hosts[:senders] {
				n.StartFlow(src, hosts[senders], 2<<20)
			}
			return nil
		},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Net.Completed) != senders || r.Incomplete != 0 {
		t.Errorf("drained run: %d of %d flows recorded, Incomplete = %d", len(r.Net.Completed), senders, r.Incomplete)
	}
	var pfc int64
	for _, sw := range r.Net.Switches {
		pfc += sw.Stats.PFCTriggers
	}
	if pfc == 0 {
		t.Error("no PFC: the incast no longer holds its tail in the fabric")
	}

	cfg.MaxTime = 3 * scale.Interval
	r, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Incomplete == 0 || len(r.Net.Completed)+r.Incomplete != senders {
		t.Errorf("run cut at MaxTime: %d flows recorded, Incomplete = %d, want them to add up to %d with some incomplete",
			len(r.Net.Completed), r.Incomplete, senders)
	}
}

func TestRunWithAccuracyTracking(t *testing.T) {
	scale := QuickScale()
	r, err := Run(RunConfig{
		Net:           scale.Net,
		Scheme:        ParaleonScheme(),
		Interval:      scale.Interval,
		Duration:      20 * eventsim.Millisecond,
		TrackAccuracy: true,
		Workload:      fbPoisson(0.3, 20*eventsim.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy.Len() == 0 {
		t.Fatal("no accuracy samples")
	}
	acc := r.MeanAccuracy()
	if acc < 0.5 || acc > 1 {
		t.Errorf("mean accuracy %g implausible", acc)
	}
}

// TestRunKeepsEverySample: a run longer than series.DefaultCapacity ticks
// keeps one sample per tick in every result series, so a long run cannot
// halve a figure table's resolution.
func TestRunKeepsEverySample(t *testing.T) {
	const interval = 100 * eventsim.Microsecond
	const ticks = series.DefaultCapacity + 88
	sc := ParaleonScheme()
	sc.SystemCfg.Telemetry = telemetry.NewRegistry()
	r, err := Run(RunConfig{
		Net:           QuickScale().Net,
		Scheme:        sc,
		Interval:      interval,
		Duration:      ticks * interval,
		TrackAccuracy: true,
		Workload: func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			n.StartFlow(hosts[0], hosts[len(hosts)-1], 1<<40)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*series.Series{
		"TP": r.TP, "RTT": r.RTT, "PFC": r.PFC, "Utility": r.Utility, "Accuracy": r.Accuracy,
	} {
		if s.Len() != ticks || s.Stride() != 1 {
			t.Errorf("%s: %d samples at stride %d, want %d at stride 1", name, s.Len(), s.Stride(), ticks)
		}
	}
}

// TestRunRejectsDrops holds Run to the fabric's lossless promise. PFC
// keeps a switch from dropping only while its buffer covers the pause
// headroom; shrunk far below that under a 6-to-1 incast, the switches
// drop, and Run must fail naming the count, after writing the flight
// recorder's artifact with the failure in it.
func TestRunRejectsDrops(t *testing.T) {
	scale := QuickScale()
	scale.Net.Switch.BufferBytes = 16 << 10
	sc := DefaultScheme()
	sc.SystemCfg.Telemetry = telemetry.NewRegistry()
	var bb bytes.Buffer
	_, err := Run(RunConfig{
		Net:      scale.Net,
		Scheme:   sc,
		Interval: scale.Interval,
		Duration: 5 * eventsim.Millisecond,
		Blackbox: &bb,
		Workload: func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			for _, h := range hosts[1:7] {
				n.StartFlow(h, hosts[0], 1<<20)
			}
			return nil
		},
	})
	if err == nil || !regexp.MustCompile(`[1-9][0-9]* packets dropped`).MatchString(err.Error()) {
		t.Fatalf("Run error %v, want the drop count", err)
	}
	a, lerr := series.Load(&bb)
	if lerr != nil {
		t.Fatalf("artifact: %v", lerr)
	}
	if len(a.Anomalies) == 0 || a.Anomalies[len(a.Anomalies)-1].Kind != "lossless" {
		t.Errorf("artifact anomalies %+v, want a lossless one last", a.Anomalies)
	}
}
