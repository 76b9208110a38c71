package harness

import (
	"strings"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func fbWorkload(load float64, dur eventsim.Time) func(n *sim.Network) error {
	return func(n *sim.Network) error {
		_, err := workload.InstallPoisson(n, workload.PoissonConfig{
			CDF: workload.FBHadoop(), Load: load, Duration: dur,
		})
		return err
	}
}

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
		Workload:   fbWorkload(0.3, 20*eventsim.Millisecond),
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
	var rep strings.Builder
	sc.SystemCfg.Telemetry.BuildReport().Fprint(&rep)
	if !strings.Contains(rep.String(), "  ports: ") {
		t.Errorf("report has no ports line:\n%s", rep.String())
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
		Workload: fbWorkload(0.4, 40*eventsim.Millisecond),
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
			Workload:   fbWorkload(0.3, 15*eventsim.Millisecond),
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
		Workload:      fbWorkload(0.3, 20*eventsim.Millisecond),
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

func TestTable2(t *testing.T) {
	res, err := Table2(QuickScale(), 6, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		d, e := row.AlgBwGBs["default"], row.AlgBwGBs["expert"]
		if d <= 0 || e <= 0 {
			t.Errorf("size %dMB: non-positive bandwidth %g/%g", row.TotalPerRankMB, d, e)
		}
		// The Table II direction: expert should not lose materially.
		if e < 0.85*d {
			t.Errorf("size %dMB: expert %g much worse than default %g", row.TotalPerRankMB, e, d)
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "Table II") {
		t.Error("Fprint missing header")
	}
}

func TestFig5ShapeAndDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	res, err := Fig5(QuickScale(), 10*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 4 {
		t.Fatalf("%d curves", len(res.Order))
	}
	for _, name := range res.Order {
		pts := res.Curves[name]
		if len(pts) != 5 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		for _, pt := range pts {
			if pt.TP < 0 || pt.TP > 1 || pt.RTTNorm <= 0 || pt.RTTNorm > 1 {
				t.Errorf("%s value %g: out-of-range metrics %+v", name, pt.Value, pt)
			}
		}
	}
	// Directional check from §III-C: raising Kmax (throughput-friendly)
	// deepens standing queues, so normalized RTT must degrade.
	kmax := res.Curves["kmax"]
	if kmax[len(kmax)-1].RTTNorm >= kmax[0].RTTNorm {
		t.Errorf("kmax sweep: RTTnorm %g at 6400KB not worse than %g at 400KB",
			kmax[len(kmax)-1].RTTNorm, kmax[0].RTTNorm)
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "hai_rate") {
		t.Error("Fprint missing curves")
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	res, err := Fig6(QuickScale(), 8*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TP) != 4 || len(res.TP[0]) != 4 {
		t.Fatalf("TP surface %dx%d", len(res.TP), len(res.TP[0]))
	}
	for i := range res.TP {
		for j := range res.TP[i] {
			if res.TP[i][j] < 0 || res.TP[i][j] > 1 {
				t.Errorf("TP[%d][%d] = %g", i, j, res.TP[i][j])
			}
			if res.RTT[i][j] <= 0 || res.RTT[i][j] > 1 {
				t.Errorf("RTT[%d][%d] = %g", i, j, res.RTT[i][j])
			}
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "inter-parameter") {
		t.Error("Fprint missing header")
	}
}

func TestFig7FB(t *testing.T) {
	res, err := Fig7FB(QuickScale(), []Scheme{DefaultScheme(), ParaleonScheme()}, 0.3, 25*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 2 {
		t.Fatalf("%d schemes", len(res.Order))
	}
	for _, name := range res.Order {
		total := 0
		for _, b := range res.PerScheme[name] {
			total += b.Count
			if b.Count > 0 && b.Mean < 1 {
				t.Errorf("%s %s: mean slowdown %g < 1", name, b.Label, b.Mean)
			}
		}
		if total == 0 {
			t.Errorf("%s: no flows bucketed", name)
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "p99.9") {
		t.Error("Fprint missing p99.9 section")
	}
}

func TestFig7LLM(t *testing.T) {
	res, err := Fig7LLM(QuickScale(), []Scheme{DefaultScheme(), ExpertScheme()}, []int{4, 6}, 512<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, wc := range res.WorkerCounts {
		for _, name := range res.Order {
			if res.Tails[wc][name] <= 0 {
				t.Errorf("workers %d scheme %s: p99 %g", wc, name, res.Tails[wc][name])
			}
			cdf := res.CDFs[wc][name]
			if len(cdf) == 0 {
				t.Errorf("workers %d scheme %s: empty CDF", wc, name)
			}
		}
	}
}

func TestRunInflux(t *testing.T) {
	spec := DefaultInfluxSpec()
	spec.Horizon = 60 * eventsim.Millisecond
	spec.BurstAt = 20 * eventsim.Millisecond
	spec.BurstLen = 15 * eventsim.Millisecond
	res, err := RunInflux(QuickScale(), []Scheme{DefaultScheme(), ParaleonScheme()}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.Order {
		if res.TP[name].Len() != 60 {
			t.Errorf("%s: %d TP samples, want 60", name, res.TP[name].Len())
		}
		ph := res.TPPhases[name]
		for i, v := range ph {
			if v < 0 || v > 1 {
				t.Errorf("%s phase %d TP %g", name, i, v)
			}
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "influx") {
		t.Error("Fprint missing header")
	}
}

func TestPretrainedSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("pretraining skipped in -short")
	}
	spec := DefaultInfluxSpec()
	p1, p2, err := PretrainedSchemes(QuickScale(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Name != "pretrained1" || p2.Name != "pretrained2" {
		t.Errorf("names %q/%q", p1.Name, p2.Name)
	}
	if err := p1.Static.Validate(); err != nil {
		t.Errorf("pretrained1 invalid: %v", err)
	}
	if err := p2.Static.Validate(); err != nil {
		t.Errorf("pretrained2 invalid: %v", err)
	}
}

func TestFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("monitoring comparison skipped in -short")
	}
	res, err := Fig10(QuickScale(), []float64{0.3}, 25*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 4 {
		t.Fatalf("%d arms", len(res.Order))
	}
	// Paraleon's FSD accuracy must beat NetFlow's.
	pAcc := res.Accuracy["paraleon"][0.3]
	nfAcc := res.Accuracy["netflow"][0.3]
	if !(pAcc > nfAcc) {
		t.Errorf("paraleon accuracy %g not above netflow %g", pAcc, nfAcc)
	}
	for _, arm := range res.Order {
		if s := res.MeanSlowdown[arm][0.3]; s < 1 {
			t.Errorf("%s slowdown %g < 1", arm, s)
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "FSD accuracy") {
		t.Error("Fprint missing accuracy section")
	}
}

func TestFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("interval sweep skipped in -short")
	}
	res, err := Fig11(QuickScale(), []float64{1, 4}, 0.3, 24*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []string{"elastic", "paraleon"} {
		for _, k := range res.Keys {
			if a := res.Accuracy[arm][k]; a <= 0 || a > 1 {
				t.Errorf("%s @%gms accuracy %g", arm, k, a)
			}
		}
	}
	// At the 1 ms interval the ternary design must not lose to naive
	// single-interval classification.
	if res.Accuracy["paraleon"][1] < res.Accuracy["elastic"][1] {
		t.Errorf("paraleon %g < elastic %g at 1ms", res.Accuracy["paraleon"][1], res.Accuracy["elastic"][1])
	}
}

func TestFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("SA convergence skipped in -short")
	}
	res, err := Fig12(QuickScale(), 80*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range res.Order {
		tr := res.Traces[arm]
		if len(tr) == 0 {
			t.Fatalf("%s: empty trace", arm)
		}
		for i, v := range tr {
			if v < 0 || v > 1 {
				t.Fatalf("%s: delivered utility %g at %d outside [0,1]", arm, v, i)
			}
		}
		if res.IterationsTo(arm, 0.9) < 0 {
			t.Errorf("%s: smoothed utility never reached 90%% of final", arm)
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "naive_sa") {
		t.Error("Fprint missing naive arm")
	}
}
