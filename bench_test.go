package paraleon

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Each benchmark regenerates its
// experiment at reproduction scale and reports the headline numbers as
// benchmark metrics; run with -v to see the full tables via b.Logf.
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the paper-vs-measured comparison for each.

import (
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// render captures a result's Fprint output for the bench log.
func render(fprint func(w io.Writer)) string {
	var sb strings.Builder
	fprint(&sb)
	return sb.String()
}

func BenchmarkTable2AlltoallDefaultVsExpert(b *testing.B) {
	var res *harness.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Table2(harness.QuickScale(), 6, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.AlgBwGBs["default"], "default-GB/s")
	b.ReportMetric(last.AlgBwGBs["expert"], "expert-GB/s")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig5SingleParamImpact(b *testing.B) {
	var res *harness.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig5(harness.QuickScale(), 10*eventsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	kmax := res.Curves["kmax"]
	b.ReportMetric(kmax[0].RTTNorm-kmax[len(kmax)-1].RTTNorm, "kmax-rtt-spread")
	hai := res.Curves["hai_rate"]
	b.ReportMetric(hai[len(hai)-1].TP-hai[0].TP, "hai-tp-spread")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig6InterParamImpact(b *testing.B) {
	var res *harness.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig6(harness.QuickScale(), 8*eventsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Non-monotonicity score: count sign changes along the
	// "both-throughput-friendly" diagonal.
	signChanges := 0
	for i := 2; i < len(res.TP); i++ {
		d1 := res.TP[i-1][i-1] - res.TP[i-2][i-2]
		d2 := res.TP[i][i] - res.TP[i-1][i-1]
		if d1*d2 < 0 {
			signChanges++
		}
	}
	b.ReportMetric(float64(signChanges), "diag-sign-changes")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig7FBHadoopFCT(b *testing.B) {
	var res *harness.Fig7FBResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig7FB(harness.QuickScale(), harness.AllSchemes(), 0.3, 40*eventsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: mean slowdown of the >1MB (elephant) bucket.
	eleBucket := func(name string) float64 {
		bs := res.PerScheme[name]
		return bs[len(bs)-1].Mean
	}
	b.ReportMetric(eleBucket("default"), "default-elephant-slowdown")
	b.ReportMetric(eleBucket("paraleon"), "paraleon-elephant-slowdown")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig7LLMTrainingFCT(b *testing.B) {
	var res *harness.Fig7LLMResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig7LLM(harness.QuickScale(), harness.AllSchemes(), []int{4, 6}, 1<<20, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Tails[6]["default"], "default-p99-ms")
	b.ReportMetric(res.Tails[6]["paraleon"], "paraleon-p99-ms")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig8InfluxTimeline(b *testing.B) {
	var res *harness.InfluxResult
	spec := harness.DefaultInfluxSpec()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunInflux(harness.QuickScale(), harness.AllSchemes(), spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RTTPhases["paraleon"][1], "paraleon-burst-rttnorm")
	b.ReportMetric(res.RTTPhases["default"][1], "default-burst-rttnorm")
	b.ReportMetric(res.TPPhases["paraleon"][2], "paraleon-after-tp")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig9PretrainedComparison(b *testing.B) {
	spec := harness.DefaultInfluxSpec()
	var res *harness.InfluxResult
	for i := 0; i < b.N; i++ {
		p1, p2, err := harness.PretrainedSchemes(harness.QuickScale(), spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err = harness.RunInflux(harness.QuickScale(),
			[]harness.Scheme{p1, p2, harness.ParaleonScheme()}, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RTTPhases["paraleon"][1], "paraleon-burst-rttnorm")
	b.ReportMetric(res.RTTPhases["pretrained1"][1], "pretrained1-burst-rttnorm")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig10MonitoringComparison(b *testing.B) {
	var res *harness.MonitoringResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig10(harness.QuickScale(), []float64{0.3, 0.5, 0.7}, 30*eventsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Accuracy["paraleon"][0.3], "paraleon-accuracy")
	b.ReportMetric(res.Accuracy["netflow"][0.3], "netflow-accuracy")
	b.ReportMetric(res.Accuracy["elastic"][0.3], "elastic-accuracy")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig11MonitorInterval(b *testing.B) {
	var res *harness.MonitoringResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig11(harness.QuickScale(), []float64{1, 2, 4, 8}, 0.3, 32*eventsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Accuracy["paraleon"][1], "paraleon-acc-1ms")
	b.ReportMetric(res.Accuracy["elastic"][1], "elastic-acc-1ms")
	b.ReportMetric(res.Accuracy["elastic"][8], "elastic-acc-8ms")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig12SAConvergence(b *testing.B) {
	var res *harness.Fig12Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig12(harness.QuickScale(), 350*eventsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SteadyUtility("paraleon"), "paraleon-steady-utility")
	b.ReportMetric(res.SteadyUtility("naive_sa"), "naive-steady-utility")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig13TestbedAlltoall(b *testing.B) {
	var res *harness.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig13(harness.QuickScale(), []int{4, 6, 8}, 1<<20, 100*eventsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GoodputGbps[8]["default"], "default-8w-Gbps")
	b.ReportMetric(res.GoodputGbps[8]["paraleon"], "paraleon-8w-Gbps")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkFig14TestbedInflux(b *testing.B) {
	spec := harness.TestbedInfluxSpec()
	var res *harness.Fig14Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Fig14(harness.QuickScale(), spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	from, to := spec.BurstAt, spec.BurstAt+spec.BurstLen
	b.ReportMetric(res.RTT["paraleon"].MeanOver(from, to), "paraleon-burst-rttnorm")
	b.ReportMetric(res.RTT["default"].MeanOver(from, to), "default-burst-rttnorm")
	b.Log("\n" + render(res.Fprint))
}

func BenchmarkTable4Overheads(b *testing.B) {
	var res *harness.Table4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Table4(harness.QuickScale(), 30*eventsim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SwitchToControllerBytes), "switch-to-ctrl-B")
	b.ReportMetric(float64(res.ControllerToFabricBytes), "ctrl-to-fabric-B")
	b.ReportMetric(float64(res.ProcessingPerTick.Microseconds()), "ctrl-us/tick")
	b.Log("\n" + render(res.Fprint))
}

// --- Ablations (DESIGN.md §Design choices) ---

// BenchmarkAblationGuidedRandomness isolates Optimization 1: guided vs
// unguided mutation under the same relaxed temperature schedule.
func BenchmarkAblationGuidedRandomness(b *testing.B) {
	var guided, unguided float64
	for i := 0; i < b.N; i++ {
		run := func(g bool) float64 {
			sc := harness.ParaleonScheme()
			sc.SystemCfg.SA.Guided = g
			r, err := harness.Run(harness.RunConfig{
				Net:      harness.QuickScale().Net,
				Scheme:   sc,
				Interval: eventsim.Millisecond,
				Duration: 120 * eventsim.Millisecond,
				Workload: func(n *sim.Network) error {
					_, err := workload.InstallPoisson(n, workload.PoissonConfig{
						CDF: workload.FBHadoop(), Load: 0.4,
					})
					return err
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			// Settled quality: mean delivered utility over the final third.
			vals := r.Utility.Values
			tail := vals[len(vals)*2/3:]
			var sum float64
			for _, v := range tail {
				sum += v
			}
			return sum / float64(len(tail))
		}
		guided = run(true)
		unguided = run(false)
	}
	b.ReportMetric(guided, "guided-steady-utility")
	b.ReportMetric(unguided, "unguided-steady-utility")
}

// BenchmarkAblationTemperature isolates Optimization 2: relaxed vs
// classical schedule length (both guided).
func BenchmarkAblationTemperature(b *testing.B) {
	relaxed := tuner.DefaultSAConfig()
	classical := tuner.NaiveSAConfig()
	classical.Guided = true
	for i := 0; i < b.N; i++ {
		_ = relaxed.SessionIterations()
		_ = classical.SessionIterations()
	}
	b.ReportMetric(float64(relaxed.SessionIterations()), "relaxed-session-iters")
	b.ReportMetric(float64(classical.SessionIterations()), "classical-session-iters")
}

// accuracyWith runs the FB workload and scores an agent configuration's
// FSD against ground truth.
func accuracyWith(b *testing.B, agentCfg monitor.AgentConfig) float64 {
	n, err := sim.New(harness.QuickScale().Net)
	if err != nil {
		b.Fatal(err)
	}
	var est, truth []monitor.ReportSource
	for i, tor := range n.Topo.ToRs() {
		o := monitor.NewOracle(n.Topo, tor, 1<<20, n.FlowSize)
		a := monitor.NewSwitchAgent(agentCfg, uint64(i+1))
		monitor.TapAll(n.Switch(tor), o.OnPacket, a.OnPacket)
		truth = append(truth, o)
		est = append(est, a)
	}
	if _, err := workload.InstallPoisson(n, workload.PoissonConfig{
		CDF: workload.FBHadoop(), Load: 0.4,
	}); err != nil {
		b.Fatal(err)
	}
	estCtl := monitor.NewController(0.01, est...)
	truthCtl := monitor.NewController(0.01, truth...)
	var sum float64
	ticks := 0
	for mi := 1; mi <= 30; mi++ {
		n.Run(eventsim.Time(mi) * eventsim.Millisecond)
		e := estCtl.Tick()
		tr := truthCtl.Tick()
		if tr.TotalBytes == 0 {
			continue
		}
		sum += monitor.Accuracy(e, tr)
		ticks++
	}
	if ticks == 0 {
		return math.NaN()
	}
	return sum / float64(ticks)
}

// BenchmarkAblationInsertOnce isolates Keypoint 1: TOS insert-once vs
// overlapping sketches (ternary kept on in both arms).
func BenchmarkAblationInsertOnce(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		on := monitor.ParaleonAgentConfig()
		off := monitor.ParaleonAgentConfig()
		off.InsertOnce = false
		with = accuracyWith(b, on)
		without = accuracyWith(b, off)
	}
	b.ReportMetric(with, "insert-once-accuracy")
	b.ReportMetric(without, "overlap-accuracy")
}

// BenchmarkAblationTernaryWindow isolates Keypoint 2: sliding-window
// ternary states vs single-interval classification (insert-once kept on).
func BenchmarkAblationTernaryWindow(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		on := monitor.ParaleonAgentConfig()
		off := monitor.ParaleonAgentConfig()
		off.Ternary = false
		with = accuracyWith(b, on)
		without = accuracyWith(b, off)
	}
	b.ReportMetric(with, "ternary-accuracy")
	b.ReportMetric(without, "single-interval-accuracy")
}

// BenchmarkAblationUtilityWeights compares the operator weight presets on
// the same elephant-heavy workload: throughput weights should end with
// higher utilization, default (delay-leaning) weights with better RTT.
func BenchmarkAblationUtilityWeights(b *testing.B) {
	var tpWeighted, delayWeighted [2]float64 // {meanTP, meanRTT}
	run := func(w tuner.Weights) [2]float64 {
		sc := harness.ParaleonScheme()
		sc.SystemCfg.Weights = w
		r, err := harness.Run(harness.RunConfig{
			Net:      harness.QuickScale().Net,
			Scheme:   sc,
			Interval: eventsim.Millisecond,
			Duration: 100 * eventsim.Millisecond,
			Workload: func(n *sim.Network) error {
				_, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
					Workers:      n.Topo.Hosts()[:6],
					MessageBytes: 2 << 20,
					OffTime:      2 * eventsim.Millisecond,
				})
				return err
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		half := 50 * eventsim.Millisecond
		return [2]float64{
			r.TP.MeanOver(half, 100*eventsim.Millisecond),
			r.RTT.MeanOver(half, 100*eventsim.Millisecond),
		}
	}
	for i := 0; i < b.N; i++ {
		tpWeighted = run(tuner.ThroughputWeights())
		delayWeighted = run(tuner.DefaultWeights())
	}
	b.ReportMetric(tpWeighted[0], "tp-weights-mean-tp")
	b.ReportMetric(delayWeighted[0], "default-weights-mean-tp")
	b.ReportMetric(tpWeighted[1], "tp-weights-mean-rttnorm")
	b.ReportMetric(delayWeighted[1], "default-weights-mean-rttnorm")
}

// BenchmarkEngineThroughput measures raw simulator speed on a saturated
// incast: events per second, time and heap allocations per event. These
// are the headline numbers the zero-allocation hot path is judged by (see
// EXPERIMENTS.md "Simulator performance").
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		n, err := sim.New(sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		hosts := n.Topo.Hosts()
		for j := 1; j < 8; j++ {
			n.StartFlow(hosts[j], hosts[0], 2<<20)
		}
		n.RunUntilIdle(eventsim.Second)
		events += n.Eng.Processed
	}
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(events), "allocs/event")
}

// BenchmarkEngineThroughputTimerHeavy isolates the timer subsystem: a
// fleet of 2048 hosts × 4 QPs = 8192 DCQCN reaction points driving the
// engine with nothing but recurring timers (alpha decay every 55 µs, rate
// increase every 300 µs), plus CNP injectors poking half of the QPs so
// cut/re-arm churn and — in the suppressed arm — park/unpark transitions
// stay on the hot path.
//
// Two arms on identical workloads:
//
//	wheel          the engine as is
//	wheel+suppress quiescent-QP suppression (un-poked QPs park)
//
// The suppressed arm skips provably no-op fires, so its events/run drops —
// that arm's win shows up in ns of wall clock per simulated second.
func BenchmarkEngineThroughputTimerHeavy(b *testing.B) {
	const (
		hosts   = 2048
		qps     = 4 // QPs per host
		nRP     = hosts * qps
		horizon = 10 * eventsim.Millisecond
	)
	run := func(b *testing.B, suppress bool) {
		b.ReportAllocs()
		var events uint64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < b.N; i++ {
			b.StopTimer() // fleet construction is identical across arms; time only the run
			eng := eventsim.NewEngine(7)
			// Pre-size the slab for the fleet's pending-timer
			// high-water mark so the measured region allocates nothing.
			eng.Reserve(3 * nRP)
			params := dcqcn.DefaultParams()
			// Alpha starts fully decayed: the alpha timer fires no-op decays
			// (and under suppression parks immediately), matching a fleet of
			// long-idle QPs — the workload suppression exists for.
			params.InitialAlpha = 0
			rps := make([]*dcqcn.RP, nRP)
			for j := range rps {
				rps[j] = dcqcn.NewRP(eng, func() *dcqcn.Params { return &params }, 100e9)
				rps[j].SetSuppression(suppress)
				rps[j].Start()
			}
			// CNP injectors: every 2nd QP takes a CNP roughly every 11 µs,
			// phases staggered so fires spread across wheel slots. Implemented
			// as self-rearming timers — the recurring-timer pattern the
			// RearmAfter path is built for. Each CNP re-arms the victim's
			// live increase timer in place (the OnCNP cut path). In the
			// suppressed arm injected QPs also exercise park/unpark.
			const injectEvery = 11*eventsim.Microsecond + 7
			for j := 0; j < nRP; j += 2 {
				j := j
				var inject eventsim.Handler
				var ev eventsim.EventID
				inject = func() {
					rps[j].OnCNP()
					ev = eng.RearmAfter(ev, injectEvery, inject)
				}
				ev = eng.TimerAfter(eventsim.Time(j%100)*eventsim.Microsecond/100+1, inject)
			}
			b.StartTimer()
			eng.RunUntil(horizon)
			events += eng.Processed
		}
		runtime.ReadMemStats(&ms1)
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(events), "allocs/event")
	}
	b.Run("wheel", func(b *testing.B) { run(b, false) })
	b.Run("wheel+suppress", func(b *testing.B) { run(b, true) })
}

// --- Extensions beyond the paper's evaluation ---

// BenchmarkExtensionPartitioned compares one homogeneous controller
// against per-rack controllers (§V) on a fabric whose racks run opposite
// workloads: the partitioned deployment should serve both masters.
func BenchmarkExtensionPartitioned(b *testing.B) {
	var homoRTT, partRTT, homoTP, partTP float64
	for i := 0; i < b.N; i++ {
		run := func(partitioned bool) (tp, rtt float64) {
			n, err := sim.New(harness.QuickScale().Net)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultSystemConfig()
			cfg.SA = tuner.ShortSAConfig()
			var systems []*core.System
			if partitioned {
				tors := n.Topo.ToRs()
				systems, err = core.AttachPartitioned(n, cfg, [][]topology.NodeID{{tors[0]}, {tors[1]}})
			} else {
				var s *core.System
				s, err = core.Attach(n, cfg)
				systems = []*core.System{s}
			}
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range systems {
				s.Start()
			}
			hosts := n.Topo.Hosts()
			if _, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
				Workers: hosts[:4], MessageBytes: 4 << 20, OffTime: 2 * eventsim.Millisecond,
			}); err != nil {
				b.Fatal(err)
			}
			if _, err := workload.InstallPoisson(n, workload.PoissonConfig{
				Hosts: hosts[4:], CDF: workload.SolarRPC(), Load: 0.4,
			}); err != nil {
				b.Fatal(err)
			}
			n.Run(80 * eventsim.Millisecond)
			// Training rack throughput + RPC rack delay, each from its
			// own scope in the partitioned case.
			if partitioned {
				return systems[0].LastSample.OTP, systems[1].LastSample.ORTT
			}
			return systems[0].LastSample.OTP, systems[0].LastSample.ORTT
		}
		homoTP, homoRTT = run(false)
		partTP, partRTT = run(true)
	}
	b.ReportMetric(homoTP, "homogeneous-train-tp")
	b.ReportMetric(partTP, "partitioned-train-tp")
	b.ReportMetric(homoRTT, "homogeneous-rpc-rttnorm")
	b.ReportMetric(partRTT, "partitioned-rpc-rttnorm")
}

// BenchmarkExtensionRNICMonitoring scores the §V per-QP-counter
// monitoring mode against the sketch-based design on the same traffic.
func BenchmarkExtensionRNICMonitoring(b *testing.B) {
	run := func(mode harness.FSDMode) float64 {
		sc := harness.ParaleonScheme()
		sc.FSDMode = mode
		r, err := harness.Run(harness.RunConfig{
			Net:           harness.QuickScale().Net,
			Scheme:        sc,
			Interval:      eventsim.Millisecond,
			Duration:      30 * eventsim.Millisecond,
			TrackAccuracy: true,
			Workload: func(n *sim.Network) error {
				_, err := workload.InstallPoisson(n, workload.PoissonConfig{
					CDF: workload.FBHadoop(), Load: 0.4,
				})
				return err
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		return r.MeanAccuracy()
	}
	var sketchAcc, rnicAcc float64
	for i := 0; i < b.N; i++ {
		sketchAcc = run(harness.FSDParaleon)
		rnicAcc = run(harness.FSDRNIC)
	}
	b.ReportMetric(sketchAcc, "sketch-accuracy")
	b.ReportMetric(rnicAcc, "rnic-counter-accuracy")
}
