package harness

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/topology"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// Experiments is the experiment table: every table and figure of the
// paper's evaluation, the ablations and extensions beyond it, the chaos
// runs and the tuner shootout, in the order `paraleon-sim -exp all` runs
// them. EXPERIMENTS.md prints beside each result the command that
// regenerates it.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "alltoall bandwidth: default vs expert (Table II)", "default", table2},
		{"fig5", "single-parameter impacts (Fig 5)", "", fig5},
		{"fig6", "inter-parameter impacts, rows rpg_time_reset x columns Kmax (Fig 6)", "", fig6},
		{"fig7fb", "FB_Hadoop FCT slowdown by flow size at 30% load, 5 schemes (Fig 7a,b)", "paraleon", fig7fb},
		{"fig7llm", "LLM training (alltoall) FCT tails, 5 schemes (Fig 7c,d)", "paraleon", fig7llm},
		{"fig8", "workload influx timeline, 5 schemes (Fig 8)", "paraleon", fig8},
		{"fig9", "pretrained statics vs adaptive Paraleon (Fig 9)", "paraleon", fig9},
		{"fig10", "monitoring designs: accuracy & FCT over load (Fig 10)", "paraleon", fig10},
		{"fig11", "monitor-interval sweep (Fig 11)", "paraleon", fig11},
		{"fig12", "SA convergence: guided+relaxed vs naive (Fig 12)", "paraleon", fig12},
		{"fig13", "testbed-mode alltoall goodput over worker count (Fig 13)", "paraleon", fig13},
		{"fig14", "testbed-mode influx with SolarRPC (Fig 14)", "paraleon", fig14},
		{"table4", "control-plane overheads (Table IV)", "", table4},
		{"ablation-sa", "guided vs unguided mutation, relaxed vs classical schedule", "guided", ablationSA},
		{"ablation-monitor", "insert-once and ternary window switched off one at a time", "paraleon", ablationMonitor},
		{"ablation-weights", "default vs throughput utility weights on an elephant alltoall", "default", ablationWeights},
		{"ext-partitioned", "one homogeneous controller vs per-rack controllers (§V)", "partitioned", extPartitioned},
		{"ext-rnic", "RNIC per-QP-counter monitoring vs switch sketches (§V)", "sketch", extRNIC},
		{"chaos-linkflap", "fabric uplink flaps; utility regression rolls parameters back", "", chaosRun(ChaosLinkFlapConfig)},
		{"chaos-agentcrash", "agent crash+restart; quorum freeze spans the outage", "", chaosRun(ChaosAgentCrashConfig)},
		{"chaos-ctrlpartition", "TCP control plane under frame faults + controller restart", "", chaosCtrlPartition},
		{"chaos-dispatch", "controller killed between dispatches; the restart resumes on the fabric's vector from the WAL", "", chaosDispatch},
		{"tuner-shootout", "every tuning strategy raced across alltoall, incast, and chaos-linkflap", "sa", tunerShootout},
	}
}

// Lookup finds an experiment of the table by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// allSchemes returns the five arms of Fig 7/8: two statics, two automatic
// baselines, and Paraleon.
func allSchemes() []Scheme {
	return []Scheme{DefaultScheme(), ExpertScheme(), ACCScheme(), DCQCNPlusScheme(), ParaleonScheme()}
}

// fbPoisson loads the fabric with FB_Hadoop Poisson arrivals at load for
// dur (0: for the whole run).
func fbPoisson(load float64, dur eventsim.Time) func(*sim.Network) error {
	return func(n *sim.Network) error {
		_, err := workload.InstallPoisson(n, workload.PoissonConfig{CDF: workload.FBHadoop(), Load: load, Duration: dur})
		return err
	}
}

// alltoall runs a sustained ON/OFF alltoall among the first workers hosts
// (at most all of them).
func alltoall(workers int, msg int64, off eventsim.Time) func(*sim.Network) error {
	return func(n *sim.Network) error {
		hosts := n.Topo.Hosts()
		_, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
			Workers: hosts[:min(workers, len(hosts))], MessageBytes: msg, OffTime: off,
		})
		return err
	}
}

// crossRackAlltoall is the 6-worker, 1 MB alltoall that loads the chaos
// runs and the tuner shootout.
var crossRackAlltoall = alltoall(6, 1<<20, eventsim.Millisecond)

// shootoutIncast is the tuner shootout's fan-in: up to six senders push
// 256 KB each to the first host, a new wave 0.5 ms after each one lands,
// until the run ends.
var shootoutIncast = func(n *sim.Network) error {
	hosts := n.Topo.Hosts()
	_, err := workload.InstallIncast(n, workload.IncastConfig{
		Aggregator: hosts[0], FanIn: min(6, len(hosts)-1), MessageBytes: 256 << 10, Gap: eventsim.Millisecond / 2,
	})
	return err
}

// --- Table II and Figs 5–6: static parameters ---

func table2(x Setup) []Arm {
	const workers = 6
	var arms []Arm
	for _, sc := range []Scheme{DefaultScheme(), ExpertScheme()} {
		for _, mb := range []int{1, 2, 4, 8} {
			col := fmt.Sprintf("%dMB", mb)
			arms = append(arms, Arm{Row: sc.Name, Key: col, Run: func(seed int64) ([]Cell, error) {
				n, err := x.network(seed, sc.Static)
				if err != nil {
					return nil, err
				}
				ws := min(workers, len(n.Topo.Hosts()))
				perPair := int64(mb) << 20 / int64(ws-1)
				g, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
					Workers: n.Topo.Hosts()[:ws], MessageBytes: perPair, Rounds: 1,
				})
				if err != nil {
					return nil, err
				}
				n.RunUntilIdle(60 * eventsim.Second)
				if g.RoundsDone != 1 {
					return nil, fmt.Errorf("round incomplete")
				}
				bw := float64(int64(ws-1)*perPair) / g.RoundDurations[0].Seconds() / 1e9
				return []Cell{{fmt.Sprintf("%dx%d alltoall algbw per rank (GB/s)", ws, ws), col, bw}}, nil
			}})
		}
	}
	return arms
}

// probe is the fixed-parameter arm the Fig 5/6 sweeps measure: a sustained
// 6-worker alltoall under p for the horizon.
func probe(x Setup, name string, p dcqcn.Params) RunConfig {
	return x.Scale.Config(StaticScheme(name, p), x.Horizon, alltoall(6, 2<<20, eventsim.Millisecond))
}

// fig5 sweeps each of the paper's four representative parameters one at a
// time, the others at their defaults.
func fig5(x Setup) []Arm {
	sweeps := []struct {
		name, unit string
		scale      float64
		values     []float64
	}{
		{"hai_rate", "Mbps", 1e6, []float64{50, 150, 300, 600, 1200}},
		{"rate_reduce_monitor_period", "us", float64(eventsim.Microsecond), []float64{4, 20, 50, 100, 200}},
		{"rpg_time_reset", "us", float64(eventsim.Microsecond), []float64{50, 100, 300, 600, 1200}},
		{"kmax", "KB", 1 << 10, []float64{400, 800, 1600, 3200, 6400}},
	}
	var arms []Arm
	for _, s := range sweeps {
		spec := dcqcn.SpecByName(s.name)
		for _, v := range s.values {
			p := dcqcn.DefaultParams()
			spec.Set(&p, spec.Clamp(v*s.scale))
			if p.KmaxBytes <= p.KminBytes {
				p.KminBytes = p.KmaxBytes / 4
			}
			row := fmt.Sprintf("%s=%g%s", s.name, v, s.unit)
			arms = append(arms, x.sim("", probe(x, row, p), func(r *Result) []Cell {
				const sec = "mean link utilization (TP) and mean normalized RTT"
				return []Cell{{sec, "TP", metrics.Mean(r.TP.Values())}, {sec, "RTTnorm", metrics.Mean(r.RTT.Values())}}
			}))
		}
	}
	return arms
}

// fig6 sweeps rpg_time_reset and Kmax jointly, exposing the
// non-monotonic inter-parameter surface of §III-C.
func fig6(x Setup) []Arm {
	var arms []Arm
	for _, us := range []float64{50, 150, 450, 1350} {
		for _, kb := range []float64{400, 1200, 3600, 7200} {
			p := dcqcn.DefaultParams()
			p.RPGTimeReset = eventsim.Time(us * float64(eventsim.Microsecond))
			p.KmaxBytes = int64(kb * (1 << 10))
			if p.KminBytes >= p.KmaxBytes {
				p.KminBytes = p.KmaxBytes / 4
			}
			col := fmt.Sprintf("%gKB", kb)
			arms = append(arms, x.sim(col, probe(x, fmt.Sprintf("reset=%gus", us), p), func(r *Result) []Cell {
				return []Cell{
					{"throughput (mean utilization)", col, metrics.Mean(r.TP.Values())},
					{"normalized RTT (higher = lower delay)", col, metrics.Mean(r.RTT.Values())},
				}
			}))
		}
	}
	return arms
}

// --- Figs 7–9: the five schemes ---

func fig7fb(x Setup) []Arm {
	var arms []Arm
	for _, sc := range allSchemes() {
		cfg := x.Scale.Config(sc, x.Horizon, fbPoisson(0.3, x.Horizon))
		cfg.DrainAfter, cfg.MaxTime = true, 10*x.Horizon
		arms = append(arms, x.sim("", cfg, func(r *Result) []Cell {
			var cs []Cell
			for _, b := range metrics.BucketizeSlowdowns(metrics.Slowdowns(r.Net, r.Net.Completed), metrics.DefaultSizeBuckets()) {
				cs = append(cs, Cell{"average slowdown", b.Label, b.Mean}, Cell{"p99.9 slowdown", b.Label, b.P999})
			}
			inc := float64(r.Incomplete)
			cs = append(cs, Cell{"average slowdown", Incomplete, inc}, Cell{"p99.9 slowdown", Incomplete, inc})
			if sc.Kind != KindParaleon {
				return cs
			}
			// Where the tuner left the fabric after the drain. The loop
			// tunes through it, so this is the drain session's winner,
			// not what the arrivals ran under or what the buckets paid
			// for (EXPERIMENTS.md, Fig 7(a,b)).
			p := r.Net.RNICParams()
			const sec = "paraleon tuner at the end of the run"
			return append(cs, Cell{sec, "sessions", float64(r.Rounds)}, Cell{sec, "dispatches", float64(r.Dispatches)},
				Cell{sec, "Kmin KB", float64(p.KminBytes) / 1024}, Cell{sec, "Kmax KB", float64(p.KmaxBytes) / 1024},
				Cell{sec, "Pmax", p.PMax}, Cell{sec, "MinRate Mbps", p.MinRateBps / 1e6})
		}))
	}
	return arms
}

func fig7llm(x Setup) []Arm {
	var arms []Arm
	for _, wc := range []int{4, 6} {
		col := fmt.Sprintf("%dx%d", wc, wc)
		for _, sc := range allSchemes() {
			cfg := x.Scale.Config(sc, 200*eventsim.Millisecond, func(n *sim.Network) error {
				_, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
					Workers: n.Topo.Hosts()[:wc], MessageBytes: 1 << 20, OffTime: 5 * eventsim.Millisecond, Rounds: 4,
				})
				return err
			})
			cfg.DrainAfter, cfg.MaxTime = true, 10*eventsim.Second
			arms = append(arms, Arm{Row: sc.Name, Key: col, Run: func(seed int64) ([]Cell, error) {
				r, err := x.run(cfg, col, seed)
				if err != nil {
					return nil, err
				}
				fcts := make([]float64, 0, len(r.Net.Completed))
				for _, rec := range r.Net.Completed {
					fcts = append(fcts, rec.FCT().Millis())
				}
				const sec = "p99 FCT (ms)"
				cells := []Cell{{sec, col, metrics.Percentile(fcts, 0.99)}, {sec, Incomplete, float64(r.Incomplete)}}
				return cells, x.cdf(sc.Name, col, seed, fcts)
			}})
		}
	}
	return arms
}

// influxSpec parameterizes the influx scenario of Figs 8, 9 and 14: an
// alltoall background with a Poisson burst on top.
type influxSpec struct {
	Workers   int
	Message   int64
	BurstAt   eventsim.Time
	BurstLen  eventsim.Time
	BurstLoad float64
	Horizon   eventsim.Time
}

// defaultInfluxSpec sizes the scenario for QuickScale/MediumScale runs.
func defaultInfluxSpec() influxSpec {
	return influxSpec{
		Workers:   4,
		Message:   2 << 20,
		BurstAt:   40 * eventsim.Millisecond,
		BurstLen:  50 * eventsim.Millisecond,
		BurstLoad: 0.5,
		Horizon:   150 * eventsim.Millisecond,
	}
}

// install loads the influx scenario with burst flow sizes from cdf.
func (spec influxSpec) install(cdf workload.SizeCDF) func(*sim.Network) error {
	return func(n *sim.Network) error {
		hosts := n.Topo.Hosts()
		if spec.Workers+2 > len(hosts) {
			return fmt.Errorf("influx: fabric too small")
		}
		_, err := workload.InstallInflux(n, workload.InfluxConfig{
			Background: workload.AlltoallConfig{
				Workers:      hosts[:spec.Workers],
				MessageBytes: spec.Message,
				OffTime:      5 * eventsim.Millisecond,
			},
			Burst: workload.PoissonConfig{
				Hosts: hosts, CDF: cdf, Load: spec.BurstLoad,
				Start: spec.BurstAt, Duration: spec.BurstLen,
			},
		})
		return err
	}
}

// phases are a series' means before, during and after the burst.
func (spec influxSpec) phases(sec string, s *series.Series) []Cell {
	at, end := int64(spec.BurstAt), int64(spec.BurstAt+spec.BurstLen)
	return []Cell{
		{sec, "before", s.MeanOver(0, at)},
		{sec, "during", s.MeanOver(at, end)},
		{sec, "after", s.MeanOver(end, int64(spec.Horizon))},
	}
}

// influxArm runs sc through the FB_Hadoop influx of spec.
func influxArm(x Setup, sc Scheme, spec influxSpec) Arm {
	return x.sim("", x.Scale.Config(sc, spec.Horizon, spec.install(workload.FBHadoop())), func(r *Result) []Cell {
		return append(spec.phases("throughput (mean utilization)", r.TP), spec.phases("normalized RTT (higher = better)", r.RTT)...)
	})
}

func fig8(x Setup) []Arm {
	var arms []Arm
	for _, sc := range allSchemes() {
		arms = append(arms, influxArm(x, sc, defaultInfluxSpec()))
	}
	return arms
}

// fig9 races Paraleon against two statics that Paraleon itself settled
// on offline: pretrained1 on the alltoall background alone, pretrained2
// on FB_Hadoop alone.
func fig9(x Setup) []Arm {
	spec := defaultInfluxSpec()
	pretrained := func(name string, train func(*sim.Network) error) Arm {
		return Arm{Row: name, Run: func(seed int64) ([]Cell, error) {
			p, err := pretrain(x.seeded(seed), train)
			if err != nil {
				return nil, err
			}
			return influxArm(x, StaticScheme(name, p), spec).Run(seed)
		}}
	}
	return []Arm{
		pretrained("pretrained1", alltoall(spec.Workers, spec.Message, 5*eventsim.Millisecond)),
		pretrained("pretrained2", fbPoisson(spec.BurstLoad, 0)),
		influxArm(x, ParaleonScheme(), spec),
	}
}

// pretrain runs Paraleon offline for 100 ms of train's traffic, with a
// session short enough to finish in it, and returns the vector it kept.
func pretrain(scale Scale, train func(*sim.Network) error) (dcqcn.Params, error) {
	sysCfg := core.DefaultSystemConfig()
	sysCfg.Interval = scale.Interval
	sysCfg.SA.TotalIterNum = 10
	sysCfg.SA.CoolingRate = 0.6
	n, err := sim.New(scale.Net)
	if err != nil {
		return dcqcn.Params{}, err
	}
	if err := train(n); err != nil {
		return dcqcn.Params{}, err
	}
	return core.Pretrain(n, sysCfg, 100*eventsim.Millisecond)
}

// --- Figs 10–11: monitoring designs ---

// monitoringScheme builds a Paraleon scheme whose FSD comes from mode.
func monitoringScheme(name string, mode FSDMode) Scheme {
	sc := ParaleonScheme()
	sc.Name = name
	sc.FSDMode = mode
	if mode == FSDNone {
		// No distribution: nothing can trigger tuning, and guidance is
		// meaningless — fall back to unguided search kicked off
		// manually (§IV-B3's No-FSD arm).
		sc.SystemCfg.SA.Guided = false
		sc.TriggerAtStart = true
	}
	return sc
}

// monitoringArm measures one FSD design's accuracy against ground truth
// and the FCT it buys, in column col of a sweep.
func monitoringArm(x Setup, sc Scheme, col string, interval eventsim.Time, load float64) Arm {
	cfg := x.Scale.Config(sc, x.Horizon, fbPoisson(load, x.Horizon))
	cfg.Interval = interval
	cfg.DrainAfter, cfg.MaxTime = true, 10*x.Horizon
	cfg.TrackAccuracy = sc.FSDMode != FSDNone
	return x.sim(col, cfg, func(r *Result) []Cell {
		return []Cell{
			{"FSD accuracy", col, r.MeanAccuracy()},
			{"mean FCT slowdown", col, r.Summary().MeanSlowdown},
			{"mean FCT slowdown", Incomplete, float64(r.Incomplete)},
		}
	})
}

func fig10(x Setup) []Arm {
	var arms []Arm
	for _, m := range []struct {
		name string
		mode FSDMode
	}{{"no-fsd", FSDNone}, {"netflow", FSDNetFlow}, {"elastic", FSDNaiveElastic}, {"paraleon", FSDParaleon}} {
		for _, load := range []float64{0.3, 0.5, 0.7} {
			sc := monitoringScheme(m.name, m.mode)
			arms = append(arms, monitoringArm(x, sc, fmt.Sprintf("load=%g", load), x.Scale.Interval, load))
		}
	}
	return arms
}

func fig11(x Setup) []Arm {
	var arms []Arm
	for _, m := range []struct {
		name string
		mode FSDMode
	}{{"elastic", FSDNaiveElastic}, {"paraleon", FSDParaleon}} {
		for _, ms := range []float64{1, 2, 4, 8} {
			interval := eventsim.Time(ms * float64(eventsim.Millisecond))
			sc := monitoringScheme(m.name, m.mode)
			arms = append(arms, monitoringArm(x, sc, fmt.Sprintf("%gms", ms), interval, 0.3))
		}
	}
	return arms
}

// --- Fig 12 and the SA ablation: delivered utility ---

// smoothed returns a trailing moving average of the trace (window 10).
func smoothed(tr []float64) []float64 {
	const w = 10
	out := make([]float64, len(tr))
	var sum float64
	for i, v := range tr {
		sum += v
		if i >= w {
			sum -= tr[i-w]
		}
		out[i] = sum / float64(min(i+1, w))
	}
	return out
}

// utilityCells condenses a delivered-utility trace: its length in
// intervals, the first and last values of its moving average (first,
// final), its mean, the mean of its final third (steady: the quality a
// search settled at), and the intervals until the moving average first
// reached 95% of final. An empty trace (no session ran) has 0 intervals,
// to-95% -1 and no other cell.
func utilityCells(sec string, u []float64) []Cell {
	first, final, to95 := math.NaN(), math.NaN(), -1
	if sm := smoothed(u); len(sm) > 0 {
		first, final = sm[0], sm[len(sm)-1]
		for i, v := range sm {
			if v >= 0.95*final {
				to95 = i
				break
			}
		}
	}
	return []Cell{
		{sec, "intervals", float64(len(u))}, {sec, "first", first}, {sec, "final", final}, {sec, "mean", metrics.Mean(u)},
		{sec, "steady", metrics.Mean(u[len(u)*2/3:])}, {sec, "to-95%", float64(to95)},
	}
}

// fig12 runs guided+relaxed SA (the Table III schedule) against naive SA
// long enough for a Table III session (~280 intervals) to complete.
func fig12(x Setup) []Arm {
	var arms []Arm
	for _, a := range []struct {
		name string
		sa   tuner.SAConfig
	}{{"paraleon", tuner.DefaultSAConfig()}, {"naive_sa", tuner.NaiveSAConfig()}} {
		sc := ParaleonScheme()
		sc.Name, sc.SystemCfg.SA = a.name, a.sa
		cfg := x.Scale.Config(sc, max(x.Horizon, 350*eventsim.Millisecond), fbPoisson(0.4, 0))
		arms = append(arms, x.sim("", cfg, func(r *Result) []Cell {
			// The trace's range: Equation 1 keeps every interval in [0,1].
			const sec = "delivered utility"
			u := r.Utility.Values()
			lo, hi := math.NaN(), math.NaN()
			if len(u) > 0 {
				lo, hi = slices.Min(u), slices.Max(u)
			}
			return append(utilityCells(sec, u), Cell{sec, "min", lo}, Cell{sec, "max", hi})
		}))
	}
	return arms
}

// ablationSA isolates Optimization 1 (guided vs unguided mutation, both
// under the compressed schedule, 120 ms of FB_Hadoop) and Optimization 2
// (the session length of the relaxed vs the classical schedule).
func ablationSA(x Setup) []Arm {
	var arms []Arm
	for _, guided := range []bool{true, false} {
		sc := ParaleonScheme()
		sc.Name, sc.SystemCfg.SA.Guided = "unguided", guided
		if guided {
			sc.Name = "guided"
		}
		arms = append(arms, x.sim("", x.Scale.Config(sc, 120*eventsim.Millisecond, fbPoisson(0.4, 0)), func(r *Result) []Cell {
			return utilityCells("delivered utility", r.Utility.Values())
		}))
	}
	classical := tuner.NaiveSAConfig()
	classical.Guided = true
	for _, s := range []struct {
		name string
		sa   tuner.SAConfig
	}{{"relaxed", tuner.DefaultSAConfig()}, {"classical", classical}} {
		arms = append(arms, Arm{Row: s.name, Run: func(int64) ([]Cell, error) {
			return []Cell{{"session length", "intervals", float64(s.sa.SessionIterations())}}, nil
		}})
	}
	return arms
}

// --- Figs 13–14 and Table IV: the TCP control plane ---

// lateGoodputGbps averages round goodput over rounds completing at or
// after the cutoff (all rounds if none qualify).
func lateGoodputGbps(g *workload.AlltoallGen, after eventsim.Time) float64 {
	var sum float64
	n := 0
	for r := 0; r < g.RoundsDone; r++ {
		if g.RoundEnds[r] >= after {
			sum += g.AggregateGoodputBps(r)
			n++
		}
	}
	if n == 0 {
		for r := 0; r < g.RoundsDone; r++ {
			sum += g.AggregateGoodputBps(r)
		}
		n = g.RoundsDone
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e9
}

// fig13 compares default, expert and TCP-control-plane Paraleon on a
// sustained alltoall at several scales. Every arm runs rounds for 100 ms;
// goodput is averaged over the rounds of the second half, so the adaptive
// arm is measured after its tuning settles, the way the paper reports
// steady-state testbed bandwidth.
func fig13(x Setup) []Arm {
	const dur = 100 * eventsim.Millisecond
	const sec = "mean aggregate alltoall goodput (Gbps) by worker count"
	var arms []Arm
	for _, wc := range []int{4, 6, 8} {
		col := fmt.Sprint(wc)
		install := func(n *sim.Network) (*workload.AlltoallGen, error) {
			return workload.InstallAlltoall(n, workload.AlltoallConfig{
				Workers: n.Topo.Hosts()[:wc], MessageBytes: 1 << 20, OffTime: 2 * eventsim.Millisecond,
			})
		}
		// Static arms run in plain simulation.
		for _, sc := range []Scheme{DefaultScheme(), ExpertScheme()} {
			arms = append(arms, Arm{Row: sc.Name, Key: col, Run: func(seed int64) ([]Cell, error) {
				n, err := x.network(seed, sc.Static)
				if err != nil {
					return nil, err
				}
				g, err := install(n)
				if err != nil {
					return nil, err
				}
				n.Run(dur)
				g.Stop()
				n.RunUntilIdle(dur + eventsim.Second)
				return []Cell{{sec, col, lateGoodputGbps(g, dur/2)}}, nil
			}})
		}
		// Paraleon runs behind the real control plane. Drain manually so
		// the generator stops launching rounds first — DrainAfter would
		// keep the collective running until MaxTime — and the wire loop
		// does not tick through the tail.
		arms = append(arms, Arm{Row: "paraleon", Key: col, Run: func(seed int64) ([]Cell, error) {
			var gen *workload.AlltoallGen
			r, err := x.run(testbedConfig(x.Scale, dur, func(n *sim.Network) (err error) {
				gen, err = install(n)
				return err
			}), col, seed)
			if err != nil {
				return nil, err
			}
			gen.Stop()
			for n := r.Net; n.Eng.Now() < dur+eventsim.Second && n.IncompleteFlows() > 0; {
				n.Run(n.Eng.Now() + x.Scale.Interval)
			}
			return []Cell{{sec, col, lateGoodputGbps(gen, dur/2)}}, nil
		}})
	}
	return arms
}

// fig14 runs the alltoall background with a SolarRPC burst: static arms
// in plain simulation, Paraleon behind the TCP control plane.
func fig14(x Setup) []Arm {
	// The SolarRPC burst arrives at a load the fabric can actually serve
	// once retuned: an overloaded burst grows queues monotonically no
	// matter the parameters, leaving nothing for any scheme to win.
	spec := defaultInfluxSpec()
	spec.BurstLoad = 0.35
	install := spec.install(workload.SolarRPC())
	cells := func(tp, rtt *series.Series) []Cell {
		const sec = "during the burst"
		from, to := int64(spec.BurstAt), int64(spec.BurstAt+spec.BurstLen)
		return []Cell{{sec, "TP", tp.MeanOver(from, to)}, {sec, "RTTnorm", rtt.MeanOver(from, to)}}
	}
	var arms []Arm
	for _, sc := range []Scheme{DefaultScheme(), ExpertScheme()} {
		arms = append(arms, x.sim("", x.Scale.Config(sc, spec.Horizon, install), func(r *Result) []Cell {
			return cells(r.TP, r.RTT)
		}))
	}
	return append(arms, x.sim("", testbedConfig(x.Scale, spec.Horizon, install), func(r *Result) []Cell {
		return cells(r.TP, r.RTT)
	}))
}

// table4 measures the control plane's overheads from a testbed run of
// FB_Hadoop at 30% load for the horizon.
func table4(x Setup) []Arm {
	return []Arm{{Row: "paraleon", Run: func(seed int64) ([]Cell, error) {
		r, err := x.run(testbedConfig(x.Scale, x.Horizon, fbPoisson(0.3, 0)), "", seed)
		if err != nil {
			return nil, err
		}
		st := r.Wire.Server
		const sec = "Paraleon system overheads (measured)"
		return []Cell{
			{sec, "switch->controller B per interval", float64(r.Wire.ReportBytes)},
			{sec, "controller->fabric B per interval", float64(r.Wire.ParamsBytes)},
			{sec, "controller compute us per tick", st.Processing.Seconds() * 1e6 / float64(max(st.Ticks, 1))},
			// Sketch: 512 heavy buckets (~32 B each) + 4×2048 light
			// counters (8 B each), plus tracker entries.
			{sec, "agent memory B (sketch+window)", 512*32 + 4*2048*8},
			{sec, "intervals processed", float64(st.Ticks)},
		}, nil
	}}}
}

// --- Ablations and extensions beyond the paper ---

// ablationMonitor scores the agent's FSD with Keypoint 1 (insert-once)
// and Keypoint 2 (the ternary window) switched off one at a time.
func ablationMonitor(x Setup) []Arm {
	on := monitor.ParaleonAgentConfig()
	overlap, single := on, on
	overlap.InsertOnce = false
	single.Ternary = false
	var arms []Arm
	for _, a := range []struct {
		name string
		cfg  monitor.AgentConfig
	}{{"paraleon", on}, {"overlap", overlap}, {"single-interval", single}} {
		arms = append(arms, Arm{Row: a.name, Run: func(seed int64) ([]Cell, error) {
			acc, err := sketchAccuracy(x, seed, a.cfg)
			return []Cell{{"FSD accuracy, 30 intervals of FB_Hadoop at 40% load", "accuracy", acc}}, err
		}})
	}
	return arms
}

// sketchAccuracy scores agents built from cfg against ground-truth
// oracles on the same taps, with no control loop, over 30 intervals.
func sketchAccuracy(x Setup, seed int64, cfg monitor.AgentConfig) (float64, error) {
	n, err := sim.New(x.seeded(seed).Net)
	if err != nil {
		return 0, err
	}
	var est, truth []loop.ReportSource
	for i, tor := range n.Topo.ToRs() {
		o := monitor.NewOracle(n.Topo, tor)
		a := monitor.NewSwitchAgent(cfg, uint64(i+1))
		monitor.TapAll(n.Switch(tor), o.OnPacket, a.OnPacket)
		truth = append(truth, o)
		est = append(est, a)
	}
	if err := fbPoisson(0.4, 0)(n); err != nil {
		return 0, err
	}
	estCtl, truthCtl := loop.NewController(0.01, est...), loop.NewController(0.01, truth...)
	var acc []float64
	for i := 1; i <= 30; i++ {
		n.Run(eventsim.Time(i) * x.Scale.Interval)
		e, tr := estCtl.Tick(), truthCtl.Tick()
		if tr.TotalBytes > 0 {
			acc = append(acc, monitor.Accuracy(e, tr))
		}
	}
	return metrics.Mean(acc), nil
}

// ablationWeights compares the operator weight presets on the same
// elephant-heavy alltoall: throughput weights should end with higher
// utilization, the default (delay-leaning) weights with better RTT.
func ablationWeights(x Setup) []Arm {
	const dur = 100 * eventsim.Millisecond
	var arms []Arm
	for _, w := range []struct {
		name string
		w    tuner.Weights
	}{{"default", tuner.DefaultWeights()}, {"throughput", tuner.ThroughputWeights()}} {
		sc := ParaleonScheme()
		sc.Name, sc.SystemCfg.Weights = w.name, w.w
		arms = append(arms, x.sim("", x.Scale.Config(sc, dur, alltoall(6, 2<<20, 2*eventsim.Millisecond)), func(r *Result) []Cell {
			const sec = "means over the second half"
			return []Cell{{sec, "TP", r.TP.MeanOver(int64(dur/2), int64(dur))}, {sec, "RTTnorm", r.RTT.MeanOver(int64(dur/2), int64(dur))}}
		}))
	}
	return arms
}

// extPartitioned compares one homogeneous controller with one controller
// per rack (§V) on a fabric whose first rack trains (alltoall) while the
// rest serve RPCs: the partitioned deployment should serve both.
func extPartitioned(x Setup) []Arm {
	var arms []Arm
	for _, partitioned := range []bool{false, true} {
		row := "homogeneous"
		if partitioned {
			row = "partitioned"
		}
		arms = append(arms, Arm{Row: row, Run: func(seed int64) ([]Cell, error) {
			n, err := sim.New(x.seeded(seed).Net)
			if err != nil {
				return nil, err
			}
			cfg := core.DefaultSystemConfig()
			cfg.SA = tuner.ShortSAConfig()
			tors := n.Topo.ToRs()
			var systems []*core.System
			if partitioned {
				systems, err = core.AttachPartitioned(n, cfg, [][]topology.NodeID{{tors[0]}, {tors[1]}})
			} else {
				var s *core.System
				s, err = core.Attach(n, cfg)
				systems = []*core.System{s, s}
			}
			if err != nil {
				return nil, err
			}
			systems[0].Start()
			if partitioned {
				systems[1].Start()
			}
			hosts := n.Topo.Hosts()
			if _, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
				Workers: hosts[:4], MessageBytes: 4 << 20, OffTime: 2 * eventsim.Millisecond,
			}); err != nil {
				return nil, err
			}
			if _, err := workload.InstallPoisson(n, workload.PoissonConfig{
				Hosts: hosts[4:], CDF: workload.SolarRPC(), Load: 0.4,
			}); err != nil {
				return nil, err
			}
			n.Run(80 * eventsim.Millisecond)
			// Training-rack throughput and RPC-rack delay, each from its
			// own scope when partitioned, then the ECN thresholds each
			// rack's switch ended on.
			const sec, ecn = "last interval", "converged ECN thresholds"
			cells := []Cell{{sec, "training TP", systems[0].LastSample.OTP}, {sec, "RPC RTTnorm", systems[1].LastSample.ORTT}}
			for i, tor := range tors[:2] {
				p, rack := n.SwitchParams(tor), fmt.Sprintf("rack %d ", i)
				cells = append(cells, Cell{ecn, rack + "Kmin KB", float64(p.KminBytes >> 10)},
					Cell{ecn, rack + "Kmax KB", float64(p.KmaxBytes >> 10)}, Cell{ecn, rack + "Pmax", p.PMax})
			}
			return cells, nil
		}})
	}
	return arms
}

// extRNIC scores the §V per-QP-counter monitoring mode against the
// sketch-based design on the same traffic, inside the closed loop.
func extRNIC(x Setup) []Arm {
	var arms []Arm
	for _, m := range []struct {
		name string
		mode FSDMode
	}{{"sketch", FSDParaleon}, {"rnic", FSDRNIC}} {
		sc := ParaleonScheme()
		sc.Name, sc.FSDMode = m.name, m.mode
		cfg := x.Scale.Config(sc, 30*eventsim.Millisecond, fbPoisson(0.4, 0))
		cfg.TrackAccuracy = true
		arms = append(arms, x.sim("", cfg, func(r *Result) []Cell {
			return []Cell{{"FSD accuracy", "accuracy", r.MeanAccuracy()}}
		}))
	}
	return arms
}

// --- Chaos runs and the tuner shootout ---

// chaosRun is the one-arm experiment of an in-simulation chaos scenario.
func chaosRun(build func(Scale, eventsim.Time, int64, io.Writer) RunConfig) func(Setup) []Arm {
	return func(x Setup) []Arm {
		return []Arm{{Row: x.exp, Run: func(seed int64) ([]Cell, error) {
			cfg := build(x.seeded(seed), x.Horizon, x.ChaosSeed, x.Trace)
			cfg.Blackbox, cfg.ScaleLabel = x.Blackbox, x.ScaleLabel
			r, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			return ledger(
				"mean TP", metrics.Mean(r.TP.Values()), "mean RTTnorm", metrics.Mean(r.RTT.Values()),
				"mean utility", metrics.Mean(r.Utility.Values()), "faults", r.Faults, "recoveries", r.Recovers,
				"frozen intervals", r.Sys.FrozenIntervals, "evictions", r.Sys.Controller.Evictions,
				"readmits", r.Sys.Controller.Readmits, "triggers", r.Triggers, "dispatches", r.Dispatches,
				"rollbacks", r.Sys.Rollbacks,
				"trace events", r.TraceEvents,
			), nil
		}}}
	}
}

func chaosCtrlPartition(x Setup) []Arm {
	return []Arm{{Row: x.exp, Run: func(seed int64) ([]Cell, error) {
		r, err := Run(ChaosCtrlPartitionConfig(x.seeded(seed), x.Horizon, x.ChaosSeed))
		if err != nil {
			return nil, err
		}
		w := r.Wire
		return ledger(
			"intervals", r.TP.Len(), "mean TP", metrics.Mean(r.TP.Values()), "dispatches", r.Dispatches,
			"injected drops", w.Drops, "injected dups", w.Dups, "injected truncs", w.Truncs,
			"server restarts", r.Kills, "reconnects", w.Reconnects,
			"agent errors", w.AgentErrors, "tick errors", w.TickErrors,
		), nil
	}}}
}

func chaosDispatch(x Setup) []Arm {
	return []Arm{{Row: x.exp, Run: func(seed int64) ([]Cell, error) {
		cfg := ChaosDispatchConfig(x.seeded(seed), x.Horizon, x.ChaosSeed, x.Trace)
		cfg.Blackbox = x.Blackbox
		r, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		d, dm := r.Sys.Dispatch, telemetry.NewDispatchMetrics(cfg.Scheme.SystemCfg.Telemetry)
		return ledger(
			"mean TP", metrics.Mean(r.TP.Values()), "mean utility", metrics.Mean(r.Utility.Values()),
			"faults", r.Faults, "recoveries", r.Recovers, "controller kills", r.Kills,
			"dispatches", r.Dispatches, "guard rejects", d.Guard().Rejects(),
			"wal records", dm.WALRecords.Value(), "replayed", d.WALReplayed(), "epoch", d.Epoch(),
			"fabric converged", d.Fabric().Converged(),
			"trace events", r.TraceEvents,
		), nil
	}}}
}

// ledger turns alternating column names and numbers (a bool counts as 0
// or 1) into the cells of a one-row "ledger" section.
func ledger(kv ...any) []Cell {
	cs := make([]Cell, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		var v float64
		switch n := kv[i+1].(type) {
		case int:
			v = float64(n)
		case int64:
			v = float64(n)
		case uint64:
			v = float64(n)
		case float64:
			v = n
		case bool:
			if n {
				v = 1
			}
		default:
			panic(fmt.Sprintf("harness: ledger value %v of type %T", n, n))
		}
		cs = append(cs, Cell{"ledger", kv[i].(string), v})
	}
	return cs
}

// shootoutSystemCfg compresses each strategy's session to the scale of
// tuner.ShortSAConfig so all of them settle within reproduction horizons,
// keeping the race about search quality rather than budget.
func shootoutSystemCfg(name string) core.SystemConfig {
	cfg := core.DefaultSystemConfig()
	cfg.SA = tuner.ShortSAConfig()
	cfg.Tuner = name
	cfg.Bandit = tuner.BanditConfig{Budget: 20}
	cfg.MultiECN = tuner.MultiECNConfig{Budget: 20}
	return cfg
}

// shootoutCells are one (strategy × workload) outcome: delivered utility
// and convergence, the mean PFC pause fraction (the safety dimension a
// tuner must not trade for throughput), and the loop's activity.
func shootoutCells(wl string, util, pfc []float64, sessions, dispatches, rollbacks int) []Cell {
	return append(utilityCells(wl, util),
		Cell{wl, "pause%", 100 * (1 - metrics.Mean(pfc))}, Cell{wl, "sessions", float64(sessions)},
		Cell{wl, "dispatches", float64(dispatches)}, Cell{wl, "rollbacks", float64(rollbacks)})
}

// tunerShootout races every strategy head-to-head across a
// sustained cross-rack alltoall, a fan-in incast, and the chaos-linkflap
// scenario with rollback armed. Within a workload every arm sees the same
// fabric, seed and horizon, so differences are the search strategy's.
func tunerShootout(x Setup) []Arm {
	var arms []Arm
	for _, wl := range []struct {
		name    string
		install func(*sim.Network) error
	}{{"alltoall", crossRackAlltoall}, {"incast", shootoutIncast}} {
		for _, name := range tuner.Names() {
			sc := ParaleonScheme()
			sc.Name, sc.SystemCfg = name, shootoutSystemCfg(name)
			// Strategies that never trigger never race: the alltoall OFF
			// gaps can keep KL below θ for short horizons, so force the
			// first session like the pretraining runs do.
			sc.TriggerAtStart = true
			arms = append(arms, x.sim(wl.name, x.Scale.Config(sc, x.Horizon, wl.install), func(r *Result) []Cell {
				return shootoutCells(wl.name, r.Utility.Values(), r.PFC.Values(), r.Rounds, r.Dispatches, 0)
			}))
		}
	}
	for _, name := range tuner.Names() {
		cfg := ChaosLinkFlapConfig(x.Scale, x.Horizon, x.ChaosSeed, io.Discard)
		cfg.Scheme.Name, cfg.Scheme.SystemCfg = name, shootoutSystemCfg(name)
		cfg.Scheme.SystemCfg.Degrade = core.DegradeConfig{RollbackWindow: 3, RollbackMargin: 0.05}
		arms = append(arms, x.sim("chaos-linkflap", cfg, func(r *Result) []Cell {
			return shootoutCells("chaos-linkflap", r.Utility.Values(), r.PFC.Values(), 0, r.Dispatches, r.Sys.Rollbacks)
		}))
	}
	return arms
}
