package harness

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// AllSchemes returns the five arms of Fig 7/8: two statics, two automatic
// baselines, and Paraleon.
func AllSchemes() []Scheme {
	return []Scheme{
		DefaultScheme(),
		ExpertScheme(),
		ACCScheme(),
		DCQCNPlusScheme(),
		ParaleonScheme(),
	}
}

// --- Fig 7(a,b): FB_Hadoop FCT slowdowns ---

// Fig7FBResult holds per-scheme bucketed slowdowns.
type Fig7FBResult struct {
	Load    float64
	Buckets []int64
	// PerScheme maps scheme → size-bucketed stats.
	PerScheme map[string][]metrics.BucketStat
	// Incomplete maps scheme → flows the tables lack: started, but with
	// no completion record when the run ended.
	Incomplete map[string]int
	Order      []string
}

// Fig7FB runs the FB_Hadoop workload under every scheme and buckets FCT
// slowdowns by flow size.
func Fig7FB(scale Scale, schemes []Scheme, load float64, horizon eventsim.Time) (*Fig7FBResult, error) {
	res := &Fig7FBResult{
		Load:       load,
		Buckets:    metrics.DefaultSizeBuckets(),
		PerScheme:  map[string][]metrics.BucketStat{},
		Incomplete: map[string]int{},
	}
	cfgs := make([]RunConfig, 0, len(schemes))
	for _, sc := range schemes {
		cfgs = append(cfgs, RunConfig{
			Net:        scale.Net,
			Scheme:     sc,
			Interval:   scale.Interval,
			Duration:   horizon,
			DrainAfter: true,
			MaxTime:    horizon * 10,
			Workload: func(n *sim.Network) error {
				_, err := workload.InstallPoisson(n, workload.PoissonConfig{
					CDF:      workload.FBHadoop(),
					Load:     load,
					Duration: horizon,
				})
				return err
			},
		})
	}
	results, err := RunAll(cfgs, scale.parallel())
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		sl := metrics.Slowdowns(r.Net, r.Net.Completed)
		res.PerScheme[schemes[i].Name] = metrics.BucketizeSlowdowns(sl, res.Buckets)
		res.Incomplete[schemes[i].Name] = r.Incomplete
		res.Order = append(res.Order, schemes[i].Name)
	}
	return res, nil
}

// Fprint renders average and p99.9 slowdown tables.
func (r *Fig7FBResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Fig 7(a,b): FB_Hadoop FCT slowdown by flow size (load %.0f%%)\n", r.Load*100)
	print := func(title string, get func(metrics.BucketStat) float64) {
		fmt.Fprintf(w, " %s slowdown:\n", title)
		fmt.Fprintf(w, "  %-10s", "scheme")
		if len(r.Order) > 0 {
			for _, b := range r.PerScheme[r.Order[0]] {
				fmt.Fprintf(w, "%10s", b.Label)
			}
		}
		fmt.Fprintf(w, "%12s\n", "incomplete")
		for _, name := range r.Order {
			fmt.Fprintf(w, "  %-10s", name)
			for _, b := range r.PerScheme[name] {
				v := get(b)
				if math.IsNaN(v) {
					fmt.Fprintf(w, "%10s", "-")
				} else {
					fmt.Fprintf(w, "%10.2f", v)
				}
			}
			fmt.Fprintf(w, "%12d\n", r.Incomplete[name])
		}
	}
	print("average", func(b metrics.BucketStat) float64 { return b.Mean })
	print("p99.9", func(b metrics.BucketStat) float64 { return b.P999 })
}

// --- Fig 7(c,d): LLM training FCT CDFs ---

// Fig7LLMResult holds per-(scheme, worker-count) FCT CDFs.
type Fig7LLMResult struct {
	WorkerCounts []int
	// CDFs[workers][scheme] is the FCT CDF in milliseconds.
	CDFs  map[int]map[string][]metrics.CDFPoint
	Tails map[int]map[string]float64 // p99 FCT ms
	// Incomplete maps scheme → flows the CDFs lack, summed over worker
	// counts: started, but with no completion record when the run ended.
	Incomplete map[string]int
	Order      []string
}

// Fig7LLM runs the ON/OFF alltoall at several scales under every scheme.
func Fig7LLM(scale Scale, schemes []Scheme, workerCounts []int, msg int64, rounds int) (*Fig7LLMResult, error) {
	res := &Fig7LLMResult{
		WorkerCounts: workerCounts,
		CDFs:         map[int]map[string][]metrics.CDFPoint{},
		Tails:        map[int]map[string]float64{},
		Incomplete:   map[string]int{},
	}
	type armKey struct {
		wc     int
		scheme string
	}
	var arms []armKey
	var cfgs []RunConfig
	for _, wc := range workerCounts {
		res.CDFs[wc] = map[string][]metrics.CDFPoint{}
		res.Tails[wc] = map[string]float64{}
		for _, sc := range schemes {
			wc := wc
			arms = append(arms, armKey{wc: wc, scheme: sc.Name})
			cfgs = append(cfgs, RunConfig{
				Net:        scale.Net,
				Scheme:     sc,
				Interval:   scale.Interval,
				Duration:   200 * eventsim.Millisecond,
				DrainAfter: true,
				MaxTime:    10 * eventsim.Second,
				Workload: func(n *sim.Network) error {
					_, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
						Workers:      n.Topo.Hosts()[:wc],
						MessageBytes: msg,
						OffTime:      5 * eventsim.Millisecond,
						Rounds:       rounds,
					})
					return err
				},
			})
		}
	}
	results, err := RunAll(cfgs, scale.parallel())
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		arm := arms[i]
		fcts := make([]float64, 0, len(r.Net.Completed))
		for _, rec := range r.Net.Completed {
			fcts = append(fcts, rec.FCT().Millis())
		}
		res.CDFs[arm.wc][arm.scheme] = metrics.CDF(fcts, 20)
		res.Tails[arm.wc][arm.scheme] = metrics.Percentile(fcts, 0.99)
		res.Incomplete[arm.scheme] += r.Incomplete
		if len(res.Order) < len(schemes) {
			res.Order = append(res.Order, arm.scheme)
		}
	}
	return res, nil
}

// Fprint renders tail FCTs per scale (the CDFs' decision-relevant edge).
func (r *Fig7LLMResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Fig 7(c,d): LLM training (alltoall) p99 FCT (ms)")
	fmt.Fprintf(w, "  %-10s", "scheme")
	for _, wc := range r.WorkerCounts {
		fmt.Fprintf(w, "%8dx%-3d", wc, wc)
	}
	fmt.Fprintf(w, "%12s\n", "incomplete")
	for _, name := range r.Order {
		fmt.Fprintf(w, "  %-10s", name)
		for _, wc := range r.WorkerCounts {
			fmt.Fprintf(w, "%12.2f", r.Tails[wc][name])
		}
		fmt.Fprintf(w, "%12d\n", r.Incomplete[name])
	}
}

// --- Fig 8 / Fig 9: workload influx ---

// InfluxSpec parameterizes the influx scenario.
type InfluxSpec struct {
	Workers   int
	Message   int64
	BurstAt   eventsim.Time
	BurstLen  eventsim.Time
	BurstLoad float64
	Horizon   eventsim.Time
}

// DefaultInfluxSpec sizes the scenario for QuickScale/MediumScale runs.
func DefaultInfluxSpec() InfluxSpec {
	return InfluxSpec{
		Workers:   4,
		Message:   2 << 20,
		BurstAt:   40 * eventsim.Millisecond,
		BurstLen:  50 * eventsim.Millisecond,
		BurstLoad: 0.5,
		Horizon:   150 * eventsim.Millisecond,
	}
}

// InfluxResult holds per-scheme time series plus phase means.
type InfluxResult struct {
	Spec  InfluxSpec
	Order []string
	// TP and RTT are the per-scheme series.
	TP, RTT map[string]*metrics.Series
	// Phase means: before, during, after the burst.
	TPPhases, RTTPhases map[string][3]float64
}

// RunInflux executes the Fig 8 scenario for each scheme.
func RunInflux(scale Scale, schemes []Scheme, spec InfluxSpec) (*InfluxResult, error) {
	res := &InfluxResult{
		Spec: spec,
		TP:   map[string]*metrics.Series{}, RTT: map[string]*metrics.Series{},
		TPPhases: map[string][3]float64{}, RTTPhases: map[string][3]float64{},
	}
	cfgs := make([]RunConfig, 0, len(schemes))
	for _, sc := range schemes {
		cfgs = append(cfgs, RunConfig{
			Net:      scale.Net,
			Scheme:   sc,
			Interval: scale.Interval,
			Duration: spec.Horizon,
			Workload: func(n *sim.Network) error {
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
						Hosts:    hosts,
						CDF:      workload.FBHadoop(),
						Load:     spec.BurstLoad,
						Start:    spec.BurstAt,
						Duration: spec.BurstLen,
					},
				})
				return err
			},
		})
	}
	results, err := RunAll(cfgs, scale.parallel())
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		sc := schemes[i]
		res.Order = append(res.Order, sc.Name)
		tp, rtt := r.TP, r.RTT
		res.TP[sc.Name] = &tp
		res.RTT[sc.Name] = &rtt
		phases := func(s *metrics.Series) [3]float64 {
			return [3]float64{
				s.MeanOver(0, spec.BurstAt),
				s.MeanOver(spec.BurstAt, spec.BurstAt+spec.BurstLen),
				s.MeanOver(spec.BurstAt+spec.BurstLen, spec.Horizon),
			}
		}
		res.TPPhases[sc.Name] = phases(&tp)
		res.RTTPhases[sc.Name] = phases(&rtt)
	}
	return res, nil
}

// Fprint renders phase means.
func (r *InfluxResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Fig 8/9: influx at %v for %v (phase means: before/during/after)\n", r.Spec.BurstAt, r.Spec.BurstLen)
	fmt.Fprintf(w, "  %-14s %28s %34s\n", "scheme", "throughput (util)", "normalized RTT (higher=better)")
	for _, name := range r.Order {
		tp, rtt := r.TPPhases[name], r.RTTPhases[name]
		fmt.Fprintf(w, "  %-14s %8.3f %8.3f %8.3f    %8.3f %8.3f %8.3f\n",
			name, tp[0], tp[1], tp[2], rtt[0], rtt[1], rtt[2])
	}
}

// PretrainedSchemes produces the two Fig 9 static arms by running
// Paraleon offline: Pretrained 1 on the alltoall workload, Pretrained 2
// on FB_Hadoop.
func PretrainedSchemes(scale Scale, spec InfluxSpec) (Scheme, Scheme, error) {
	sysCfg := core.DefaultSystemConfig()
	sysCfg.Interval = scale.Interval
	// Shorten the SA session so pretraining fits the training horizon.
	sysCfg.SA.TotalIterNum = 10
	sysCfg.SA.CoolingRate = 0.6

	// Pretrained 1: alltoall.
	n1, err := sim.New(scale.Net)
	if err != nil {
		return Scheme{}, Scheme{}, err
	}
	if _, err := workload.InstallAlltoall(n1, workload.AlltoallConfig{
		Workers:      n1.Topo.Hosts()[:spec.Workers],
		MessageBytes: spec.Message,
		OffTime:      5 * eventsim.Millisecond,
	}); err != nil {
		return Scheme{}, Scheme{}, err
	}
	p1, err := core.Pretrain(n1, sysCfg, 100*eventsim.Millisecond)
	if err != nil {
		return Scheme{}, Scheme{}, err
	}

	// Pretrained 2: FB_Hadoop.
	n2, err := sim.New(scale.Net)
	if err != nil {
		return Scheme{}, Scheme{}, err
	}
	if _, err := workload.InstallPoisson(n2, workload.PoissonConfig{
		CDF: workload.FBHadoop(), Load: spec.BurstLoad,
	}); err != nil {
		return Scheme{}, Scheme{}, err
	}
	p2, err := core.Pretrain(n2, sysCfg, 100*eventsim.Millisecond)
	if err != nil {
		return Scheme{}, Scheme{}, err
	}
	return StaticScheme("pretrained1", p1), StaticScheme("pretrained2", p2), nil
}

// --- Fig 10 / Fig 11: monitoring designs ---

// MonitoringArm names one FSD design under comparison.
type MonitoringArm struct {
	Name string
	Mode FSDMode
}

// MonitoringArms is the Fig 10 lineup.
func MonitoringArms() []MonitoringArm {
	return []MonitoringArm{
		{Name: "no-fsd", Mode: FSDNone},
		{Name: "netflow", Mode: FSDNetFlow},
		{Name: "elastic", Mode: FSDNaiveElastic},
		{Name: "paraleon", Mode: FSDParaleon},
	}
}

// MonitoringResult holds accuracy and FCT per arm (per load or per
// interval, depending on the experiment).
type MonitoringResult struct {
	// Keys are the x-axis values: loads (Fig 10) or intervals in ms
	// (Fig 11).
	Keys  []float64
	XName string
	// Accuracy[arm][key] and MeanSlowdown[arm][key].
	Accuracy     map[string]map[float64]float64
	MeanSlowdown map[string]map[float64]float64
	// Incomplete[arm] counts the flows the slowdowns lack, summed over
	// keys: started, but with no completion record when the run ended.
	Incomplete map[string]int
	Order      []string
}

func newMonitoringResult(xName string, keys []float64) *MonitoringResult {
	return &MonitoringResult{
		Keys:         keys,
		XName:        xName,
		Accuracy:     map[string]map[float64]float64{},
		MeanSlowdown: map[string]map[float64]float64{},
		Incomplete:   map[string]int{},
	}
}

func (r *MonitoringResult) put(arm string, key float64, res *Result) {
	if r.Accuracy[arm] == nil {
		r.Accuracy[arm] = map[float64]float64{}
		r.MeanSlowdown[arm] = map[float64]float64{}
		r.Order = append(r.Order, arm)
	}
	r.Accuracy[arm][key] = res.MeanAccuracy()
	r.MeanSlowdown[arm][key] = res.Summary().MeanSlowdown
	r.Incomplete[arm] += res.Incomplete
}

// monitoringScheme builds a Paraleon scheme wired to one FSD arm.
func monitoringScheme(arm MonitoringArm, interval eventsim.Time) Scheme {
	sc := ParaleonScheme()
	sc.Name = arm.Name
	sc.FSDMode = arm.Mode
	sc.SystemCfg.Interval = interval
	if arm.Mode == FSDNone {
		// No distribution: nothing can trigger tuning, and guidance is
		// meaningless — fall back to unguided search kicked off
		// manually (§IV-B3's No-FSD arm).
		sc.SystemCfg.SA.Guided = false
		sc.TriggerAtStart = true
	}
	return sc
}

// Fig10 compares the monitoring designs across loads.
func Fig10(scale Scale, loads []float64, horizon eventsim.Time) (*MonitoringResult, error) {
	res := newMonitoringResult("load", loads)
	type armKey struct {
		name string
		load float64
	}
	var arms []armKey
	var cfgs []RunConfig
	for _, arm := range MonitoringArms() {
		for _, load := range loads {
			load := load
			arms = append(arms, armKey{name: arm.Name, load: load})
			cfgs = append(cfgs, RunConfig{
				Net:           scale.Net,
				Scheme:        monitoringScheme(arm, scale.Interval),
				Interval:      scale.Interval,
				Duration:      horizon,
				DrainAfter:    true,
				MaxTime:       horizon * 10,
				TrackAccuracy: arm.Mode != FSDNone,
				Workload: func(n *sim.Network) error {
					_, err := workload.InstallPoisson(n, workload.PoissonConfig{
						CDF: workload.FBHadoop(), Load: load, Duration: horizon,
					})
					return err
				},
			})
		}
	}
	results, err := RunAll(cfgs, scale.parallel())
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		res.put(arms[i].name, arms[i].load, r)
	}
	return res, nil
}

// Fig11 compares naive Elastic vs Paraleon across monitor intervals.
func Fig11(scale Scale, intervalsMS []float64, load float64, horizon eventsim.Time) (*MonitoringResult, error) {
	res := newMonitoringResult("lambda_MI(ms)", intervalsMS)
	arms := []MonitoringArm{
		{Name: "elastic", Mode: FSDNaiveElastic},
		{Name: "paraleon", Mode: FSDParaleon},
	}
	type armKey struct {
		name string
		ms   float64
	}
	var keys []armKey
	var cfgs []RunConfig
	for _, arm := range arms {
		for _, ms := range intervalsMS {
			interval := eventsim.Time(ms * float64(eventsim.Millisecond))
			keys = append(keys, armKey{name: arm.Name, ms: ms})
			cfgs = append(cfgs, RunConfig{
				Net:           scale.Net,
				Scheme:        monitoringScheme(arm, interval),
				Interval:      interval,
				Duration:      horizon,
				DrainAfter:    true,
				MaxTime:       horizon * 10,
				TrackAccuracy: true,
				Workload: func(n *sim.Network) error {
					_, err := workload.InstallPoisson(n, workload.PoissonConfig{
						CDF: workload.FBHadoop(), Load: load, Duration: horizon,
					})
					return err
				},
			})
		}
	}
	results, err := RunAll(cfgs, scale.parallel())
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		res.put(keys[i].name, keys[i].ms, r)
	}
	return res, nil
}

// Fprint renders accuracy and FCT tables.
func (r *MonitoringResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Monitoring comparison over %s\n", r.XName)
	section := func(title string, data map[string]map[float64]float64, incomplete bool) {
		fmt.Fprintf(w, " %s:\n", title)
		fmt.Fprintf(w, "  %-10s", "arm")
		for _, k := range r.Keys {
			fmt.Fprintf(w, "%10.3g", k)
		}
		if incomplete {
			fmt.Fprintf(w, "%12s", "incomplete")
		}
		fmt.Fprintln(w)
		for _, arm := range r.Order {
			fmt.Fprintf(w, "  %-10s", arm)
			for _, k := range r.Keys {
				v := data[arm][k]
				if math.IsNaN(v) {
					fmt.Fprintf(w, "%10s", "-")
				} else {
					fmt.Fprintf(w, "%10.3f", v)
				}
			}
			if incomplete {
				fmt.Fprintf(w, "%12d", r.Incomplete[arm])
			}
			fmt.Fprintln(w)
		}
	}
	section("FSD accuracy", r.Accuracy, false)
	section("mean FCT slowdown", r.MeanSlowdown, true)
}

// --- Fig 12: SA ablation ---

// Fig12Result holds utility convergence traces.
type Fig12Result struct {
	// Traces maps arm → measured utility (Equation 1, 0–1) per monitor
	// interval — what the network actually delivered while each SA
	// variant searched.
	Traces map[string][]float64
	Order  []string
}

// Fig12 runs guided+relaxed SA vs naive SA on the same workload and
// captures their convergence traces.
func Fig12(scale Scale, horizon eventsim.Time) (*Fig12Result, error) {
	res := &Fig12Result{Traces: map[string][]float64{}}
	arms := []struct {
		name string
		sa   tuner.SAConfig
	}{
		{"paraleon", tuner.DefaultSAConfig()},
		{"naive_sa", tuner.NaiveSAConfig()},
	}
	cfgs := make([]RunConfig, 0, len(arms))
	for _, arm := range arms {
		sc := ParaleonScheme()
		sc.Name = arm.name
		sc.SystemCfg.SA = arm.sa
		cfgs = append(cfgs, RunConfig{
			Net:      scale.Net,
			Scheme:   sc,
			Interval: scale.Interval,
			Duration: horizon,
			Workload: func(n *sim.Network) error {
				_, err := workload.InstallPoisson(n, workload.PoissonConfig{
					CDF: workload.FBHadoop(), Load: 0.4,
				})
				return err
			},
		})
	}
	results, err := RunAll(cfgs, scale.parallel())
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		res.Traces[arms[i].name] = r.Utility.Values
		res.Order = append(res.Order, arms[i].name)
	}
	return res, nil
}

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
		n := i + 1
		if n > w {
			n = w
		}
		out[i] = sum / float64(n)
	}
	return out
}

// IterationsTo reports how many monitor intervals arm took for its
// smoothed delivered utility to reach frac of its final smoothed value
// (-1 if it never did or the trace is empty).
func (r *Fig12Result) IterationsTo(arm string, frac float64) int {
	tr := smoothed(r.Traces[arm])
	if len(tr) == 0 {
		return -1
	}
	target := frac * tr[len(tr)-1]
	for i, v := range tr {
		if v >= target {
			return i
		}
	}
	return -1
}

// FinalUtility reports the last smoothed delivered utility of arm.
func (r *Fig12Result) FinalUtility(arm string) float64 {
	tr := smoothed(r.Traces[arm])
	if len(tr) == 0 {
		return math.NaN()
	}
	return tr[len(tr)-1]
}

// SteadyUtility reports the mean delivered utility over the final third
// of arm's run — the settled quality each SA variant reached.
func (r *Fig12Result) SteadyUtility(arm string) float64 {
	tr := r.Traces[arm]
	if len(tr) == 0 {
		return math.NaN()
	}
	tail := tr[len(tr)*2/3:]
	var sum float64
	for _, v := range tail {
		sum += v
	}
	return sum / float64(len(tail))
}

// Fprint renders trace summaries.
func (r *Fig12Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Fig 12: SA convergence (smoothed delivered utility)")
	for _, arm := range r.Order {
		tr := smoothed(r.Traces[arm])
		if len(tr) == 0 {
			fmt.Fprintf(w, "  %-10s (no session ran)\n", arm)
			continue
		}
		fmt.Fprintf(w, "  %-10s intervals=%d first=%.3f final=%.3f steady=%.3f to-95%%=%d\n",
			arm, len(tr), tr[0], tr[len(tr)-1], r.SteadyUtility(arm), r.IterationsTo(arm, 0.95))
	}
}
