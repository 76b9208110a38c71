package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// resultMeta says what produced a result file, so that -compare can refuse
// to compare different jobs and a reader can tell which box ran it.
type resultMeta struct {
	Size       string  `json:"size"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	When       string  `json:"when"`
}

// workloadResult is one workload's report. Host-time metrics are summaries
// over the untraced repetitions; exact metrics carry one value, which every
// repetition reproduced.
type workloadResult struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Digest    string `json:"digest"`
	// Events is eventsim.events, kept outside Layers so that an untraced
	// result file can still be compared on it.
	Events float64 `json:"events"`

	EndToEnd map[string]summary `json:"end_to_end"`
	// Layers is filled by a traced measurement only.
	Layers   map[string]summary `json:"layers,omitempty"`
	SelfTime []spanTotal        `json:"self_time,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

type resultFile struct {
	Meta      resultMeta       `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

// maxReps bounds a run that fills -seconds, so that a box much faster than
// the one the sizes were chosen on cannot push a run past the driver's cap.
const maxReps = 8

// measure runs one workload's repetitions, each in a fresh child process,
// checks that they agree, and — for a traced measurement — adds the traced
// repetition, the micro-drivers and the budget.
func measure(w *workloadDef, opt options) (*workloadResult, error) {
	res := &workloadResult{Name: w.Name, EndToEnd: map[string]summary{}}
	untraced := []string{"-workload", w.Name, "-seed", strconv.FormatInt(opt.seed, 10), "-size", opt.size.Name}
	var reps []*repResult
	var measured float64
	for i := 0; ; i++ {
		if opt.reps > 0 && i >= opt.reps {
			break
		}
		if opt.reps == 0 && i >= 3 && (measured >= opt.seconds || i >= maxReps) {
			break
		}
		var rep repResult
		if err := runChild(&rep, untraced...); err != nil {
			return nil, err
		}
		reps = append(reps, &rep)
		measured += rep.SetupS + rep.WallS
	}
	var traced *repResult
	if opt.trace != "0" {
		// This box's speed drifts by tens of percent over minutes, so the
		// traced repetition is judged against its two neighbours in time:
		// the last untraced repetition and one more run right after it.
		args := append(untraced[:len(untraced):len(untraced)], "-spans")
		if opt.trace != "1" {
			args = append(args, "-spanfile", opt.trace)
		}
		var after repResult
		traced = new(repResult)
		if err := runChild(traced, args...); err != nil {
			return nil, err
		}
		if err := runChild(&after, untraced...); err != nil {
			return nil, err
		}
		before := reps[len(reps)-1]
		reps = append(reps, &after)
		traced.Host["trace.overhead_share"] = traced.WallS/((before.WallS+after.WallS)/2) - 1
	}

	first := reps[0]
	res.Digest = first.Digest
	res.Events = first.Exact["eventsim.events"]
	for i, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, f := range r.Failures {
			res.Failures = append(res.Failures, fmt.Sprintf("rep %d: %s", i, f))
		}
		if diff := differs(first, r); diff != "" {
			res.Failures = append(res.Failures, fmt.Sprintf("rep %d does not repeat rep 0: %s", i, diff))
		}
	}

	e2e := e2eMetrics()
	for i := range e2e {
		m := &e2e[i]
		if !m.appliesTo(w.Name) {
			continue
		}
		if m.Exact {
			res.EndToEnd[m.Name] = summarize(m.Unit, []float64{first.Exact[m.Name]})
			continue
		}
		res.EndToEnd[m.Name] = summarize(m.Unit, collect(reps, m.Name))
	}

	if traced != nil {
		if err := measureLayers(w, res, reps, traced); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Failures) == 0 && res.Failed == 0
	return res, nil
}

// differs names the first simulated result on which two repetitions of one
// (workload, size, seed) disagree; "" when they agree bit for bit.
func differs(a, b *repResult) string {
	if a.Digest != b.Digest {
		return fmt.Sprintf("digest %s vs %s", a.Digest, b.Digest)
	}
	if len(a.Exact) != len(b.Exact) {
		return fmt.Sprintf("%d vs %d exact metrics", len(a.Exact), len(b.Exact))
	}
	for _, k := range sortedKeys(a.Exact) {
		if bv, ok := b.Exact[k]; !ok || bv != a.Exact[k] {
			return fmt.Sprintf("%s %v vs %v", k, a.Exact[k], bv)
		}
	}
	return ""
}

// collect gathers one host-time metric over repetitions: the four fields
// every repetition has, or an entry of its Host map.
func collect(reps []*repResult, name string) []float64 {
	var out []float64
	for _, r := range reps {
		switch name {
		case "setup_s":
			out = append(out, r.SetupS)
		case "wall_s":
			out = append(out, r.WallS)
		case "cpu_s":
			out = append(out, r.CPUS)
		case "peak_rss_mb":
			out = append(out, r.PeakRSSMB)
		default:
			if v, ok := r.Host[name]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// measureLayers fills res.Layers: counts and host-time layer metrics of the
// untraced repetitions, span metrics of the traced repetition, the
// micro-drivers shaped by this workload's queue length, and the budget.
func measureLayers(w *workloadDef, res *workloadResult, reps []*repResult, traced *repResult) error {
	for _, f := range traced.Failures {
		res.Failures = append(res.Failures, "traced rep: "+f)
	}
	if diff := differs(reps[0], traced); diff != "" {
		res.Failures = append(res.Failures, "traced rep does not repeat rep 0: "+diff)
	}
	var micro microResult
	hwm := int(reps[0].Exact["eventsim.pending_hwm"])
	if err := runChild(&micro, "-micro", "-hwm", strconv.Itoa(hwm)); err != nil {
		return err
	}
	for _, f := range micro.Failures {
		res.Failures = append(res.Failures, "micro-driver "+f)
	}

	res.SelfTime = traced.SelfTime
	res.Layers = map[string]summary{}
	wall := res.EndToEnd["wall_s"].Median
	// A host-time layer metric comes from every untraced repetition when
	// they measure it, else from the one place that does.
	single := []map[string]float64{
		traced.Host,
		micro.Values,
		budget(w.Name, reps[0].Exact, &micro, traced.Host["core.tick_share"], wall),
	}
	for i := range layerMetrics {
		m := &layerMetrics[i]
		if !m.appliesTo(w.Name) {
			continue
		}
		if m.Exact {
			if v, ok := reps[0].Exact[m.Name]; ok {
				res.Layers[m.Name] = summarize(m.Unit, []float64{v})
			}
			continue
		}
		if vs := collect(reps, m.Name); len(vs) > 0 {
			res.Layers[m.Name] = summarize(m.Unit, vs)
			continue
		}
		for _, source := range single {
			if v, ok := source[m.Name]; ok {
				res.Layers[m.Name] = summarize(m.Unit, []float64{v})
				break
			}
		}
	}
	return nil
}

func metricByName(list []metricDef, name string) *metricDef {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}

// runChild runs this binary again as one child process with the given
// arguments and decodes the JSON it prints into v. The child's diagnostics
// go to our standard error.
func runChild(v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(out.Bytes(), v); err != nil {
		return fmt.Errorf("child %v printed no result: %w", args, err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printWorkload writes one workload's report: every end-to-end metric with
// unit, median, quartiles and sample count, the operation counts, and after
// a traced measurement the layer metrics, budget and span self times.
func printWorkload(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "== %s  digest %s  operations attempted %d failed %d  correct %v\n",
		res.Name, res.Digest, res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "   %-34s %-7s %14s %14s %14s %3s\n", "end-to-end metric", "unit", "median", "q1", "q3", "n")
	printMetrics(w, e2eMetrics(), res.EndToEnd)
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(w, "   %-34s %-7s %14s %14s %14s %3s\n", "per-layer metric", "unit", "median", "q1", "q3", "n")
	printMetrics(w, layerMetrics, res.Layers)
	if _, ok := res.Layers["budget.eventsim_share"]; ok {
		fmt.Fprintf(w, "   budget: share of wall_s, unit self-cost x count (rows sum to 1)\n")
		total := 0.0
		for _, row := range budgetRows {
			share := res.Layers[row].Median
			total += share
			fmt.Fprintf(w, "     %-32s %8.4f\n", row, share)
		}
		fmt.Fprintf(w, "     %-32s %8.4f\n", "sum", total)
	}
	fmt.Fprintf(w, "   traced run: self time by span name (span minus its children)\n")
	for _, st := range res.SelfTime {
		fmt.Fprintf(w, "     %-32s %9d spans %12.6f s total %12.6f s self\n", st.Name, st.Count, st.TotalS, st.SelfS)
	}
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]summary) {
	for i := range defs {
		s, ok := values[defs[i].Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-34s %-7s %14.6g %14.6g %14.6g %3d\n", defs[i].Name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
}

// printDriverLine writes the one JSON object the driver reads: the
// end-to-end metrics BENCHMARK.json bounds, or after a traced measurement
// every per-layer metric it lists (0 where a metric does not exist on this
// workload).
func printDriverLine(w io.Writer, res *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	if !traced {
		for _, m := range hostE2E {
			line.Metrics[m.Name] = value{res.EndToEnd[m.Name].Median, m.Unit}
		}
	} else {
		for _, m := range perLayerMetrics() {
			s, ok := res.EndToEnd[m.Name]
			if !ok {
				s = res.Layers[m.Name]
			}
			line.Metrics[m.Name] = value{s.Median, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
