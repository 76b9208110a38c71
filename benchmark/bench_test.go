package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// shortRep runs one repetition of a workload at the smoke-test size in this
// process.
func shortRep(t *testing.T, name string, seed int64, traced bool) *repResult {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	return runRep(w, sizes["short"], seed, traced, "", t.TempDir(), 2, time.Now())
}

// Every workload passes its own output checks at the short size, repeats
// exactly on the same seed (traced or not), and generates different inputs
// from a different seed. The traced repetition's spans must be well nested
// with self times that add up to the root span.
func TestWorkloadsShort(t *testing.T) {
	for i := range workloads {
		name := workloads[i].Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := shortRep(t, name, 1, false)
			if len(a.Failures) > 0 || a.Failed != 0 {
				t.Fatalf("output checks failed: %d failed operations, %v", a.Failed, a.Failures)
			}
			if a.Attempted < 1 || a.Digest == "" || a.WallS <= 0 || a.SetupS <= 0 || a.PeakRSSMB <= 0 {
				t.Fatalf("incomplete result: %+v", a)
			}
			if a.Exact["eventsim.events"] <= 0 && name != wDaemon {
				t.Errorf("no events counted")
			}

			b := shortRep(t, name, 1, true)
			if len(b.Failures) > 0 {
				t.Fatalf("traced repetition failed its checks: %v", b.Failures)
			}
			if diff := differs(a, b); diff != "" {
				t.Errorf("same seed, different result: %s", diff)
			}
			if len(b.SelfTime) == 0 || b.SelfTime[0].Name != "workload" || b.SelfTime[0].Count != 1 {
				t.Fatalf("traced repetition has no root span: %+v", b.SelfTime)
			}
			var self float64
			for _, st := range b.SelfTime {
				if st.SelfS < 0 || st.SelfS > st.TotalS {
					t.Errorf("span %s: self %v s of total %v s", st.Name, st.SelfS, st.TotalS)
				}
				self += st.SelfS
			}
			if root := b.SelfTime[0].TotalS; math.Abs(self-root) > 1e-6*root {
				t.Errorf("self times sum to %v s, root span is %v s", self, root)
			}

			if c := shortRep(t, name, 2, false); c.Digest == a.Digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", a.Digest)
			}
		})
	}
}

func TestSelfTimesRejectBadNesting(t *testing.T) {
	good := []span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 40},
		{Name: "b", Parent: 1, StartNs: 20, EndNs: 30},
		{Name: "a", Parent: 0, StartNs: 40, EndNs: 90},
	}
	self, err := selfTimes(good)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{20, 20, 10, 50}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	for name, bad := range map[string][]span{
		"child outlives parent": {{Name: "root", Parent: -1, EndNs: 10}, {Name: "a", Parent: 0, StartNs: 5, EndNs: 11}},
		"ends before it starts": {{Name: "root", Parent: -1, StartNs: 5, EndNs: 4}},
		"overlapping siblings":  {{Name: "root", Parent: -1, EndNs: 10}, {Name: "a", Parent: 0, EndNs: 8}, {Name: "b", Parent: 0, StartNs: 2, EndNs: 10}},
	} {
		if _, err := selfTimes(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The metric and workload names this program prints are the ones
// BENCHMARK.json declares, with the same units, directions and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if !nameRE.MatchString(w.Name) || !unitRE.MatchString(w.Unit) {
				t.Errorf("%s: name %q or unit %q is outside the contract's alphabet", kind, w.Name, w.Unit)
			}
			if seen[w.Name] {
				t.Errorf("%s: name %q is used twice", kind, w.Name)
			}
			seen[w.Name] = true
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if bounded && (g.Bound != w.Bound || g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s[%d] %s: bound %v in BENCHMARK.json, %v in the program", kind, i, w.Name, g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, hostE2E, true)
	check("per_layer", decl.PerLayer, perLayerMetrics(), false)
	if len(decl.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(decl.PerLayer))
	}
	if got := len(e2eMetrics()); got != 12 {
		t.Errorf("%d end-to-end metrics, want twelve", got)
	}

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, decl.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why is outside the contract's limits", w.Name)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
}

// The driver's line carries exactly the declared metric names.
func TestDriverLine(t *testing.T) {
	res := &workloadResult{
		Name: wFB, Correct: true, Attempted: 7, EndToEnd: map[string]summary{}, Layers: map[string]summary{},
	}
	for _, m := range hostE2E {
		res.EndToEnd[m.Name] = summarize(m.Unit, []float64{1, 2, 4})
	}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := printDriverLine(&buf, res, traced); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("traced=%v: a key is missing", traced)
		}
		want := hostE2E
		if traced {
			want = perLayerMetrics()
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics printed, want %d", traced, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s missing or wrong: %+v", traced, m.Name, got)
			}
		}
		if !traced && *line.Metrics["wall_s"].Value != 2 {
			t.Errorf("wall_s prints %v, want the median 2", *line.Metrics["wall_s"].Value)
		}
	}
}

func TestBudgetSumsToOne(t *testing.T) {
	fb := shortRep(t, wFB, 1, false)
	micro := &microResult{
		Values: map[string]float64{
			"eventsim.hold_ns": 90, "netdev.forward_ns": 250, "rnic.pair_ns_per_pkt": 900,
			"sketch.insert_ns.fb": 30, "sketch.insert_ns.a2a": 12,
		},
		HoldSmall: 40, ForwardEventsPerPkt: 2, PairHopsPerPkt: 2.1, PairEventsPerPkt: 5,
	}
	for _, w := range []string{wFB, wA2A, wClos} {
		rows := budget(w, fb.Exact, micro, 0.01, fb.WallS)
		if len(rows) != len(budgetRows) {
			t.Fatalf("%s: %d rows, want %d", w, len(rows), len(budgetRows))
		}
		total := 0.0
		for _, name := range budgetRows {
			share, ok := rows[name]
			if !ok {
				t.Fatalf("%s: row %s missing", w, name)
			}
			if name != "budget.unattributed_share" && share < 0 {
				t.Errorf("%s: %s = %v", w, name, share)
			}
			total += share
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: rows sum to %v", w, total)
		}
	}
	if rows := budget(wFB, fb.Exact, micro, 0, fb.WallS); rows["budget.sketch_share"] <= 0 || rows["budget.eventsim_share"] <= 0 {
		t.Errorf("fb_paper budget has empty rows: %v", rows)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{4, 1, 2}, 1, 2, 4},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.values)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricByName(hostE2E, "wall_s")
	setup := metricByName(hostE2E, "setup_s")
	tps := metricByName(resultE2E, "ticks_per_sec")
	sim := metricByName(resultE2E, "sim_ms")
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.995, Q3: m * 1.005, N: 5} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.7, Q3: m * 1.3, N: 5} }
	for _, c := range []struct {
		name      string
		m         *metricDef
		base, cur summary
		want      string
	}{
		{"within bound", wall, tight(10), tight(10 * (1 + wall.Bound/2)), vSame},
		{"slower", wall, tight(10), tight(10 * (1 + 2*wall.Bound)), vWorse},
		{"faster", wall, tight(10), tight(10 * (1 - 2*wall.Bound)), vBetter},
		{"noisy base", wall, wide(10), tight(20), vUnresolved},
		{"noisy new", wall, tight(10), wide(20), vUnresolved},
		{"higher is better, fell", tps, tight(4000), tight(4000 * (1 - 2*tps.Bound)), vWorse},
		{"higher is better, rose", tps, tight(4000), tight(4000 * (1 + 2*tps.Bound)), vBetter},
		{"millisecond set-up inside the slack", setup, wide(0.004), wide(0.012), vSame},
		{"simulated, equal", sim, tight(17.5), tight(17.5), vSame},
		{"simulated, off by a hair", sim, tight(17.5), tight(17.500001), vChanged},
	} {
		if got := verdict(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(wall float64, digest string) *resultFile {
		return &resultFile{
			Meta: resultMeta{Size: "short", Seed: 1},
			Workloads: []workloadResult{{
				Name: wFB, Correct: true, Digest: digest, Events: 1000,
				EndToEnd: map[string]summary{
					"wall_s": {Unit: "s", Median: wall, Q1: wall, Q3: wall, N: 3},
					"sim_ms": {Unit: "vms", Median: 17.5, Q1: 17.5, Q3: 17.5, N: 1},
				},
			}},
		}
	}
	var out bytes.Buffer
	if code := compareResults(&out, mk(10, "aa"), mk(10.1, "aa")); code != 0 || !strings.Contains(out.String(), "0 worse, 0 unresolved, 0 changed") {
		t.Errorf("equal files: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, mk(10, "aa"), mk(20, "bb")); code != 1 || !strings.Contains(out.String(), "1 worse") || !strings.Contains(out.String(), "1 changed") {
		t.Errorf("slower file with another digest: exit %d\n%s", code, out.String())
	}
	other := mk(10, "aa")
	other.Meta.Seed = 2
	if code := compareResults(&out, mk(10, "aa"), other); code != 2 {
		t.Errorf("different seeds: exit %d, want 2", code)
	}
}

// The built binary, run the way the driver runs it, ends with the driver's
// line; two result files of the same job compare as the same, down to the
// digest.
func TestBinaryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir // scratch files land in the test's directory
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := run("--workload", wDaemon, "--seed", "7", "--seconds", "0.1", "--trace", "0", "-size", "short")
	if err != nil {
		t.Fatalf("driver-style run: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the driver's JSON: %v\n%s", err, out)
	}
	if !line.Correct || line.Attempted < 3*sizes["short"].DaemonTicks || line.Metrics["wall_s"].Value <= 0 || line.Metrics["setup_s"].Value <= 0 {
		t.Errorf("driver line: %+v", line)
	}

	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, path := range []string{a, b} {
		if out, err := run("-workload", wFB, "-size", "short", "-reps", "3", "-out", path); err != nil {
			t.Fatalf("full report: %v\n%s", err, out)
		}
	}
	// Host times of a 20 ms job may well differ by more than their bound
	// (exit 1); what must hold is that every simulated row is the same.
	out, err = run("-compare", a, b)
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		t.Fatalf("-compare of two runs of one job: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 changed") || strings.Count(out, vSame) < 7 {
		t.Errorf("-compare output:\n%s", out)
	}
}
