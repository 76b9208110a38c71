package harness

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/tuner"
)

// runExperiment runs the named entry of the experiment table at
// QuickScale and seed 1 for horizon.
func runExperiment(t *testing.T, name string, horizon eventsim.Time) *Table {
	t.Helper()
	return runExperimentCSV(t, name, horizon, "")
}

// runExperimentCSV is runExperiment with the arms' CSVs written to dir.
func runExperimentCSV(t *testing.T, name string, horizon eventsim.Time, dir string) *Table {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q in the table", name)
	}
	tab, err := RunExperiment(e, Setup{Scale: QuickScale(), Horizon: horizon, ChaosSeed: 1, CSVDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// csvLines reads dir/name and returns its lines.
func csvLines(t *testing.T, dir, name string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(b)), "\n")
}

// timelineSamples fails the test unless every row's timeline CSV in dir
// has the tp/rttnorm header and one sample per interval of horizon.
func timelineSamples(t *testing.T, dir, exp string, rows []string, horizon eventsim.Time) {
	t.Helper()
	want := int(horizon / QuickScale().Interval)
	for _, row := range rows {
		if lines := csvLines(t, dir, exp+"_"+row+".csv"); lines[0] != "t_ms,tp,rttnorm" || len(lines)-1 != want {
			t.Errorf("%s %s timeline: header %q, %d samples, want t_ms,tp,rttnorm and %d", exp, row, lines[0], len(lines)-1, want)
		}
	}
}

// printed is the table as paraleon-sim prints it.
func printed(tab *Table) string {
	var sb strings.Builder
	tab.Fprint(&sb)
	return sb.String()
}

// within fails the test unless every listed cell is measured and in
// [lo, hi].
func within(t *testing.T, tab *Table, sec string, rows, cols []string, lo, hi float64) {
	t.Helper()
	for _, r := range rows {
		for _, c := range cols {
			if v := tab.Mean(sec, r, c); !(v >= lo && v <= hi) {
				t.Errorf("%s %s %s = %g, want within [%g, %g]", sec, r, c, v, lo, hi)
			}
		}
	}
}

func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	x := Setup{Scale: QuickScale(), Horizon: 10 * eventsim.Millisecond}
	for _, e := range Experiments() {
		if seen[e.Name] || e.Desc == "" {
			t.Errorf("%q: duplicate name or no description", e.Name)
		}
		seen[e.Name] = true
		if len(e.Arms(x)) == 0 {
			t.Errorf("%s lays out no arms", e.Name)
		}
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup found an experiment that is not in the table")
	}
}

// TestTablePairsSeeds checks the table's seed handling on a synthetic
// experiment: cells that meet add up, incomplete prints last, and with
// several seeds every row is paired with the reference seed by seed.
func TestTablePairsSeeds(t *testing.T) {
	e := Experiment{Name: "synthetic", Desc: "synthetic", Ref: "ref", Arms: func(x Setup) []Arm {
		arm := func(row, key string, v func(seed int64) float64) Arm {
			return Arm{Row: row, Key: key, Run: func(seed int64) ([]Cell, error) {
				return []Cell{{"s", Incomplete, 1}, {"s", key, v(seed)}}, nil
			}}
		}
		return []Arm{
			arm("ref", "a", func(int64) float64 { return 10 }),
			arm("ref", "b", func(int64) float64 { return 1 }),
			arm("x", "a", func(seed int64) float64 { return float64(8 + seed) }),
			arm("x", "b", func(int64) float64 { return math.NaN() }),
		}
	}}
	tab, err := RunExperiment(e, Setup{Seeds: []int64{1, 2, 3, 4}, Parallel: ParallelOptions{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Values("s", "x", Incomplete); len(got) != 4 || got[0] != 2 {
		t.Errorf("incomplete of row x = %v, want 2 at every seed (two arms)", got)
	}
	// x - ref at seeds 1..4: -1, 0, +1, +2.
	p := tab.Pair("s", "x", "a")
	if p.Median != 0 || p.Q1 != -1 || p.Q3 != 1 || p.Below != 1 || p.Above != 2 {
		t.Errorf("paired x/a = %+v, want median 0, quartiles -1 and 1, 1 below, 2 above", p)
	}
	if p := tab.Pair("s", "x", "b"); !math.IsNaN(p.Median) || p.Below+p.Above != 0 {
		t.Errorf("paired NaN cells = %+v, want no pairs", p)
	}
	out := printed(tab)
	for _, want := range []string{"(mean of 4 seeds)", "a         b incomplete", "paired against ref over 4 seeds", "  x"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
}

// TestRunExperimentWorkerCountInvariant: the table gathers cells in arm and
// seed order, so it prints the same at any worker count.
func TestRunExperimentWorkerCountInvariant(t *testing.T) {
	e, _ := Lookup("fig7fb")
	x := Setup{Scale: QuickScale(), Horizon: 8 * eventsim.Millisecond, Seeds: []int64{1, 2}}
	var out []string
	for _, w := range []int{1, 3} {
		x.Parallel.Workers = w
		tab, err := RunExperiment(e, x)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, printed(tab))
	}
	if out[0] != out[1] {
		t.Errorf("one worker:\n%s\nthree workers:\n%s", out[0], out[1])
	}
}

func TestTimelineCSV(t *testing.T) {
	dir := t.TempDir()
	runExperimentCSV(t, "ext-rnic", 0, dir)
	timelineSamples(t, dir, "ext-rnic", []string{"sketch", "rnic"}, 30*eventsim.Millisecond)
}

func TestTable2(t *testing.T) {
	tab := runExperiment(t, "table2", 0)
	const sec = "6x6 alltoall algbw per rank (GB/s)"
	for _, mb := range []string{"1MB", "2MB", "4MB", "8MB"} {
		d, e := tab.Mean(sec, "default", mb), tab.Mean(sec, "expert", mb)
		if !(d > 0 && e > 0) {
			t.Errorf("%s: non-positive bandwidth %g/%g", mb, d, e)
		}
		// The Table II direction: expert should not lose materially.
		if e < 0.85*d {
			t.Errorf("%s: expert %g much worse than default %g", mb, e, d)
		}
	}
}

func TestFig5ShapeAndDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	tab := runExperiment(t, "fig5", 10*eventsim.Millisecond)
	const sec = "mean link utilization (TP) and mean normalized RTT"
	rows := tab.Rows(sec)
	if len(rows) != 20 {
		t.Fatalf("%d sweep points, want 4 parameters x 5", len(rows))
	}
	within(t, tab, sec, rows, []string{"TP", "RTTnorm"}, 1e-9, 1)
	// Directional check from §III-C: raising Kmax (throughput-friendly)
	// deepens standing queues, so normalized RTT must degrade.
	lo, hi := tab.Mean(sec, "kmax=400KB", "RTTnorm"), tab.Mean(sec, "kmax=6400KB", "RTTnorm")
	if hi >= lo {
		t.Errorf("kmax sweep: RTTnorm %g at 6400KB not worse than %g at 400KB", hi, lo)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	tab := runExperiment(t, "fig6", 8*eventsim.Millisecond)
	rows := []string{"reset=50us", "reset=150us", "reset=450us", "reset=1350us"}
	cols := []string{"400KB", "1200KB", "3600KB", "7200KB"}
	within(t, tab, "throughput (mean utilization)", rows, cols, 0, 1)
	within(t, tab, "normalized RTT (higher = lower delay)", rows, cols, 1e-9, 1)
}

func TestFig7FB(t *testing.T) {
	tab := runExperiment(t, "fig7fb", 25*eventsim.Millisecond)
	const sec = "average slowdown"
	if rows := tab.Rows(sec); len(rows) != 5 {
		t.Fatalf("rows %v, want the five schemes", rows)
	}
	for _, r := range tab.Rows(sec) {
		measured := 0
		for _, b := range []string{"<=10KB", "<=30KB", "<=120KB", "<=1MB", ">1MB"} {
			if v := tab.Mean(sec, r, b); !math.IsNaN(v) {
				measured++
				if v < 1 {
					t.Errorf("%s %s: mean slowdown %g < 1", r, b, v)
				}
			}
		}
		if measured == 0 {
			t.Errorf("%s: no flows bucketed", r)
		}
		if inc := tab.Mean(sec, r, Incomplete); inc != 0 {
			t.Errorf("%s: %g flows incomplete after the drain", r, inc)
		}
	}
	if !strings.Contains(printed(tab), "p99.9") {
		t.Error("table lacks the p99.9 section")
	}
	const tun = "paraleon tuner at the end of the run"
	if rows := tab.Rows(tun); len(rows) != 1 || rows[0] != "paraleon" {
		t.Errorf("tuner section rows %v, want paraleon alone", rows)
	}
	within(t, tab, tun, []string{"paraleon"}, []string{"dispatches", "Kmin KB", "Pmax", "MinRate Mbps"}, 1e-9, math.Inf(1))
}

func TestFig7LLM(t *testing.T) {
	dir := t.TempDir()
	tab := runExperimentCSV(t, "fig7llm", 0, dir)
	rows := tab.Rows("p99 FCT (ms)")
	within(t, tab, "p99 FCT (ms)", rows, []string{"4x4", "6x6"}, 1e-9, math.Inf(1))
	// Every (scheme, worker count) arm leaves its FCT CDF for Fig 7(c,d).
	for _, row := range rows {
		for _, wc := range []string{"4x4", "6x6"} {
			if lines := csvLines(t, dir, "fig7llm_"+row+"_"+wc+"_cdf.csv"); lines[0] != "x,p" || len(lines) < 2 {
				t.Errorf("%s %s CDF: header %q, %d points, want x,p and at least one", row, wc, lines[0], len(lines)-1)
			}
		}
	}
}

func TestRunInflux(t *testing.T) {
	dir := t.TempDir()
	tab := runExperimentCSV(t, "fig8", 0, dir)
	sec := "throughput (mean utilization)"
	rows := tab.Rows(sec)
	if len(rows) != 5 {
		t.Fatalf("rows %v, want the five schemes", rows)
	}
	within(t, tab, sec, rows, []string{"before", "during", "after"}, 0, 1)
	timelineSamples(t, dir, "fig8", rows, defaultInfluxSpec().Horizon)
}

func TestPretrainedSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("pretraining skipped in -short")
	}
	spec := defaultInfluxSpec()
	for _, train := range []func() error{
		func() error {
			p, err := pretrain(QuickScale(), alltoall(spec.Workers, spec.Message, 5*eventsim.Millisecond))
			if err == nil {
				err = p.Validate()
			}
			return err
		},
		func() error {
			p, err := pretrain(QuickScale(), fbPoisson(spec.BurstLoad, 0))
			if err == nil {
				err = p.Validate()
			}
			return err
		},
	} {
		if err := train(); err != nil {
			t.Error(err)
		}
	}
}

func TestFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("monitoring comparison skipped in -short")
	}
	tab := runExperiment(t, "fig10", 25*eventsim.Millisecond)
	if rows := tab.Rows("FSD accuracy"); len(rows) != 4 {
		t.Fatalf("rows %v, want four monitoring designs", rows)
	}
	// Paraleon's FSD accuracy must beat NetFlow's.
	if p, nf := tab.Mean("FSD accuracy", "paraleon", "load=0.3"), tab.Mean("FSD accuracy", "netflow", "load=0.3"); !(p > nf) {
		t.Errorf("paraleon accuracy %g not above netflow %g", p, nf)
	}
	within(t, tab, "mean FCT slowdown", tab.Rows("mean FCT slowdown"), []string{"load=0.3", "load=0.5", "load=0.7"}, 1, math.Inf(1))
}

func TestFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("interval sweep skipped in -short")
	}
	tab := runExperiment(t, "fig11", 24*eventsim.Millisecond)
	within(t, tab, "FSD accuracy", []string{"elastic", "paraleon"}, []string{"1ms", "2ms", "4ms", "8ms"}, 1e-9, 1)
	// At the 1 ms interval the ternary design must not lose to naive
	// single-interval classification.
	if p, e := tab.Mean("FSD accuracy", "paraleon", "1ms"), tab.Mean("FSD accuracy", "elastic", "1ms"); p < e {
		t.Errorf("paraleon %g < elastic %g at 1ms", p, e)
	}
}

func TestFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("SA convergence skipped in -short")
	}
	tab := runExperiment(t, "fig12", 80*eventsim.Millisecond)
	rows := []string{"paraleon", "naive_sa"}
	const sec = "delivered utility"
	// fig12 raises the horizon to 350 ms: one trace sample per interval.
	within(t, tab, sec, rows, []string{"intervals"}, 350, 350)
	// min and max bound every interval's delivered utility.
	within(t, tab, sec, rows, []string{"min", "max", "first", "final", "mean", "steady"}, 0, 1)
	within(t, tab, sec, rows, []string{"to-95%"}, 0, 349)
}

func TestFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed sweep skipped in -short")
	}
	tab := runExperiment(t, "fig13", 0)
	const sec = "mean aggregate alltoall goodput (Gbps) by worker count"
	within(t, tab, sec, []string{"default", "expert", "paraleon"}, []string{"4", "6", "8"}, 1e-9, math.Inf(1))
}

func TestFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed influx skipped in -short")
	}
	dir := t.TempDir()
	tab := runExperimentCSV(t, "fig14", 0, dir)
	rows := []string{"default", "expert", "paraleon"}
	within(t, tab, "during the burst", rows, []string{"TP", "RTTnorm"}, 1e-9, 1)
	// The testbed arm samples its timeline once per interval like the
	// simulated ones.
	timelineSamples(t, dir, "fig14", rows, defaultInfluxSpec().Horizon)
}

func TestTable4(t *testing.T) {
	tab := runExperiment(t, "table4", 20*eventsim.Millisecond)
	const sec = "Paraleon system overheads (measured)"
	for _, c := range []string{"switch->controller B per interval", "controller->fabric B per interval", "controller compute us per tick"} {
		if v := tab.Mean(sec, "paraleon", c); !(v > 0) {
			t.Errorf("%s = %g, want > 0", c, v)
		}
	}
	if v := tab.Mean(sec, "paraleon", "intervals processed"); v != 20 {
		t.Errorf("intervals processed %g, want 20", v)
	}
}

func TestTunerShootoutRunsAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-arm simulation in -short mode")
	}
	tab := runExperiment(t, "tuner-shootout", 30*eventsim.Millisecond)
	tuners := tuner.Names()
	if len(tuners) < 3 {
		t.Fatalf("shootout raced %v, want the three in-tree strategies", tuners)
	}
	for _, wl := range []string{"alltoall", "incast", "chaos-linkflap"} {
		if rows := tab.Rows(wl); len(rows) != len(tuners) {
			t.Errorf("%s: rows %v, want %v", wl, rows, tuners)
		}
		within(t, tab, wl, tuners, []string{"mean"}, 1e-9, 1)
		within(t, tab, wl, tuners, []string{"pause%"}, 0, 100)
		if wl != "chaos-linkflap" {
			within(t, tab, wl, tuners, []string{"dispatches"}, 1, math.Inf(1))
		}
	}
}

// TestTunerShootoutDeterministic pins the acceptance bar: identical
// (scale, horizon, seed) must reproduce the full table.
func TestTunerShootoutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-arm simulation in -short mode")
	}
	e, _ := Lookup("tuner-shootout")
	x := Setup{Scale: QuickScale(), Horizon: 20 * eventsim.Millisecond, ChaosSeed: 7}
	var tabs []*Table
	for range 2 {
		tab, err := RunExperiment(e, x)
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	// Every cell bit for bit, not as printed: the printer rounds.
	a, b := tabs[0].vals, tabs[1].vals
	if len(a) != len(b) {
		t.Fatalf("rerun measured %d cells, first run %d", len(b), len(a))
	}
	same := func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }
	for k, va := range a {
		if vb := b[k]; !slices.EqualFunc(va, vb, same) {
			t.Errorf("rerun diverged at %v: %v vs %v", k, va, vb)
		}
	}
}
