package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdatesExact hammers one registry from parallel
// goroutines and asserts the exact final values — run under -race this
// is the registry's concurrency contract.
func TestConcurrentUpdatesExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_level", "level")
	h := r.Histogram("test_lat", "lat", []float64{1, 10, 100})

	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Mix get-or-create lookups in to exercise the registry map
			// under contention, not just the atomics.
			c2 := r.Counter("test_ops_total", "ops")
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c2.Add(1)
				}
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %g, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Each worker observes 0..199 fifty times: sum = 50 * 199*200/2.
	wantSum := float64(workers) * float64(perWorker/200) * 199 * 200 / 2
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %g, want %g", got, wantSum)
	}
	// Bucket layout {1,10,100}: per worker, values 0,1 → le=1 (2 of every
	// 200), 2..10 → le=10 (9), 11..100 → le=100 (90), 101..199 → +Inf (99).
	cum := h.snapshot()
	per := int64(workers * perWorker / 200)
	wantCum := []int64{2 * per, 11 * per, 101 * per, 200 * per}
	for i, want := range wantCum {
		if cum[i] != want {
			t.Errorf("cumulative bucket %d = %d, want %d", i, cum[i], want)
		}
	}
}

// TestHotPathAllocationFree asserts the update paths never allocate —
// the property that lets the per-interval control loop run instrumented
// without touching the garbage collector.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "")
	g := r.Gauge("test_gauge", "")
	h := r.Histogram("test_hist", "", BucketsLatencyMs)
	for name, fn := range map[string]func(){
		"counter inc":       func() { c.Inc() },
		"counter add":       func() { c.Add(3) },
		"gauge set":         func() { g.Set(42.5) },
		"gauge add":         func() { g.Add(1.5) },
		"histogram observe": func() { h.Observe(7) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestGetOrCreateAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "first")
	b := r.Counter("shared_total", "second registration reuses the first")
	if a != b {
		t.Error("get-or-create returned distinct counters for one name")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("shared counter handles do not share state")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch did not panic")
			}
		}()
		r.Gauge("shared_total", "wrong kind")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid metric name did not panic")
			}
		}()
		r.Counter("bad name with spaces", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid histogram name did not panic")
			}
		}()
		r.Histogram("9starts_with_digit", "", []float64{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative counter add did not panic")
			}
		}()
		a.Add(-1)
	}()
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_ops_total", "Demo ops.").Add(7)
	r.Gauge("demo_temp", "Demo temperature.").Set(36.5)
	h := r.Histogram("demo_ms", "Demo latency.", []float64{1, 5})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP demo_ops_total Demo ops.\n",
		"# TYPE demo_ops_total counter\n",
		"demo_ops_total 7\n",
		"# TYPE demo_temp gauge\n",
		"demo_temp 36.5\n",
		"# TYPE demo_ms histogram\n",
		"demo_ms_bucket{le=\"1\"} 1\n",
		"demo_ms_bucket{le=\"5\"} 2\n",
		"demo_ms_bucket{le=\"+Inf\"} 3\n",
		"demo_ms_sum 103.5\n",
		"demo_ms_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line must be exactly `name value`.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestGaugeSetBool(t *testing.T) {
	var g Gauge
	g.SetBool(true)
	if g.Value() != 1 {
		t.Errorf("true = %g, want 1", g.Value())
	}
	g.SetBool(false)
	if g.Value() != 0 {
		t.Errorf("false = %g, want 0", g.Value())
	}
}

func TestBuildReport(t *testing.T) {
	r := NewRegistry()
	if rep := r.BuildReport(); !rep.Empty() {
		t.Errorf("fresh registry report not empty: %+v", rep.Metrics)
	}
	r.Counter("idle_total", "never moves")
	r.Counter("busy_total", "moves").Add(5)
	h := r.Histogram("lat_ms", "", BucketsLatencyMs)
	h.Observe(2)
	h.Observe(4)
	NewStatusCell[map[string]int](r, "loop").Set(map[string]int{"ticks": 9})

	rep := r.BuildReport()
	if rep.Empty() {
		t.Fatal("active registry report is empty")
	}
	names := map[string]MetricSummary{}
	for _, m := range rep.Metrics {
		names[m.Name] = m
	}
	if _, ok := names["idle_total"]; ok {
		t.Error("zero-activity family not omitted from report")
	}
	if m := names["busy_total"]; m.Value != 5 {
		t.Errorf("busy_total = %+v, want value 5", m)
	}
	if m := names["lat_ms"]; m.Count != 2 || math.Abs(m.Mean-3) > 1e-12 {
		t.Errorf("lat_ms = %+v, want count 2 mean 3", m)
	}
	if rep.Status["loop"] == nil {
		t.Error("published status section missing from report")
	}
	var sb strings.Builder
	rep.Fprint(&sb)
	if !strings.Contains(sb.String(), "busy_total") || !strings.Contains(sb.String(), "status loop") {
		t.Errorf("report text missing content:\n%s", sb.String())
	}
}

// BenchmarkCounterInc documents the counter hot path; run with -benchmem
// to confirm 0 allocs/op.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve documents the histogram hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_ms", "", BucketsLatencyMs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

// A status section is pulled at scrape time: absent until its producer
// first sets it, a copy of the last value set, and owned by whichever
// provider registered the section last.
func TestStatusCell(t *testing.T) {
	type loop struct{ Ticks int }
	r := NewRegistry()
	c := NewStatusCell[loop](r, "loop")
	if _, ok := r.Status()["loop"]; ok {
		t.Fatal("section present before its first Set")
	}
	c.Set(loop{Ticks: 1})
	got := r.Status()["loop"]
	c.Set(loop{Ticks: 2})
	if got != (loop{Ticks: 1}) {
		t.Errorf("earlier scrape = %+v, want a copy holding 1 tick", got)
	}
	if got := r.Status()["loop"]; got != (loop{Ticks: 2}) {
		t.Errorf("scrape = %+v, want the last value set", got)
	}
	NewStatusCell[loop](r, "loop").Set(loop{Ticks: 7})
	if got := r.Status()["loop"]; got != (loop{Ticks: 7}) {
		t.Errorf("scrape = %+v, want the newest provider's value", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.Set(loop{Ticks: 3}) }); n != 0 {
		t.Errorf("Set allocates %.0f objects", n)
	}
}

// TestValidNameMatchesRegexp checks validName against the Prometheus
// name pattern on every string of up to three bytes over an alphabet
// that holds both ends of each class and the bytes just outside them.
func TestValidNameMatchesRegexp(t *testing.T) {
	re := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	alphabet := []byte("azAZ09_:@[`{/;- \xc3")
	names := []string{""}
	for n, prev := 0, []string{""}; n < 3; n++ {
		var next []string
		for _, p := range prev {
			for _, c := range alphabet {
				next = append(next, p+string([]byte{c}))
			}
		}
		names, prev = append(names, next...), next
	}
	for _, name := range names {
		if got, want := validName(name), re.MatchString(name); got != want {
			t.Errorf("validName(%q) = %v, regexp says %v", name, got, want)
		}
	}
}

// Example of correlating a scrape with virtual time: the gauge moves as
// the loop ticks, and /debug/status reports the same clock.
func ExampleVirtualTime() {
	r := NewRegistry()
	VirtualTime(r).Set(2e6)
	fmt.Println(int64(VirtualTime(r).Value()))
	// Output: 2000000
}
