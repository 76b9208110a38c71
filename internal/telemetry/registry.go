// Package telemetry is Paraleon's runtime observability layer: a
// low-overhead metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text exposition and pulled status
// sections, and a run-summary Report generator. The binaries serve a
// registry over HTTP with cmd/internal/telhttp; this package links no
// HTTP stack.
//
// The closed loop the paper describes — monitor intervals feeding
// KL-divergence triggers, triggers driving an SA search, the search
// dispatching parameter vectors — reacts to traffic shifts within
// milliseconds; an operator cannot debug it from post-hoc CSVs alone.
// Every subsystem (sketch, monitor, tuner, ctrlrpc, chaos) publishes
// into one registry so simulation runs and the real agent/controller
// daemons share a single instrumentation surface.
//
// Design constraints: all metric updates are safe for concurrent use
// and allocation-free (atomic operations only; metric handles are
// resolved once at construction, never on the hot path). The registry
// is aware of both clocks that matter here — wall time (daemons,
// pprof) and the simulator's virtual clock, which components publish
// through the virtual-time gauge and virtual-time-denominated
// histograms.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates the registry's family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programming error and panic, because
// a counter that goes down silently corrupts every rate() computed on it.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("telemetry: counter add %d < 0", n))
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways. All methods
// are safe for concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetBool stores 1 for true, 0 for false.
func (g *Gauge) SetBool(b bool) {
	if b {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// SetMax raises the gauge to v if v is larger: a high-water mark that
// concurrent writers can share.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into a fixed bucket layout chosen at
// registration. Observe is safe for concurrent use and allocation-free:
// the bounds slice is fixed, bucket counts and the sum are atomics.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf bucket.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Fixed bucket layouts. Chosen once so dashboards are comparable across
// runs; histograms never grow or rebalance buckets at runtime.
var (
	// BucketsKL covers KL-divergence trigger values around the paper's
	// θ = 0.01 threshold.
	BucketsKL = []float64{1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 0.5, 1}
	// BucketsLatencyMs covers control-loop latencies in (virtual)
	// milliseconds: trigger→dispatch and trigger→settle distances at a
	// 1 ms monitor interval.
	BucketsLatencyMs = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 250, 500, 1000}
	// BucketsFlows covers per-interval FSD flow counts.
	BucketsFlows = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	// BucketsBytes covers per-interval byte masses (1 KB … 1 GB).
	BucketsBytes = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	// BucketsFCTMs covers flow completion times in virtual milliseconds,
	// finer than BucketsLatencyMs at the sub-millisecond end where mice
	// flows live.
	BucketsFCTMs = []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100}
)

// family is one named metric with its metadata.
type family struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// validName reports whether name is a Prometheus metric name,
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// Registry holds metric families and status sections. Metric lookups
// (Counter/Gauge/Histogram) are get-or-create: asking for an existing
// name returns the existing metric, so independent components can share
// families without coordination. Lookups take a mutex — resolve handles
// once at construction, not per update.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	started  time.Time

	// status maps section name → the func() any that returns the
	// section's snapshot at scrape time (StatusSource).
	status sync.Map
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, started: time.Now()}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry. Components instrument
// against it when no explicit registry is configured, which is how one
// `-report` / `-telemetry-addr` surface covers every experiment a
// binary runs without per-experiment plumbing.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

func (r *Registry) lookup(name, help string, kind metricKind) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		f.c = &Counter{}
	case kindGauge:
		f.g = &Gauge{}
	}
	r.families[name] = f
	return f
}

// Counter returns the counter named name, creating it if absent.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter).c
}

// Gauge returns the gauge named name, creating it if absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge).g
}

// Histogram returns the histogram named name with the given fixed bucket
// bounds, creating it if absent. Bounds must be ascending; they are
// fixed for the registry's lifetime (an existing histogram keeps its
// original layout).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending at %d", name, i))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kindHistogram {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as histogram", name, f.kind))
		}
		return f.h
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.families[name] = &family{name: name, help: help, kind: kindHistogram, h: h}
	return h
}

// StatusSource registers fn as the provider of section for
// /debug/status and Report, replacing any earlier provider of that
// section. fn is called from HTTP goroutines while the producer keeps
// running, so it must return a self-contained copy taken under the
// producer's own lock (StatusCell does this), or nil while it has
// nothing to show.
func (r *Registry) StatusSource(section string, fn func() any) {
	r.status.Store(section, fn)
}

// Status returns the current snapshot of every section whose provider
// has one.
func (r *Registry) Status() map[string]any {
	out := map[string]any{}
	r.status.Range(func(k, v any) bool {
		if s := v.(func() any)(); s != nil {
			out[k.(string)] = s
		}
		return true
	})
	return out
}

// StatusCell is one status section: the producer overwrites it in place
// with Set, without allocating, and a scrape reads a copy of the last
// value set. Until the first Set the section is absent from Status.
type StatusCell[T any] struct {
	mu  sync.Mutex
	v   T
	set bool
}

// NewStatusCell registers a cell as the provider of section on r.
func NewStatusCell[T any](r *Registry, section string) *StatusCell[T] {
	c := &StatusCell[T]{}
	r.StatusSource(section, c.snapshot)
	return c
}

// Set replaces the section's snapshot with v.
func (c *StatusCell[T]) Set(v T) {
	c.mu.Lock()
	c.v, c.set = v, true
	c.mu.Unlock()
}

func (c *StatusCell[T]) snapshot() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.set {
		return nil
	}
	return c.v
}

// Started reports when the registry was created (process uptime anchor).
func (r *Registry) Started() time.Time { return r.started }

// sortedFamilies snapshots the family set in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): HELP/TYPE comments, one `name value` line per
// scalar, and the cumulative `_bucket{le=...}`/`_sum`/`_count` triple
// for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		switch f.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", f.name, f.c.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.g.Value())); err != nil {
				return err
			}
		case kindHistogram:
			cum := f.h.snapshot()
			for i, b := range f.h.bounds {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.name, formatFloat(b), cum[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum[len(cum)-1]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", f.name, formatFloat(f.h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", f.name, f.h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
