package main

import (
	"fmt"
	"runtime"
	"time"
)

// procStart approximates process start: package initialisation runs
// before main, so set-up time counts flag parsing and everything after.
var procStart = time.Now()

// repResult is what one repetition of one workload produced. Exact values
// are simulated results and counts that must repeat bit for bit for a
// fixed (workload, size, seed); Host values are host-time measurements.
type repResult struct {
	Workload string `json:"workload"`
	Size     string `json:"size"`
	Seed     int64  `json:"seed"`

	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Attempted and Failed count operations: flows for the simulated
	// workloads (failed = not complete by the deadline), reaction points
	// for the timer fleet, ticks for the daemon.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`

	Exact  map[string]float64 `json:"exact"`
	Host   map[string]float64 `json:"host"`
	Digest string             `json:"digest"`

	// Failures are output checks that did not hold; any entry makes the
	// run incorrect.
	Failures []string `json:"failures,omitempty"`
	// SelfTime is the traced repetition's spans folded by name.
	SelfTime []spanTotal `json:"self_time,omitempty"`
}

// runCtx is what a workload gets: its inputs (size, seed), where to put
// results, and the clocks for the timed region.
type runCtx struct {
	size    size
	seed    int64
	tmpDir  string // scratch space inside the checkout (daemon WAL)
	workers int    // harness.RunAll parallelism for sweep_quick
	tr      *tracer
	res     *repResult

	// virtualMs is the virtual time the job covered, for the host cost per
	// virtual millisecond.
	virtualMs float64

	start    time.Time // when set-up began (process start in a child)
	timedAt  time.Time
	timedCPU float64
}

// beginTimed ends set-up: everything from ctx.start to here is setup_s.
func (c *runCtx) beginTimed() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.res.Host["sim.heap_mb_after_setup"] = float64(ms.HeapAlloc) / (1 << 20)
	c.tr.begin("job")
	c.timedAt = time.Now()
	c.timedCPU = cpuSeconds()
	c.res.SetupS = seconds(c.timedAt.Sub(c.start))
}

// endTimed closes the timed region: the workload's fixed job is done.
func (c *runCtx) endTimed() {
	c.res.WallS = seconds(time.Since(c.timedAt))
	c.res.CPUS = cpuSeconds() - c.timedCPU
	c.tr.end()
}

func (c *runCtx) failf(format string, args ...any) {
	c.res.Failures = append(c.res.Failures, fmt.Sprintf(format, args...))
}

// timeStep runs fn inside a span and records its duration (seconds) as a
// set-up layer metric.
func (c *runCtx) timeStep(metric string, fn func() error) error {
	c.tr.begin(metric)
	t := time.Now()
	err := fn()
	c.res.Host[metric] = seconds(time.Since(t))
	c.tr.end()
	return err
}

// runRep executes one repetition of a workload in this process.
// With traced set it records spans, derives the span metrics from them and,
// when spanFile is not empty, appends the spans to that file.
func runRep(w *workloadDef, sz size, seed int64, traced bool, spanFile, tmpDir string, workers int, start time.Time) *repResult {
	res := &repResult{
		Workload: w.Name, Size: sz.Name, Seed: seed,
		Exact: map[string]float64{}, Host: map[string]float64{},
	}
	ctx := &runCtx{size: sz, seed: seed, tmpDir: tmpDir, workers: workers, res: res, start: start}
	if traced {
		ctx.tr = newTracer(w.Name, start)
	}
	ctx.tr.begin("workload")
	if err := w.run(ctx); err != nil {
		ctx.failf("%s: %v", w.Name, err)
	}
	// A workload that failed mid-way may have left spans open.
	if ctx.tr != nil {
		for len(ctx.tr.open) > 0 {
			ctx.tr.end()
		}
		spans := ctx.tr.spans
		spanMetrics(spans, res.Host)
		var err error
		if res.SelfTime, err = selfTimeByName(spans); err != nil {
			ctx.failf("spans: %v", err)
		}
		if spanFile != "" {
			if err := appendSpans(spanFile, spans); err != nil {
				ctx.failf("writing spans: %v", err)
			}
		}
	}
	res.PeakRSSMB = peakRSSMB()
	if res.WallS > 0 {
		if ev := res.Exact["eventsim.events"]; ev > 0 {
			res.Host["eventsim.ns_per_event"] = res.WallS * 1e9 / ev
		}
		if ctx.virtualMs > 0 {
			res.Host["eventsim.wall_s_per_virtual_ms"] = res.WallS / ctx.virtualMs
		}
	}
	return res
}
