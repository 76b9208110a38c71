package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/splitmix"
)

// ParallelOptions controls how RunAll and RunExperiment spread arms over
// workers. The zero value is a sensible default: one worker per CPU, no
// seed derivation, no progress reporting.
type ParallelOptions struct {
	// Workers bounds the number of arms executing concurrently. Zero or
	// negative means GOMAXPROCS. One worker degenerates to a strictly
	// sequential, in-order sweep.
	Workers int
	// DeriveSeeds, when true, makes RunAll run arm i with
	// Net.Seed = DeriveArmSeed(cfg.Net.Seed, i) so that arms sharing a
	// base configuration draw independent randomness. The derivation is a
	// pure function of (base seed, arm index) — never of scheduling — so
	// a parallel sweep reproduces a sequential one bit for bit. Leave it
	// off when arms must see the *same* workload draw (the figure
	// experiments compare schemes under identical traffic).
	DeriveSeeds bool
	// Progress, when non-nil, is invoked once per completed arm.
	// Invocations are serialized; the callback needs no locking of its
	// own but must not call back into RunAll.
	Progress func(ArmStatus)
}

// ArmStatus is one progress update: arm Index finished (successfully or
// not) after Wall of wall-clock time, the Done-th of Total to do so.
type ArmStatus struct {
	Index  int
	Scheme string
	Done   int
	Total  int
	Wall   time.Duration
	Err    error
}

// DeriveArmSeed maps a base seed and an arm index to the arm's engine
// seed via a SplitMix64 round (splitmix.Derive). It depends only on its
// arguments, so seeds are stable across runs, worker counts, and
// completion order.
func DeriveArmSeed(base int64, arm int) int64 {
	return splitmix.Derive(base, arm)
}

// RunAll executes every arm of a sweep, concurrently up to opts.Workers,
// and returns results in input order. Each arm owns its own network and
// event engine, so arms never share mutable state and the output is
// identical to running the same configs sequentially.
//
// A failing arm — an error from Run or a recovered panic — does not stop
// the sweep: its slot in the result slice stays nil and RunAll returns
// all failures joined into one error, each tagged with its arm index and
// scheme name.
func RunAll(cfgs []RunConfig, opts ParallelOptions) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	err := pool(len(cfgs), opts, func(i int) string { return cfgs[i].Scheme.Name }, func(i int) (err error) {
		cfg := cfgs[i]
		if opts.DeriveSeeds {
			cfg.Net.Seed = DeriveArmSeed(cfg.Net.Seed, i)
		}
		results[i], err = Run(cfg)
		return err
	})
	return results, err
}

// pool runs job(0) … job(n-1) on up to opts.Workers goroutines and
// reports each completion to opts.Progress. A job's error or panic does
// not stop the others: the failures come back joined, each tagged with
// the job's index and label.
func pool(n int, opts ParallelOptions, label func(int) string, job func(int) error) error {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards done and serializes Progress
	done := 0
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				err := recovered(func() error { return job(i) })
				if err != nil {
					err = fmt.Errorf("harness: arm %d (%s): %w", i, label(i), err)
				}
				errs[i] = err
				mu.Lock()
				done++
				if opts.Progress != nil {
					opts.Progress(ArmStatus{Index: i, Scheme: label(i), Done: done, Total: n, Wall: time.Since(start), Err: err})
				}
				mu.Unlock()
			}
		}()
	}
	for i := range n {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}

// recovered runs f, converting a panic anywhere under it into an ordinary
// error so a single bad arm cannot kill a long sweep.
func recovered(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}
