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

// ParallelOptions controls how RunAll spreads experiment arms over
// workers. The zero value is a sensible default: one worker per CPU, no
// seed derivation, no progress reporting.
type ParallelOptions struct {
	// Workers bounds the number of arms executing concurrently. Zero or
	// negative means GOMAXPROCS. One worker degenerates to a strictly
	// sequential, in-order sweep.
	Workers int
	// DeriveSeeds, when true, runs arm i with
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
// Incomplete is the arm's Result.Incomplete (0 for a failed arm).
type ArmStatus struct {
	Index      int
	Scheme     string
	Done       int
	Total      int
	Wall       time.Duration
	Err        error
	Incomplete int
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
	if len(cfgs) == 0 {
		return results, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	errs := make([]error, len(cfgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards done and serializes Progress
	done := 0

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cfg := cfgs[i]
				if opts.DeriveSeeds {
					cfg.Net.Seed = DeriveArmSeed(cfg.Net.Seed, i)
				}
				start := time.Now()
				res, err := runArm(cfg)
				if err != nil {
					err = fmt.Errorf("harness: arm %d (%s): %w", i, cfg.Scheme.Name, err)
				}
				results[i], errs[i] = res, err
				mu.Lock()
				done++
				if opts.Progress != nil {
					st := ArmStatus{
						Index:  i,
						Scheme: cfg.Scheme.Name,
						Done:   done,
						Total:  len(cfgs),
						Wall:   time.Since(start),
						Err:    err,
					}
					if res != nil {
						st.Incomplete = res.Incomplete
					}
					opts.Progress(st)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}

// runArm executes one arm, converting a panic anywhere under Run into an
// ordinary error so a single bad arm cannot kill a long sweep.
func runArm(cfg RunConfig) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return Run(cfg)
}
