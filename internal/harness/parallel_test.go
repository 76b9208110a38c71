package harness

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry/series"
)

// sweepConfigs builds a small 2-scheme × 3-seed sweep, the shape the
// determinism contract is stated for.
func sweepConfigs(dur eventsim.Time) []RunConfig {
	scale := QuickScale()
	var cfgs []RunConfig
	for _, sc := range []Scheme{DefaultScheme(), ExpertScheme()} {
		for _, seed := range []int64{1, 2, 3} {
			net := scale.Net
			net.Seed = seed
			cfgs = append(cfgs, RunConfig{
				Net:        net,
				Scheme:     sc,
				Interval:   scale.Interval,
				Duration:   dur,
				DrainAfter: true,
				Workload:   fbPoisson(0.3, dur),
			})
		}
	}
	return cfgs
}

func seriesEqual(a, b *series.Series) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		at, av := a.At(i)
		bt, bv := b.At(i)
		if at != bt || av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
			return false
		}
	}
	return true
}

// assertResultsEqual demands bit-identical outputs: every metric series,
// every completed-flow record, and the tuner counters.
func assertResultsEqual(t *testing.T, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if (g == nil) != (w == nil) {
			t.Fatalf("arm %d: nil mismatch", i)
		}
		if g == nil {
			continue
		}
		if g.SchemeName != w.SchemeName {
			t.Errorf("arm %d: scheme %q != %q", i, g.SchemeName, w.SchemeName)
		}
		for _, s := range []struct {
			name string
			g, w *series.Series
		}{
			{"TP", g.TP, w.TP}, {"RTT", g.RTT, w.RTT},
			{"PFC", g.PFC, w.PFC}, {"Utility", g.Utility, w.Utility},
			{"Accuracy", g.Accuracy, w.Accuracy},
		} {
			if !seriesEqual(s.g, s.w) {
				t.Errorf("arm %d: %s series differs", i, s.name)
			}
		}
		if !reflect.DeepEqual(g.Net.Completed, w.Net.Completed) {
			t.Errorf("arm %d: completed flow records differ (%d vs %d flows)",
				i, len(g.Net.Completed), len(w.Net.Completed))
		}
		if g.Triggers != w.Triggers || g.Dispatches != w.Dispatches || g.Rounds != w.Rounds {
			t.Errorf("arm %d: tuner counters differ", i)
		}
		if !reflect.DeepEqual(g.UtilTrace, w.UtilTrace) {
			t.Errorf("arm %d: utility trace differs", i)
		}
	}
}

// TestRunAllMatchesSequential is the determinism contract: a parallel
// sweep must be bit-identical to the same sweep run one arm at a time.
func TestRunAllMatchesSequential(t *testing.T) {
	const dur = 10 * eventsim.Millisecond
	seq, err := RunAll(sweepConfigs(dur), ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(sweepConfigs(dur), ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, par, seq)
}

func TestRunAllPanicRecovery(t *testing.T) {
	cfgs := sweepConfigs(5 * eventsim.Millisecond)[:3]
	cfgs[1].Workload = func(n *sim.Network) error {
		panic("rigged workload")
	}
	results, err := RunAll(cfgs, ParallelOptions{Workers: 2})
	if err == nil {
		t.Fatal("want error from panicking arm")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "rigged workload") {
		t.Errorf("error does not describe the panic: %v", err)
	}
	if !strings.Contains(err.Error(), "arm 1") {
		t.Errorf("error does not name the failing arm: %v", err)
	}
	if results[1] != nil {
		t.Error("panicking arm produced a result")
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil {
			t.Errorf("healthy arm %d lost its result", i)
		}
	}
}

func TestRunAllErrorTagging(t *testing.T) {
	sentinel := errors.New("bad workload")
	cfgs := sweepConfigs(5 * eventsim.Millisecond)[:2]
	cfgs[0].Workload = func(n *sim.Network) error { return sentinel }
	results, err := RunAll(cfgs, ParallelOptions{Workers: 2})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the cause: %v", err)
	}
	if results[0] != nil || results[1] == nil {
		t.Error("result slots do not match per-arm outcomes")
	}
}

func TestRunAllProgress(t *testing.T) {
	cfgs := sweepConfigs(5 * eventsim.Millisecond)[:4]
	var mu sync.Mutex
	var dones []int
	seen := map[int]bool{}
	_, err := RunAll(cfgs, ParallelOptions{
		Workers: 2,
		Progress: func(st ArmStatus) {
			mu.Lock()
			defer mu.Unlock()
			dones = append(dones, st.Done)
			seen[st.Index] = true
			if st.Total != len(cfgs) {
				t.Errorf("Total = %d, want %d", st.Total, len(cfgs))
			}
			if st.Err != nil {
				t.Errorf("arm %d reported error: %v", st.Index, st.Err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(cfgs) || len(seen) != len(cfgs) {
		t.Fatalf("progress fired %d times for %d distinct arms, want %d", len(dones), len(seen), len(cfgs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("Done sequence %v not monotone 1..N", dones)
			break
		}
	}
}

func TestRunAllEmpty(t *testing.T) {
	results, err := RunAll(nil, ParallelOptions{})
	if err != nil || len(results) != 0 {
		t.Fatalf("RunAll(nil) = %v, %v", results, err)
	}
}

// BenchmarkRunAll compares a 4-arm sweep run sequentially and with one
// worker per CPU. On a multicore machine (≥ 4 cores) the parallel
// variant should come out ≥ 2× faster; on a single core they tie.
func BenchmarkRunAll(b *testing.B) {
	const dur = 10 * eventsim.Millisecond
	cfgs := sweepConfigs(dur)[:4]
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunAll(cfgs, ParallelOptions{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
