package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/eventsim"
)

func TestTunerShootoutRunsAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-arm simulation in -short mode")
	}
	r, err := TunerShootout(QuickScale(), 30*eventsim.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuners) < 3 {
		t.Fatalf("shootout raced %v, want the three in-tree strategies", r.Tuners)
	}
	for _, wl := range r.Workloads {
		for _, tun := range r.Tuners {
			c := r.Cell(tun, wl)
			if c.Tuner != tun || c.Workload != wl {
				t.Fatalf("missing cell (%s, %s)", tun, wl)
			}
			if math.IsNaN(c.MeanUtility) || c.MeanUtility <= 0 {
				t.Errorf("(%s, %s): mean utility %g, want > 0", tun, wl, c.MeanUtility)
			}
			if math.IsNaN(c.PauseFrac) || c.PauseFrac < 0 || c.PauseFrac > 1 {
				t.Errorf("(%s, %s): pause fraction %g out of [0,1]", tun, wl, c.PauseFrac)
			}
			if wl != "chaos-linkflap" && c.Dispatches == 0 {
				t.Errorf("(%s, %s): no dispatches — strategy never ran", tun, wl)
			}
		}
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, tun := range r.Tuners {
		if !strings.Contains(out, tun) {
			t.Errorf("report omits %s:\n%s", tun, out)
		}
	}
}

// TestTunerShootoutDeterministic pins the acceptance bar: identical
// (scale, horizon, seed) must reproduce the full table.
func TestTunerShootoutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-arm simulation in -short mode")
	}
	run := func() *TunerShootoutResult {
		r, err := TunerShootout(QuickScale(), 20*eventsim.Millisecond, 7)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	for key, ca := range a.Cells {
		if cb := b.Cells[key]; ca != cb {
			t.Errorf("rerun diverged at %s:\n%+v\n%+v", key, ca, cb)
		}
	}
}
