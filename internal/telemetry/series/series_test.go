package series

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/telemetry"
)

// TestSeriesDownsample drives a small ring far past capacity and checks
// the overflow contract: stride doubles, stored samples stay uniformly
// spaced on the offered grid, and the series spans the whole run.
func TestSeriesDownsample(t *testing.T) {
	const capacity = 8
	s := New("q", "bytes", capacity)
	const n = 100
	for i := 0; i < n; i++ {
		s.Append(int64(i), float64(i))
	}
	if s.Offered() != n {
		t.Fatalf("Offered=%d, want %d", s.Offered(), n)
	}
	if s.Len() > capacity {
		t.Fatalf("Len=%d exceeds capacity %d", s.Len(), capacity)
	}
	if s.Stride() != 16 {
		// 100 offers into 8 slots: stride doubles 1→2→4→8→16.
		t.Fatalf("Stride=%d, want 16", s.Stride())
	}
	// Times are the values we appended, so spacing is directly visible.
	stride := int64(s.Stride())
	for i := 0; i < s.Len(); i++ {
		tm, v := s.At(i)
		if tm != int64(i)*stride {
			t.Fatalf("sample %d at t=%d, want uniform grid t=%d", i, tm, int64(i)*stride)
		}
		if v != float64(tm) {
			t.Fatalf("sample %d: value %g diverged from its time %d", i, v, tm)
		}
	}
	// The last stored sample must be within one stride of the run's end:
	// downsampling keeps coverage of the whole run, not just its start.
	last, _ := s.At(s.Len() - 1)
	if n-last > int64(s.Stride()) {
		t.Fatalf("last stored sample t=%d is more than one stride before the end %d", last, n)
	}
}

// TestSeriesAppendZeroAlloc pins the steady-state sampling contract:
// Append never allocates, including across overflow compactions.
func TestSeriesAppendZeroAlloc(t *testing.T) {
	s := New("q", "bytes", 64)
	var tick int64
	allocs := testing.AllocsPerRun(10000, func() {
		tick++
		s.Append(tick, float64(tick))
	})
	if allocs != 0 {
		t.Fatalf("Series.Append allocates %g/op, want 0", allocs)
	}
}

// TestRecorderSampleZeroAlloc pins the same contract one level up: a
// full per-tick sampling round over resolved handles (the shape of
// core's flight sampler) stays allocation-free.
func TestRecorderSampleZeroAlloc(t *testing.T) {
	rec := NewRecorder(Meta{Experiment: "test"})
	handles := []*Series{
		rec.Set.Series("utility", "score"),
		rec.Set.Series("queue_bytes_tor0", "bytes"),
		rec.Set.Series("pfc_pause_frac_tor0", "frac"),
		rec.Set.Series("monitor_kl", "nats"),
	}
	var tick int64
	allocs := testing.AllocsPerRun(10000, func() {
		tick++
		for _, h := range handles {
			h.Append(tick, float64(tick%7))
		}
	})
	if allocs != 0 {
		t.Fatalf("sampling round allocates %g/op, want 0", allocs)
	}
}

func TestSetCreationOrder(t *testing.T) {
	st := NewSet(4)
	a := st.Series("b_second", "")
	b := st.Series("a_first", "")
	if st.Series("b_second", "") != a {
		t.Fatal("Series is not get-or-create")
	}
	all := st.order
	if len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatalf("creation order not preserved: %v", all)
	}
}

func TestRecorderTripSnapshotBudget(t *testing.T) {
	rec := NewRecorder(Meta{Experiment: "test", Seed: 1})
	s := rec.Set.Series("utility", "score")
	for i := 0; i < 10; i++ {
		s.Append(int64(i), float64(i))
	}
	for i := 0; i < 6; i++ {
		rec.Trip(int64(100+i), "rollback", "test")
	}
	a := rec.Artifact(200, nil)
	if len(a.Anomalies) != 6 {
		t.Fatalf("anomalies=%d, want 6", len(a.Anomalies))
	}
	if len(a.Snapshots) != 4 {
		t.Fatalf("snapshots=%d, want budget of 4", len(a.Snapshots))
	}
	for i, an := range a.Anomalies {
		want := i
		if i >= 4 {
			want = -1 // budget exhausted: anomaly recorded, no snapshot
		}
		if an.Snapshot != want {
			t.Fatalf("anomaly %d snapshot=%d, want %d", i, an.Snapshot, want)
		}
	}
	if got := a.Snapshots[0].Series[0].Name; got != "utility" {
		t.Fatalf("snapshot series name %q", got)
	}
	if n := len(a.Snapshots[0].Series[0].V); n != 10 {
		t.Fatalf("snapshot froze %d samples, want 10", n)
	}
}

func TestSeriesMeanOver(t *testing.T) {
	s := New("tp", "frac", 10)
	for i := int64(0); i < 10; i++ {
		s.Append(i*1e6, float64(i))
	}
	if s.Len() != 10 || s.Stride() != 1 {
		t.Fatalf("Len = %d, Stride = %d", s.Len(), s.Stride())
	}
	if m := s.MeanOver(2e6, 5e6); m != 3 {
		t.Errorf("MeanOver = %g, want 3 (mean of 2,3,4)", m)
	}
	if !math.IsNaN(s.MeanOver(100e6, 200e6)) {
		t.Error("empty window mean not NaN")
	}
	if v := s.Values(); len(v) != 10 || v[9] != 9 {
		t.Errorf("Values = %v", v)
	}
}

// TestNewRoundsCapacity: a series sized for an odd tick count still
// holds every tick without downsampling.
func TestNewRoundsCapacity(t *testing.T) {
	for _, ticks := range []int{0, 1, 7, 513} {
		s := New("u", "", ticks)
		for i := 0; i < ticks; i++ {
			s.Append(int64(i), 1)
		}
		if s.Len() != ticks || s.Stride() != 1 {
			t.Errorf("capacity %d: Len %d, Stride %d", ticks, s.Len(), s.Stride())
		}
	}
}

// TestArtifactRoundTrip writes an artifact (with embedded histograms)
// and loads it back, checking WriteArtifact/Load agree and the bytes
// are deterministic across repeated writes.
func TestArtifactRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("paraleon_sim_fct_ms", "test", telemetry.BucketsFCTMs)
	for _, v := range []float64{0.2, 0.7, 3, 40} {
		h.Observe(v)
	}
	rec := NewRecorder(Meta{Experiment: "unit", Seed: 7})
	s := rec.Set.Series("utility", "score")
	for i := 0; i < 20; i++ {
		s.Append(int64(i), float64(i)*0.1)
	}
	rec.Trip(15, "rollback", "ewma below good")

	var buf1, buf2 bytes.Buffer
	if err := rec.WriteArtifact(&buf1, 20, reg); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteArtifact(&buf2, 20, reg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("repeated WriteArtifact calls are not byte-identical")
	}

	a, err := Load(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta.Experiment != "unit" || a.Meta.Seed != 7 {
		t.Fatalf("meta round trip: %+v", a.Meta)
	}
	if d := a.FindSeries("utility"); d == nil || len(d.V) != 20 {
		t.Fatalf("utility series lost in round trip: %+v", d)
	}
	hs := a.FindHistogram("paraleon_sim_fct_ms")
	if hs == nil || hs.Count != 4 {
		t.Fatalf("histogram lost in round trip: %+v", hs)
	}
	if q := hs.Quantile(0.50); q <= 0 {
		t.Fatalf("histogram p50=%g after round trip", q)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte(`{"version": 99}`))); err == nil {
		t.Fatal("Load accepted version 99")
	}
}
