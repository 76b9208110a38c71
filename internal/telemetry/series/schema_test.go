package series

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// requiredSeries are the series cmd/paraleon-analyze and the CI artifact
// probe read from every chaos-linkflap artifact.
var requiredSeries = []string{"utility", "monitor_kl", "queue_bytes_tor0", "pfc_pause_frac_tor0"}

// checkSchema returns the first black-box schema rule a loaded artifact
// breaks, or nil:
//   - meta names the experiment (Load has already checked the version);
//   - anomalies is a list, each with a kind and a snapshot index that is
//     -1 (budget exhausted) or points into snapshots;
//   - every event has a kind, and events are in time order;
//   - every series is named, carries aligned t/v arrays, a stride ≥ 1 and
//     an offered count no smaller than what it stored;
//   - the required series are present;
//   - every histogram has one count per bound plus +Inf, cumulative, the
//     last equal to its count.
func checkSchema(a *Artifact) error {
	if a.Meta.Experiment == "" {
		return fmt.Errorf("meta.experiment missing")
	}
	if a.Anomalies == nil {
		return fmt.Errorf("anomalies is not a list")
	}
	for i, an := range a.Anomalies {
		if an.Kind == "" {
			return fmt.Errorf("anomaly %d has no kind", i)
		}
		if an.Snapshot != -1 && (an.Snapshot < 0 || an.Snapshot >= len(a.Snapshots)) {
			return fmt.Errorf("anomaly %d snapshot index %d out of range", i, an.Snapshot)
		}
	}
	for i, e := range a.Events {
		if e.Kind == "" {
			return fmt.Errorf("event %d has no kind", i)
		}
		if i > 0 && e.T < a.Events[i-1].T {
			return fmt.Errorf("event %d at t=%d before its predecessor", i, e.T)
		}
	}
	names := map[string]bool{}
	for _, s := range a.Series {
		if s.Name == "" {
			return fmt.Errorf("series without a name")
		}
		names[s.Name] = true
		if len(s.T) != len(s.V) {
			return fmt.Errorf("series %s: %d times for %d values", s.Name, len(s.T), len(s.V))
		}
		if s.Stride < 1 {
			return fmt.Errorf("series %s: stride %d < 1", s.Name, s.Stride)
		}
		if s.Offered < int64(len(s.T)) {
			return fmt.Errorf("series %s: offered %d < stored %d", s.Name, s.Offered, len(s.T))
		}
	}
	for _, name := range requiredSeries {
		if !names[name] {
			return fmt.Errorf("required series %s missing", name)
		}
	}
	for _, h := range a.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("histogram %s: %d counts for %d bounds", h.Name, len(h.Counts), len(h.Bounds))
		}
		for i := 1; i < len(h.Counts); i++ {
			if h.Counts[i-1] > h.Counts[i] {
				return fmt.Errorf("histogram %s: counts not cumulative", h.Name)
			}
		}
		if n := len(h.Counts); n > 0 && h.Counts[n-1] != h.Count {
			return fmt.Errorf("histogram %s: count %d != last cumulative %d", h.Name, h.Count, h.Counts[n-1])
		}
	}
	return nil
}

// linkFlapArtifact writes an artifact shaped like chaos-linkflap's: the
// loop's series sampled once per 1 ms interval for long enough that they
// downsample, fault and dispatch events in its event log's tail, more
// rollbacks than the snapshot budget, and the FCT histogram.
func linkFlapArtifact(t *testing.T) []byte {
	t.Helper()
	reg := telemetry.NewRegistry()
	fct := reg.Histogram("paraleon_sim_fct_ms", "flow completion time", telemetry.BucketsFCTMs)
	rec := NewRecorder(Meta{Experiment: "chaos-linkflap", Tuner: "sa", Seed: 7, Scale: "quick",
		IntervalNs: 1e6, HorizonNs: 2000e6})
	var now int64
	rec.Log = trace.New(func() int64 { return now }, nil, true)
	var handles []*Series
	for _, name := range append(requiredSeries, "ecn_mark_rate_tor0") {
		handles = append(handles, rec.Set.Series(name, ""))
	}
	const ticks = 2000
	for i := int64(1); i <= ticks; i++ {
		now = i * 1e6
		for k, h := range handles {
			h.Append(i*1e6, float64((i+int64(k))%17))
		}
		fct.Observe(float64(i%50) / 10)
		switch i % 300 {
		case 100:
			rec.Log.Fault(0, "link_down", "tor0-leaf1")
		case 150:
			rec.Log.Dispatch(0, dcqcn.DefaultParams())
		case 200:
			rec.Trip(i*1e6, "rollback", "utility below last good")
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteArtifact(&buf, ticks*1e6, reg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtifactSchema round-trips a chaos-linkflap-shaped artifact through
// Load and holds it to the black-box schema; each broken copy must fail the
// rule it breaks.
func TestArtifactSchema(t *testing.T) {
	raw := linkFlapArtifact(t)
	load := func() *Artifact {
		a, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := load()
	if err := checkSchema(a); err != nil {
		t.Fatalf("artifact breaks its schema: %v", err)
	}
	if u := a.FindSeries("utility"); u == nil || u.Stride < 2 {
		t.Fatalf("utility series did not downsample: %+v", u)
	}
	if n := len(a.Anomalies); n <= len(a.Snapshots) || a.Anomalies[n-1].Snapshot != -1 {
		t.Fatalf("%d anomalies over %d snapshots: the budget never ran out", n, len(a.Snapshots))
	}
	if len(a.Events) == 0 || a.Events[0].Kind != trace.KindFault || a.Events[1].Params == nil {
		t.Fatalf("artifact events %+v", a.Events)
	}

	for _, tc := range []struct {
		name   string
		mutate func(a *Artifact)
	}{
		{"no experiment", func(a *Artifact) { a.Meta.Experiment = "" }},
		{"anomalies not a list", func(a *Artifact) { a.Anomalies = nil }},
		{"anomaly without kind", func(a *Artifact) { a.Anomalies[0].Kind = "" }},
		{"snapshot out of range", func(a *Artifact) { a.Anomalies[0].Snapshot = len(a.Snapshots) }},
		{"event without kind", func(a *Artifact) { a.Events[0].Kind = "" }},
		{"events out of order", func(a *Artifact) { a.Events[1].T = a.Events[0].T - 1 }},
		{"unnamed series", func(a *Artifact) { a.Series[0].Name = "" }},
		{"t/v mismatch", func(a *Artifact) { a.Series[0].V = a.Series[0].V[1:] }},
		{"stride 0", func(a *Artifact) { a.Series[0].Stride = 0 }},
		{"offered below stored", func(a *Artifact) { a.Series[0].Offered = 1 }},
		{"required series missing", func(a *Artifact) { a.Series = a.Series[1:] }},
		{"histogram short", func(a *Artifact) { a.Histograms[0].Counts = a.Histograms[0].Counts[1:] }},
		{"histogram not cumulative", func(a *Artifact) { a.Histograms[0].Counts[0] = a.Histograms[0].Count + 1 }},
		{"histogram count", func(a *Artifact) { a.Histograms[0].Count++ }},
	} {
		a := load()
		tc.mutate(a)
		if err := checkSchema(a); err == nil {
			t.Errorf("%s: schema check passed", tc.name)
		}
	}
}
