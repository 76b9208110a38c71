package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/trace"
)

// runLinkFlapBlackbox executes chaos-linkflap with the flight recorder
// attached and returns the raw artifact bytes. Each run gets a fresh
// registry: the artifact embeds histogram snapshots, and the
// process-wide default registry would mix counts across runs.
func runLinkFlapBlackbox(t *testing.T, seed int64, traceTo *bytes.Buffer) []byte {
	t.Helper()
	scale := QuickScale()
	var traceW *bytes.Buffer
	if traceTo != nil {
		traceW = traceTo
	}
	cfg := ChaosLinkFlapConfig(scale, 40*eventsim.Millisecond, seed, nil)
	if traceW != nil {
		cfg.TraceTo = traceW
	}
	var bb bytes.Buffer
	cfg.Blackbox = &bb
	cfg.ScaleLabel = "quick"
	cfg.SystemCfg.Telemetry = telemetry.NewRegistry()
	if _, err := RunChaos(cfg); err != nil {
		t.Fatal(err)
	}
	return bb.Bytes()
}

// TestBlackboxArtifactDeterministic pins the flight recorder into the
// determinism contract: a fixed seed yields a byte-identical black-box
// artifact on every run, and the artifact actually contains the
// rollback postmortem — the anomaly, and the queue/PFC/utility
// trajectory around it.
func TestBlackboxArtifactDeterministic(t *testing.T) {
	one := runLinkFlapBlackbox(t, 1, nil)
	again := runLinkFlapBlackbox(t, 1, nil)
	diffTraces(t, "second run's artifact diverges from the first", again, one)

	a, err := series.Load(bytes.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta.Experiment != "chaos-linkflap" || a.Meta.Seed != 1 || a.Meta.Tuner == "" {
		t.Fatalf("artifact meta %+v", a.Meta)
	}

	// The linkflap scenario at seed 1 drives the loop into a rollback
	// (chaos_test.go pins that); the artifact must record it with a
	// snapshot of the trajectory at the moment it tripped.
	var rollback *series.Anomaly
	for i := range a.Anomalies {
		if a.Anomalies[i].Kind == "rollback" {
			rollback = &a.Anomalies[i]
			break
		}
	}
	if rollback == nil {
		t.Fatalf("no rollback anomaly in artifact; anomalies=%+v", a.Anomalies)
	}
	if rollback.Snapshot < 0 || rollback.Snapshot >= len(a.Snapshots) {
		t.Fatalf("rollback anomaly has no snapshot (index %d of %d)", rollback.Snapshot, len(a.Snapshots))
	}
	snap := a.Snapshots[rollback.Snapshot]

	// The postmortem trajectory: queue depth, PFC pause fraction, and
	// utility must be present both in the frozen window and end-of-run.
	for _, name := range []string{"utility", "queue_bytes_tor0", "pfc_pause_frac_tor0", "ecn_mark_rate_tor0", "monitor_kl"} {
		if a.FindSeries(name) == nil {
			t.Errorf("end-of-run series %q missing", name)
		}
		found := false
		for i := range snap.Series {
			if snap.Series[i].Name == name && len(snap.Series[i].V) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rollback snapshot lacks series %q with samples", name)
		}
	}
	// Samples exist on both sides of the trip: the window is trailing,
	// and the end-of-run series keeps going after the rollback.
	if u := a.FindSeries("utility"); u != nil && len(u.T) > 0 {
		if u.T[len(u.T)-1] <= rollback.T {
			t.Errorf("utility series ends at %d, before the rollback at %d — no post-abort trajectory", u.T[len(u.T)-1], rollback.T)
		}
	}
	if a.FindHistogram("paraleon_sim_fct_ms") == nil {
		t.Error("artifact lacks the FCT histogram")
	}

	// Different seeds must produce different artifacts — the determinism
	// contract is per-seed, not degenerate.
	other := runLinkFlapBlackbox(t, 2, nil)
	if bytes.Equal(one, other) {
		t.Error("seed 1 and seed 2 artifacts are byte-identical; recorder is not capturing the run")
	}
}

// TestBlackboxLeavesGoldenTraceUntouched is the one-stream check. The
// run has one event log with both sinks on: attaching the flight
// recorder is pure observation, so the JSONL stays byte-identical to the
// recorded golden; and the artifact's events are that same stream's
// tail, so with fewer events than trace.TailLen they equal the JSONL
// read back, field for field.
func TestBlackboxLeavesGoldenTraceUntouched(t *testing.T) {
	want := readGolden(t, "chaos_linkflap_seed7_quick.golden.jsonl")
	var jsonl bytes.Buffer
	bb := runLinkFlapBlackbox(t, 7, &jsonl)
	diffTraces(t, "trace with flight recorder attached diverges from golden", jsonl.Bytes(), want)
	a, err := series.Load(bytes.NewReader(bb))
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(events) > trace.TailLen {
		t.Fatalf("golden run has %d events; the check needs 1..%d", len(events), trace.TailLen)
	}
	if a.EventsDropped != 0 || !reflect.DeepEqual(a.Events, events) {
		t.Fatalf("artifact events (%d, %d dropped) are not the JSONL stream (%d events)",
			len(a.Events), a.EventsDropped, len(events))
	}
}

// TestBlackboxDiffSameConfigClean is the CI artifact probe in miniature:
// two seeds of the same experiment diffed with a generous tolerance must
// come out clean — seed noise is not a regression.
func TestBlackboxDiffSameConfigClean(t *testing.T) {
	a, err := series.Load(bytes.NewReader(runLinkFlapBlackbox(t, 7, nil)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := series.Load(bytes.NewReader(runLinkFlapBlackbox(t, 8, nil)))
	if err != nil {
		t.Fatal(err)
	}
	d := series.Diff(a, b, 0.5)
	if !d.Clean() {
		var sb bytes.Buffer
		series.WriteDiff(&sb, a, b, d)
		t.Fatalf("seed 7 vs seed 8 judged a regression:\n%s", sb.String())
	}
}
