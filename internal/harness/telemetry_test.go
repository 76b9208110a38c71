package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// linkFlapConfig is chaos-linkflap against the test's own registry, so
// assertions see exactly one run's activity.
func linkFlapConfig(horizon eventsim.Time, seed int64, reg *telemetry.Registry, traceTo *bytes.Buffer) RunConfig {
	cfg := ChaosLinkFlapConfig(QuickScale(), horizon, seed, traceTo)
	cfg.Scheme.SystemCfg.Telemetry = reg
	return cfg
}

// TestTelemetryEndToEnd is the PR's acceptance scenario: one chaos
// linkflap run plus one testbed run against a shared fresh registry must
// populate all five metric families, produce span-linked trace events,
// and yield a non-empty run report.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	r, err := Run(linkFlapConfig(40*eventsim.Millisecond, 1, reg, &buf))
	if err != nil {
		t.Fatal(err)
	}
	// The chaos run goes through Run, so it publishes engine accounting.
	if ev := reg.Counter("paraleon_engine_events_total", "").Value(); ev <= 0 {
		t.Errorf("paraleon_engine_events_total = %d after a chaos-linkflap run, want > 0", ev)
	}
	// A small testbed run covers the ctrlrpc family the in-sim loop
	// never touches.
	tb := wireConfig(10 * eventsim.Millisecond)
	tb.Scheme.SystemCfg.Telemetry = reg
	tb.Workload = func(n *sim.Network) error {
		_, err := workload.InstallPoisson(n, workload.PoissonConfig{
			CDF: workload.FBHadoop(), Load: 0.3,
		})
		return err
	}
	if _, err := Run(tb); err != nil {
		t.Fatal(err)
	}

	// 1. /metrics coverage: every subsystem family reports activity.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	for metric, wantActive := range map[string]bool{
		"paraleon_sketch_inserts_total":    true,
		"paraleon_sketch_reads_total":      true,
		"paraleon_monitor_ticks_total":     true,
		"paraleon_monitor_triggers_total":  true,
		"paraleon_tuner_iterations_total":  true,
		"paraleon_tuner_dispatches_total":  true,
		"paraleon_ctrlrpc_frames_in_total": true,
		"paraleon_ctrlrpc_reports_total":   true,
		"paraleon_chaos_faults_total":      true,
		"paraleon_tuner_rollbacks_total":   true,
		telemetry.VirtualTimeGauge:         true,
	} {
		if !strings.Contains(exposition, "\n"+metric+" ") && !strings.HasPrefix(exposition, metric+" ") {
			t.Errorf("exposition missing %s", metric)
			continue
		}
		if wantActive {
			for _, line := range strings.Split(exposition, "\n") {
				if strings.HasPrefix(line, metric+" ") && strings.HasSuffix(line, " 0") {
					t.Errorf("%s recorded no activity: %q", metric, line)
				}
			}
		}
	}
	if r.Sys.Rollbacks == 0 {
		t.Fatal("no rollbacks under link flapping; scenario lost its teeth")
	}
	rollbacks := reg.Counter("paraleon_tuner_rollbacks_total", "")
	if got := rollbacks.Value(); got != int64(r.Sys.Rollbacks) {
		t.Errorf("rollback counter = %d, result says %d", got, r.Sys.Rollbacks)
	}

	// 2. Span-linked trace: each sa_session span opens with a trigger,
	// links its dispatches, and closes on settle or abort.
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := trace.Spans(events)
	if len(spans) == 0 {
		t.Fatal("no spans in chaos trace")
	}
	linkedDispatches := 0
	for _, s := range spans {
		if s.Name != "sa_session" {
			t.Errorf("unexpected span %q", s.Name)
		}
		if len(s.Events) == 0 {
			t.Errorf("span %d has no linked events", s.ID)
			continue
		}
		if s.Events[0].Kind != trace.KindTrigger {
			t.Errorf("span %d first event %q, want trigger", s.ID, s.Events[0].Kind)
		}
		for _, e := range s.Events {
			if e.Kind == trace.KindDispatch {
				linkedDispatches++
			}
			if e.T < s.StartT {
				t.Errorf("span %d event at t=%d before span start %d", s.ID, e.T, s.StartT)
			}
			if s.EndT >= 0 && e.T > s.EndT {
				t.Errorf("span %d event at t=%d after span end %d", s.ID, e.T, s.EndT)
			}
		}
	}
	if linkedDispatches == 0 {
		t.Error("no dispatch events linked into any span")
	}
	// At least one span must have closed (settled or aborted by the
	// rollback) within the horizon.
	closed := 0
	for _, s := range spans {
		if s.EndT >= 0 {
			closed++
		}
	}
	if closed == 0 {
		t.Error("no span ever closed")
	}

	// 3. Run report: non-empty, and it carries the virtual clock.
	rep := reg.BuildReport()
	if rep.Empty() {
		t.Fatal("run report is empty")
	}
	if rep.VirtualTimeNs <= 0 {
		t.Errorf("report virtual time = %d, want > 0", rep.VirtualTimeNs)
	}
	if rep.Status["control_loop"] == nil {
		t.Error("report missing control_loop status section")
	}
	var out strings.Builder
	rep.Fprint(&out)
	if !strings.Contains(out.String(), "paraleon_tuner_dispatches_total") {
		t.Errorf("report text missing dispatch counter:\n%s", out.String())
	}
}

// TestLoopStatusPublished checks the push-based status snapshot the
// /debug/status endpoint serves.
func TestLoopStatusPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	if _, err := Run(linkFlapConfig(20*eventsim.Millisecond, 1, reg, &buf)); err != nil {
		t.Fatal(err)
	}
	status := reg.Status()
	ls, ok := status["control_loop"].(core.LoopStatus)
	if !ok {
		t.Fatalf("control_loop section = %T, want core.LoopStatus", status["control_loop"])
	}
	if ls.VirtualTimeNs <= 0 {
		t.Errorf("status virtual time = %d, want > 0", ls.VirtualTimeNs)
	}
	if ls.Triggers == 0 {
		t.Error("status records no triggers")
	}
	if ls.Params.Validate() != nil {
		t.Errorf("status params invalid: %+v", ls.Params)
	}
}
