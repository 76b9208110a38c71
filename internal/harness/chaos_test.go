package harness

import (
	"bytes"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/trace"
)

// TestChaosAgentCrashDeterministic runs the chaos-agentcrash experiment
// twice with the same seed and requires byte-identical traces: the whole
// fault schedule, every sample, and every dispatch must replay exactly.
func TestChaosAgentCrashDeterministic(t *testing.T) {
	run := func() (*Result, []byte) {
		var buf bytes.Buffer
		r, err := Run(ChaosAgentCrashConfig(QuickScale(), 40*eventsim.Millisecond, 7, &buf))
		if err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	r1, t1 := run()
	r2, t2 := run()
	if !bytes.Equal(t1, t2) {
		i := 0
		for i < len(t1) && i < len(t2) && t1[i] == t2[i] {
			i++
		}
		t.Fatalf("traces diverge at byte %d of %d/%d", i, len(t1), len(t2))
	}
	if r1.Sys.FrozenIntervals != r2.Sys.FrozenIntervals || r1.Dispatches != r2.Dispatches {
		t.Errorf("counters diverge: frozen %d/%d dispatches %d/%d",
			r1.Sys.FrozenIntervals, r2.Sys.FrozenIntervals, r1.Dispatches, r2.Dispatches)
	}
}

// TestChaosAgentCrashFreezeAndResume checks the degradation semantics:
// the quorum freeze spans exactly the crash window, and tuning resumes
// (dispatches happen) after the restart.
func TestChaosAgentCrashFreezeAndResume(t *testing.T) {
	horizon := 40 * eventsim.Millisecond
	var buf bytes.Buffer
	r, err := Run(ChaosAgentCrashConfig(QuickScale(), horizon, 1, &buf))
	if err != nil {
		t.Fatal(err)
	}
	// Crash at 30%, restart at 60% of a 40-interval run: 12 intervals.
	if r.Sys.FrozenIntervals != 12 {
		t.Errorf("FrozenIntervals=%d, want 12", r.Sys.FrozenIntervals)
	}
	if r.Sys.Controller.Evictions != 0 {
		t.Errorf("Evictions=%d, want 0 (StaleAfter spans the outage)", r.Sys.Controller.Evictions)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byKindFault := func(kind, fault string) []trace.Event {
		var out []trace.Event
		for _, e := range trace.Filter(events, kind) {
			if e.Fault == fault {
				out = append(out, e)
			}
		}
		return out
	}
	crash := byKindFault(trace.KindFault, "agent_crash")
	restart := byKindFault(trace.KindRecover, "agent_crash")
	lost := byKindFault(trace.KindFault, "quorum_lost")
	ok := byKindFault(trace.KindRecover, "quorum_ok")
	if len(crash) != 1 || len(restart) != 1 || len(lost) != 1 || len(ok) != 1 {
		t.Fatalf("event counts crash=%d restart=%d lost=%d ok=%d, want 1 each",
			len(crash), len(restart), len(lost), len(ok))
	}
	if crash[0].T != int64(horizon*3/10) {
		t.Errorf("crash at %d, want %d", crash[0].T, int64(horizon*3/10))
	}
	if lost[0].T < crash[0].T || ok[0].T < restart[0].T {
		t.Error("quorum transitions precede their causes")
	}
	// Tuning resumes: dispatches exist after the restart time.
	var after int
	for _, e := range trace.Filter(events, trace.KindDispatch) {
		if e.T > restart[0].T {
			after++
		}
	}
	if after == 0 {
		t.Error("no dispatches after agent restart: tuning never resumed")
	}
	// And none during the frozen window.
	for _, e := range trace.Filter(events, trace.KindDispatch) {
		if e.T > lost[0].T && e.T < ok[0].T {
			t.Errorf("dispatch at %d inside frozen window [%d,%d]", e.T, lost[0].T, ok[0].T)
		}
	}
}

// TestChaosLinkFlapRollsBack checks the acceptance scenario: flapping a
// fabric uplink regresses utility enough that the system reverts to its
// last-known-good parameters, visible as trace events.
func TestChaosLinkFlapRollsBack(t *testing.T) {
	var buf bytes.Buffer
	r, err := Run(ChaosLinkFlapConfig(QuickScale(), 40*eventsim.Millisecond, 1, &buf))
	if err != nil {
		t.Fatal(err)
	}
	if r.Sys.Rollbacks == 0 {
		t.Fatal("no rollbacks under link flapping")
	}
	if r.Faults == 0 || r.Recovers == 0 {
		t.Errorf("faults=%d recovers=%d, want >0", r.Faults, r.Recovers)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rollbacks := trace.Filter(events, trace.KindRollback)
	if len(rollbacks) != r.Sys.Rollbacks {
		t.Errorf("trace has %d rollback events, result says %d", len(rollbacks), r.Sys.Rollbacks)
	}
	for _, e := range rollbacks {
		if e.Params == nil {
			t.Error("rollback event without restored params")
		}
	}
	downs := 0
	for _, e := range trace.Filter(events, trace.KindFault) {
		if e.Fault == "link_down" {
			downs++
		}
	}
	if downs != 3 {
		t.Errorf("saw %d link_down events, want 3", downs)
	}
}

// TestChaosLinkFlapSessionOpensOnRestored: a rollback restores the
// last-known-good vector, so the next session's warmup interval must
// hold that vector; a session that opened on its aborted chain would
// undo the rollback one interval later.
func TestChaosLinkFlapSessionOpensOnRestored(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(ChaosLinkFlapConfig(QuickScale(), 40*eventsim.Millisecond, 7, &buf)); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var restored *dcqcn.Params
	opened, checked := false, 0
	for _, e := range events {
		switch e.Kind {
		case trace.KindRollback:
			restored, opened = e.Params, false
		case trace.KindTrigger:
			opened = restored != nil
		case trace.KindDispatch:
			if !opened {
				continue
			}
			if *e.Params != *restored {
				t.Errorf("session at %d ns after a rollback first dispatched %+v, want the restored %+v", e.T, *e.Params, *restored)
			}
			restored, opened = nil, false
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no session followed a rollback")
	}
}

// TestChaosCtrlPartitionSurvives runs the real-TCP control plane under
// frame faults plus a controller restart: every interval must complete
// and the clients must have reconnected rather than wedged.
func TestChaosCtrlPartitionSurvives(t *testing.T) {
	r, err := Run(ChaosCtrlPartitionConfig(QuickScale(), 30*eventsim.Millisecond, 3))
	if err != nil {
		t.Fatal(err)
	}
	ticks := r.TP.Len()
	if ticks != 30 {
		t.Errorf("Ticks=%d, want 30", ticks)
	}
	if r.Kills != 1 {
		t.Errorf("ServerRestarts=%d, want 1", r.Kills)
	}
	if r.Wire.Reconnects == 0 {
		t.Error("no reconnects despite controller restart")
	}
	// Losses are tolerated but must stay a small minority of calls.
	calls := ticks * 3 // 2 agents + 1 driver per interval at QuickScale
	if lost := r.Wire.AgentErrors + r.Wire.TickErrors; lost > calls/4 {
		t.Errorf("%d/%d calls lost", lost, calls)
	}
}
