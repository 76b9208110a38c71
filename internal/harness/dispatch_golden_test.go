package harness

import (
	"bytes"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/telemetry"
)

// TestChaosDispatchGolden pins the chaos-dispatch experiment — kill the
// controller between canary and promote, restart it from the WAL — to a
// byte-exact trace, and asserts the invariants the trace alone cannot:
// the fabric converged to exactly one epoch, the recovery restore
// committed, and the out-of-bounds probe bounced off the guard without
// touching the fabric. -update (see golden_test.go) rewrites the golden.
func TestChaosDispatchGolden(t *testing.T) {
	run := func() (*Result, *telemetry.DispatchMetrics, []byte) {
		var buf bytes.Buffer
		cfg := ChaosDispatchConfig(QuickScale(), 40*eventsim.Millisecond, 7, &buf)
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, telemetry.NewDispatchMetrics(cfg.Scheme.SystemCfg.Telemetry), buf.Bytes()
	}
	res, dm, got := run()

	if res.Kills != 1 {
		t.Errorf("controller kills = %d, want 1", res.Kills)
	}
	if dm.Plans.Value() == 0 {
		t.Error("no rollout plan started before the kill")
	}
	if dm.Commits.Value() == 0 {
		t.Error("recovery restore never committed")
	}
	d := res.Sys.Dispatch
	if d.WALReplayed() == 0 {
		t.Error("restarted controller replayed nothing")
	}
	if !d.Fabric().Converged() {
		t.Error("fabric did not converge to one epoch after recovery")
	}
	if d.Guard().Rejects() == 0 {
		t.Error("out-of-bounds probe not counted as a guard reject")
	}

	// Same seed, same bytes — twice in-process, and against the golden.
	_, _, again := run()
	diffTraces(t, "chaos-dispatch trace diverges between identical runs", again, got)
	checkGolden(t, "chaos-dispatch trace diverges from golden", "chaos_dispatch_seed7_quick.golden.jsonl", got)
}
