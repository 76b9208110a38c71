package harness

import (
	"bytes"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/telemetry"
)

// TestChaosDispatchGolden pins the chaos-dispatch experiment — kill the
// controller between two dispatches, restart it from the WAL — to a
// byte-exact trace, and asserts the invariants the trace alone cannot:
// the restarted controller replayed the journal and dispatched, the
// fabric is on one epoch, and the out-of-bounds probe bounced off the
// guard (the run's End hook fails it if the restarted controller's live
// vector is not the fabric's, if a device refused one of its epochs, or
// if the probe moved the fabric). -update (see golden_test.go) rewrites
// the golden.
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
	d := res.Sys.Dispatch
	if d.WALReplayed() == 0 {
		t.Error("restarted controller replayed nothing")
	}
	if d.Commits == 0 || dm.Epochs.Value() <= int64(d.WALReplayed()) {
		t.Errorf("restarted controller committed %d vectors (%d epochs in all, %d replayed), want some", d.Commits, dm.Epochs.Value(), d.WALReplayed())
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
