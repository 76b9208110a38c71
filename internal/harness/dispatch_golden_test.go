package harness

import (
	"bytes"
	"testing"

	"repro/internal/eventsim"
)

// TestChaosDispatchGolden pins the chaos-dispatch experiment — kill the
// controller between canary and promote, restart it from the WAL — to a
// byte-exact trace, and asserts the invariants the trace alone cannot:
// the fabric converged to exactly one epoch, the recovery restore
// committed, and the out-of-bounds probe bounced off the guard without
// touching the fabric. -update (see golden_test.go) rewrites the golden.
func TestChaosDispatchGolden(t *testing.T) {
	run := func() (*ChaosDispatchResult, []byte) {
		var buf bytes.Buffer
		r, err := ChaosDispatchCrash(QuickScale(), 40*eventsim.Millisecond, 7, &buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	res, got := run()

	if res.Kills != 1 {
		t.Errorf("controller kills = %d, want 1", res.Kills)
	}
	if res.Plans == 0 {
		t.Error("no rollout plan started before the kill")
	}
	if res.Commits == 0 {
		t.Error("recovery restore never committed")
	}
	if res.Replayed == 0 {
		t.Error("restarted controller replayed nothing")
	}
	if !res.Converged {
		t.Error("fabric did not converge to one epoch after recovery")
	}
	if res.GuardRejects == 0 {
		t.Error("out-of-bounds probe not counted as a guard reject")
	}

	// Same seed, same bytes — twice in-process, and against the golden.
	_, again := run()
	diffTraces(t, "chaos-dispatch trace diverges between identical runs", again, got)
	checkGolden(t, "chaos-dispatch trace diverges from golden", "chaos_dispatch_seed7_quick.golden.jsonl", got)
}
