package ctrlrpc

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/telemetry"
	"repro/internal/tuner"
)

// daemonDigest drives an in-process daemon running strategy name, with a
// FileWAL and a MaxRelStep guard, over a scripted report stream: two
// traffic mixes swapped every 25 ticks, one tick with no reports at all
// and one whose reports carry no bytes. It returns the FNV-1a digest of
// every answer the daemon gave, followed by its final counters.
func daemonDigest(t *testing.T, name string) (uint64, ServerStats) {
	t.Helper()
	wal, err := dispatch.OpenFileWAL(filepath.Join(t.TempDir(), "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	cfg := DefaultServerConfig()
	cfg.Tuner = name
	cfg.SA = tuner.ShortSAConfig()
	cfg.Bandit = tuner.BanditConfig{Budget: 20}
	cfg.Guard = dispatch.GuardConfig{MaxRelStep: 1.0}
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.WAL = wal
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 10 * time.Second

	h := fnv.New64a()
	for tk := uint64(1); tk <= 150; tk++ {
		for a := uint32(0); a < 4 && tk != 30; a++ {
			r := elephantReport(a, tk)
			if tk/25%2 == 1 {
				r.Hist[12], r.Hist[0] = 1000, 9000
				r.ElephantBytes, r.MiceBytes = 1000, 9000
				r.ElephantFlowsW, r.MiceFlowsW = 1, 30
			}
			r.UtilSum = 0.3 + 0.06*float64((tk*7+uint64(a))%10)
			r.RTTNormSum = 0.5 + 0.05*float64((tk*3+uint64(a))%9)
			r.PauseFracSum = 0.02 * float64((tk+uint64(a))%4)
			if tk == 60 {
				r = Report{AgentID: a, Seq: tk}
			}
			if err := c.SendReport(r); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Tick(tk, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if (tk == 30 || tk == 60) && (res.Changed || res.Triggered) {
			t.Errorf("%s: idle tick %d answered changed=%v triggered=%v", name, tk, res.Changed, res.Triggered)
		}
		fmt.Fprintf(h, "%d %v %v %016x\n", res.Epoch, res.Changed, res.Triggered, dispatch.VectorHash(&res.Params))
	}
	st := s.Stats()
	fmt.Fprintf(h, "ticks=%d triggers=%d dispatches=%d rejects=%d\n", st.Ticks, st.Triggers, st.Dispatches, st.Rejects)
	return h.Sum64(), st
}

// TestDaemonStreamMatchesParent pins the daemon's decisions for every
// strategy it serves: the epochs, vectors, change and trigger flags it
// answers, and its trigger, dispatch and reject counts. The digests were
// taken before the daemon and the simulated loop shared one decision
// step; sharing it must not move them. Both were re-pinned when a new
// session began to open on the vector the fabric runs: the daemon's
// guard refuses some proposals, so that is not always the previous
// session's last point.
func TestDaemonStreamMatchesParent(t *testing.T) {
	want := map[string]uint64{
		"bandit": 0x9f3072e1a6f042b7,
		"sa":     0x80d9150cd40348be,
	}
	var rejects int64
	for _, name := range []string{"bandit", "sa"} {
		got, st := daemonDigest(t, name)
		if st.Dispatches == 0 {
			t.Errorf("%s: the daemon never dispatched", name)
		}
		rejects += st.Rejects
		if got != want[name] {
			t.Errorf("%s: digest %#x, want %#x (%+v)", name, got, want[name], st)
		}
	}
	if rejects == 0 {
		t.Error("the guard never rejected, so the reject path went unexercised")
	}
}
