package ctrlrpc

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/telemetry"
)

// TestDaemonTickAllocs gates the whole control loop the ctrl_daemon
// benchmark drives: an in-process server with its guard and a FileWAL, one
// client sending 8 reports, a tick and, after a dispatch, 8 apply-acks.
// The parent commit allocated ~200 objects and 17.8 KB per tick here
// (reflection codec, a fresh payload per frame, per-tick pending, locals
// and ack map, a fresh slice per WAL line), so it fails this test. What
// legitimately remains is the per-tick PublishStatus boxing (~190 B) and
// one boxed Record per WAL commit.
func TestDaemonTickAllocs(t *testing.T) {
	wal, err := dispatch.OpenFileWAL(filepath.Join(t.TempDir(), "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	cfg := DefaultServerConfig()
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

	// Two traffic phases, mice- and elephant-dominant, swapped every 50
	// ticks so the KL trigger fires and tuner sessions keep dispatching.
	const agents = 8
	var phases [2][agents]Report
	for a := uint32(0); a < agents; a++ {
		mice := elephantReport(a, 0)
		mice.Hist[12], mice.Hist[0] = 1000, 9000
		mice.ElephantBytes, mice.MiceBytes = 1000, 9000
		mice.ElephantFlowsW, mice.MiceFlowsW = 1, 30
		phases[0][a] = mice
		phases[1][a] = elephantReport(a, 0)
		phases[1][a].ElephantFlowsW, phases[1][a].MiceFlowsW = 12, 6
	}
	dispatches := 0
	run := func(from, to int) {
		for tk := from; tk < to; tk++ {
			for _, r := range &phases[tk/50%2] {
				if err := c.SendReport(r); err != nil {
					t.Fatal(err)
				}
			}
			res, err := c.Tick(uint64(tk), time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Changed {
				continue
			}
			dispatches++
			hash := dispatch.VectorHash(&res.Params)
			for a := uint32(0); a < agents; a++ {
				if err := c.SendApplyAck(AckMsg{AgentID: a, Epoch: res.Epoch, VectorHash: hash, Applied: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	const warm, ticks = 100, 2000
	run(0, warm)
	dispatches = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(warm, warm+ticks)
	runtime.ReadMemStats(&after)
	if dispatches == 0 {
		t.Fatal("no dispatch in the measured ticks: the WAL path went unexercised")
	}
	allocs := float64(after.Mallocs-before.Mallocs) / ticks
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / ticks
	t.Logf("%.2f allocs, %.0f B per tick over %d ticks with %d dispatches", allocs, bytes, ticks, dispatches)
	if allocs > 8 || bytes > 1024 {
		t.Errorf("control loop allocates %.2f objects, %.0f B per tick; want ≤ 8 and ≤ 1 KB", allocs, bytes)
	}
}
