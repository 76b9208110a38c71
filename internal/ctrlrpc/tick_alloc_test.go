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
// Frames, ticks and WAL appends reuse their buffers; the status section is
// overwritten in place and copied only when scraped; the tuner's proposal
// is written into a Server field, so its address reaching the guard and
// the WAL record moves nothing to the heap. Boxing the status each tick,
// or letting the proposal escape, costs about one object and 100–200 B
// per tick and fails this test.
func TestDaemonTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
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
	if allocs > 1 || bytes > 128 {
		t.Errorf("control loop allocates %.2f objects, %.0f B per tick; want ≤ 1 and ≤ 128 B", allocs, bytes)
	}
}
