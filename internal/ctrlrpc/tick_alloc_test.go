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
// Frames, ticks and WAL appends reuse their buffers; the status sections
// are overwritten in place and copied only when scraped; the dispatch
// pipeline guards and journals the tuner's proposal from a field of its
// own (dispatch's TestPipelineSubmitAllocs), so its address reaching the
// guard and the WAL record moves nothing to the heap. Boxing a status
// each tick, or letting the proposal escape, costs about one object and
// 100–200 B per tick and fails this test.
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

	run := closedLoop(t, c)
	const warm, ticks = 100, 2000
	run(0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dispatches := run(warm, warm+ticks)
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

// closedLoop returns a driver of c as the ctrl_daemon benchmark's client:
// eight agents report two traffic phases, mice- and elephant-dominant,
// swapped every 50 ticks so the KL trigger fires and tuner sessions keep
// dispatching, and all eight acknowledge every dispatch. run(from, to)
// plays ticks [from, to) and reports how many of them dispatched.
func closedLoop(t *testing.T, c *Client) (run func(from, to int) int) {
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
	return func(from, to int) int {
		dispatches := 0
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
		return dispatches
	}
}

// slowWAL is a journal whose every append takes delay, as an fsync would.
type slowWAL struct {
	dispatch.MemWAL
	delay time.Duration
}

func (w *slowWAL) Append(r dispatch.Record) error {
	time.Sleep(w.delay)
	return w.MemWAL.Append(r)
}

// The time a tick spends appending to the WAL is Journal, not Processing:
// Processing is the controller's compute, and a slow disk must not read
// as controller CPU.
func TestJournalTimeIsNotProcessing(t *testing.T) {
	const delay = 5 * time.Millisecond
	cfg := DefaultServerConfig()
	cfg.WAL = &slowWAL{delay: delay}
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
	dispatches := closedLoop(t, c)(0, 40)
	if dispatches == 0 {
		t.Fatal("no dispatch: the WAL path went unexercised")
	}
	st := s.Stats()
	journaled := time.Duration(dispatches) * delay
	t.Logf("%d dispatches: processing %v, journal %v", dispatches, st.Processing, st.Journal)
	if st.Journal < journaled {
		t.Errorf("Journal = %v over %d appends of %v each, want at least %v", st.Journal, dispatches, delay, journaled)
	}
	if st.Processing <= 0 || st.Processing >= journaled {
		t.Errorf("Processing = %v, want above 0 and below the %v the appends slept", st.Processing, journaled)
	}
}
