package ctrlrpc

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/telemetry"
	"repro/internal/tuner"
)

// TestTickResultFrameRoundTrip: the shipped parameter vectors come back
// from the params frame unchanged.
func TestTickResultFrameRoundTrip(t *testing.T) {
	for _, p := range []dcqcn.Params{dcqcn.DefaultParams(), dcqcn.ExpertParams()} {
		want := TickResult{Changed: true, Epoch: 7, Params: p}
		var got TickResult
		frameRoundTrip(t, TypeParams, &want, &got)
		if got != want {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	r := Report{AgentID: 7, Seq: 42, Report: loop.Report{ElephantBytes: 1000, Flows: 3}}
	r.Hist[5] = 123.5
	n, err := WriteFrame(bw, TypeReport, &r)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Errorf("reported %d bytes, buffer has %d", n, buf.Len())
	}
	typ, payload, rn, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeReport || rn != n {
		t.Errorf("type %d size %d, want %d/%d", typ, rn, TypeReport, n)
	}
	var got Report
	if err := Decode(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("decoded %+v, want %+v", got, r)
	}
}

func TestBodylessFrame(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := WriteFrame(bw, TypeAck, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeAck || len(payload) != 0 {
		t.Errorf("ack frame: type %d payload %d bytes", typ, len(payload))
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var raw [5]byte
	raw[0] = 0xFF
	raw[1] = 0xFF
	raw[2] = 0xFF // ~16MB
	_, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw[:])))
	if err == nil {
		t.Error("oversize frame accepted")
	}
}

func quickServer(t *testing.T) *Server {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.SA = tuner.SAConfig{
		TotalIterNum: 3, CoolingRate: 0.5,
		InitialTemp: 30, FinalTemp: 10, Eta: 0.8, Guided: true,
	}
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func elephantReport(agent uint32, seq uint64) Report {
	r := Report{
		AgentID: agent, Seq: seq,
		Report: loop.Report{ElephantBytes: 9000, MiceBytes: 1000, Flows: 4},
		RuntimeSums: loop.RuntimeSums{
			UtilSum: 0.8, ActiveLinks: 1,
			RTTNormSum: 0.9, RTTCount: 1,
			PauseFracSum: 0, Devices: 2,
		},
	}
	r.Hist[12] = 9000
	r.Hist[0] = 1000
	return r
}

func TestServerReportAndTick(t *testing.T) {
	s := quickServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.SendReport(elephantReport(1, 1)); err != nil {
		t.Fatal(err)
	}
	tick, err := c.Tick(1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !tick.Triggered {
		t.Error("first interval with traffic did not trigger tuning")
	}
	if err := tick.Params.Validate(); err != nil {
		t.Errorf("returned params invalid: %v", err)
	}
	st := s.Stats()
	if st.Reports != 1 || st.Ticks != 1 || st.Triggers != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Error("byte accounting empty")
	}
	if st.Processing <= 0 {
		t.Error("processing time not recorded")
	}
}

func TestServerSessionConverges(t *testing.T) {
	s := quickServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var changes int
	for seq := uint64(1); seq <= 20; seq++ {
		if err := c.SendReport(elephantReport(1, seq)); err != nil {
			t.Fatal(err)
		}
		tick, err := c.Tick(seq, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if tick.Changed {
			changes++
			if tick.Epoch != uint64(changes) {
				t.Errorf("dispatch %d carried epoch %d", changes, tick.Epoch)
			}
		}
	}
	// quickServer's session is ~7 iterations; dispatches must have
	// happened and then stopped.
	if changes < 5 {
		t.Errorf("only %d parameter changes across a session", changes)
	}
	st := s.Stats()
	if st.Dispatches != int64(changes) {
		t.Errorf("server dispatches %d, client saw %d", st.Dispatches, changes)
	}
}

// fullWAL journals its first room records and then refuses every
// append, like a disk that filled up.
type fullWAL struct {
	dispatch.MemWAL
	room int
}

func (w *fullWAL) Append(r dispatch.Record) error {
	if w.room == 0 {
		return errors.New("disk full")
	}
	w.room--
	return w.MemWAL.Append(r)
}

// TestServerVetoesUnjournaledEpochs: once the WAL stops taking records
// the daemon stops dispatching, so every epoch it answered is one a
// restarted daemon recovers, and no epoch number is ever issued twice.
func TestServerVetoesUnjournaledEpochs(t *testing.T) {
	wal := &fullWAL{room: 2}
	cfg := DefaultServerConfig()
	cfg.SA = tuner.ShortSAConfig()
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
	var last TickResult
	for seq := uint64(1); seq <= 20; seq++ {
		if err := c.SendReport(elephantReport(1, seq)); err != nil {
			t.Fatal(err)
		}
		if last, err = c.Tick(seq, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	epoch, current := s.Epoch(), s.Current()
	st := s.Stats()
	if st.Dispatches != 2 || epoch != 2 || last.Epoch != 2 {
		t.Errorf("%d dispatches up to epoch %d (last answer %d) with room for 2 journal records", st.Dispatches, epoch, last.Epoch)
	}
	if st.Rejects == 0 {
		t.Error("the vetoed proposals were not counted as rejects")
	}
	rec, err := dispatch.Recover(&wal.MemWAL)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != epoch || rec.Committed == nil || *rec.Committed != current {
		t.Errorf("the WAL recovers epoch %d, the daemon stands behind epoch %d", rec.Epoch, epoch)
	}
}

// TestDaemonGuardGapRunsOnWallClock pins the guard's MinGap to the
// daemon's wall clock: back-to-back ticks inside the gap are refused, and
// the first tick after the gap has passed dispatches again.
func TestDaemonGuardGapRunsOnWallClock(t *testing.T) {
	const gap = 200 * time.Millisecond
	cfg := DefaultServerConfig()
	cfg.SA = tuner.ShortSAConfig()
	cfg.Guard = dispatch.GuardConfig{MinGap: eventsim.Time(gap)}
	cfg.Telemetry = telemetry.NewRegistry()
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
	tick := func(seq uint64) TickResult {
		if err := c.SendReport(elephantReport(1, seq)); err != nil {
			t.Fatal(err)
		}
		res, err := c.Tick(seq, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	start := time.Now()
	for seq := uint64(1); seq <= 5; seq++ {
		tick(seq)
	}
	if time.Since(start) >= gap {
		t.Skip("five ticks took longer than the guard's gap")
	}
	if st := s.Stats(); st.Dispatches != 1 || st.Rejects != 4 {
		t.Fatalf("inside the gap: %d dispatches, %d rejects; want 1 and 4", st.Dispatches, st.Rejects)
	}
	time.Sleep(gap + 50*time.Millisecond)
	if res := tick(6); !res.Changed || res.Epoch != 2 {
		t.Errorf("after the gap the daemon answered changed=%v epoch=%d", res.Changed, res.Epoch)
	}
}

func TestServerMultipleAgents(t *testing.T) {
	s := quickServer(t)
	const agents = 4
	clients := make([]*Client, agents)
	for i := range clients {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	driver, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		for i, c := range clients {
			if err := c.SendReport(elephantReport(uint32(i), seq)); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clients {
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := driver.Tick(seq, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Reports != agents*3 {
		t.Errorf("Reports = %d, want %d", st.Reports, agents*3)
	}
}

func TestServerRejectsGarbageConnection(t *testing.T) {
	s := quickServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A giant bogus length must close the connection, not crash the
	// server.
	conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered a garbage frame")
	}
	conn.Close()
	// Server still serves legitimate clients.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.SendReport(elephantReport(1, 1))
	if err == nil {
		err = c.Sync()
	}
	if err != nil {
		t.Errorf("server unusable after garbage: %v", err)
	}
}

func TestReportMonitorReport(t *testing.T) {
	r := elephantReport(1, 1)
	m := r.MonitorReport()
	if m.ElephantBytes != 9000 || m.MiceBytes != 1000 || m.Flows != 4 {
		t.Errorf("conversion lost fields: %+v", m)
	}
	fsd := loop.Aggregate(m)
	if fsd.ElephantShare != 0.9 {
		t.Errorf("elephant share %g", fsd.ElephantShare)
	}
}

// TestServeRefusesPerSwitch: the daemon answers a tick with one
// fabric-wide vector, so it refuses a strategy that tunes each switch on
// its own instead of running a different loop than the simulator.
func TestServeRefusesPerSwitch(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Tuner = "multiecn"
	s, err := Serve("127.0.0.1:0", cfg)
	if err == nil {
		s.Close()
		t.Fatal("Serve accepted multiecn")
	}
	if !strings.Contains(err.Error(), `"multiecn"`) {
		t.Errorf("error %q does not name the strategy", err)
	}
}
