package ctrlrpc

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/tuner"
)

// TestClientTimeoutOnStalledServer: a server that accepts but never
// answers must fail the client's call within its Timeout, not hang the
// dispatch loop forever.
func TestClientTimeoutOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // hold the conn open, read nothing, answer nothing
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 50 * time.Millisecond

	start := time.Now()
	_, err = c.Tick(1, time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("tick against a mute server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("want a timeout error, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("timeout took %v, deadline not armed", elapsed)
	}
	if conn := <-accepted; conn != nil {
		conn.Close()
	}
}

// TestClientNoTimeoutByDefault documents that the zero value keeps the
// old blocking behaviour: the deadline machinery must be strictly
// opt-in so chaos fault injectors can arm their own conn deadlines.
func TestClientNoTimeoutByDefault(t *testing.T) {
	var c Client
	if c.Timeout != 0 {
		t.Error("zero Client has a non-zero Timeout")
	}
}

// TestServerTimeoutOnStalledClient: a client that opens a connection and
// sends half a frame must be cut loose by the server's IOTimeout —
// the handler goroutine exits instead of pinning the partial read.
func TestServerTimeoutOnStalledClient(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.IOTimeout = 50 * time.Millisecond
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header promising 100 bytes, then silence.
	conn.Write([]byte{100, 0, 0, 0, TypeReport})

	// The server must hang up on its own; detect it by the read
	// unblocking with EOF/reset rather than our own deadline firing.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("server answered a half frame")
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Error("server still holding the stalled connection after its IOTimeout")
	}
}

// TestServerApplyAckQuorum drives the epoch/ACK protocol end to end:
// a dispatch bumps the epoch, agents ACK (epoch, hash), and the server
// credits only matching ACKs toward the quorum.
func TestServerApplyAckQuorum(t *testing.T) {
	s := quickServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var last TickResult
	for seq := uint64(1); seq <= 10 && !last.Changed; seq++ {
		if err := c.SendReport(elephantReport(1, seq)); err != nil {
			t.Fatal(err)
		}
		last, err = c.Tick(seq, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !last.Changed {
		t.Fatal("tuner never dispatched")
	}
	if last.Epoch == 0 || last.Epoch != s.Epoch() {
		t.Fatalf("dispatch epoch %d, server epoch %d", last.Epoch, s.Epoch())
	}

	hash := dispatch.VectorHash(&last.Params)
	for id := uint32(0); id < 3; id++ {
		if err := c.SendApplyAck(AckMsg{AgentID: id, Epoch: last.Epoch, VectorHash: hash, Applied: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Stale epoch and wrong hash are counted but not credited.
	if err := c.SendApplyAck(AckMsg{AgentID: 9, Epoch: last.Epoch - 1, VectorHash: hash}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendApplyAck(AckMsg{AgentID: 8, Epoch: last.Epoch, VectorHash: hash + 1}); err != nil {
		t.Fatal(err)
	}
	if got := s.EpochAcks(); got != 3 {
		t.Errorf("EpochAcks = %d, want 3", got)
	}
	if st := s.Stats(); st.ApplyAcks != 5 {
		t.Errorf("ApplyAcks = %d, want 5", st.ApplyAcks)
	}
}

// TestServerGuardRejectsTunerOutput: with a zero-width rate limit the
// guard vetoes every second dispatch; the wire must keep carrying the
// previous vector under the unchanged epoch.
func TestServerGuardRejectsTunerOutput(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SA.TotalIterNum = 3
	cfg.SA.CoolingRate = 0.5
	cfg.SA.InitialTemp = 30
	cfg.SA.FinalTemp = 10
	cfg.SA.Eta = 0.8
	cfg.SA.Guided = true
	// A one-hour MinGap (wall clock) admits only the first dispatch.
	cfg.Guard.MinGap = 3600 * 1e9
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
		}
	}
	st := s.Stats()
	if changes != 1 {
		t.Errorf("rate-limited server changed params %d times, want 1", changes)
	}
	if st.Rejects == 0 {
		t.Error("guard rejections not counted")
	}
	if s.Epoch() != 1 {
		t.Errorf("epoch %d after one admitted dispatch", s.Epoch())
	}
}

// TestServerWALRestart: a controller restarted with the same WAL resumes
// from the last committed vector and keeps granting fresh epochs.
func TestServerWALRestart(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/controller.wal"
	open := func() *dispatch.FileWAL {
		w, err := dispatch.OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	cfg := DefaultServerConfig()
	cfg.SA = tuner.SAConfig{
		TotalIterNum: 3, CoolingRate: 0.5,
		InitialTemp: 30, FinalTemp: 10, Eta: 0.8, Guided: true,
	}
	w1 := open()
	cfg.WAL = w1
	s1, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var dispatched dcqcn.Params
	var epoch uint64
	for seq := uint64(1); seq <= 10; seq++ {
		if err := c.SendReport(elephantReport(1, seq)); err != nil {
			t.Fatal(err)
		}
		tick, err := c.Tick(seq, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if tick.Changed {
			dispatched, epoch = tick.Params, tick.Epoch
		}
	}
	if epoch == 0 {
		t.Fatal("no dispatch before the crash")
	}
	c.Close()
	s1.Close()
	w1.Close()

	w2 := open()
	defer w2.Close()
	cfg.WAL = w2
	s2, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Epoch() != epoch {
		t.Errorf("restarted epoch %d, want %d", s2.Epoch(), epoch)
	}
	if s2.Current() != dispatched {
		t.Error("restarted controller lost the committed vector")
	}

	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), `"kind":"commit"`) {
		t.Errorf("wal missing commit records (err=%v)", err)
	}
}
