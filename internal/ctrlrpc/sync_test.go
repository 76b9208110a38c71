package ctrlrpc

import (
	"net"
	"testing"
	"time"
)

// A report is buffered until its client syncs: a tick from another
// connection aggregates it only after that Sync has returned.
func TestSyncIsTheBarrier(t *testing.T) {
	s := quickServer(t)
	agent, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	driver, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()

	if err := agent.SendReport(elephantReport(1, 1)); err != nil {
		t.Fatal(err)
	}
	tick, err := driver.Tick(1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tick.Triggered || s.Stats().Reports != 0 {
		t.Fatalf("a report that was never synced reached the controller: triggered=%v, stats %+v", tick.Triggered, s.Stats())
	}
	if err := agent.Sync(); err != nil {
		t.Fatal(err)
	}
	if tick, err = driver.Tick(2, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !tick.Triggered {
		t.Error("the tick after Sync did not aggregate the agent's report")
	}
	if st := s.Stats(); st.Reports != 1 {
		t.Errorf("Reports = %d, want 1", st.Reports)
	}
}

// writeCounter counts the writes made on a connection.
type writeCounter struct {
	net.Conn
	writes int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes++
	return w.Conn.Write(b)
}

// The reports buffered before a tick leave with the tick in one write.
func TestTickSendsBufferedReportsInOneWrite(t *testing.T) {
	s := quickServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Conn: conn}
	c := NewClient(wc)
	defer c.Close()
	const reports = 8
	for a := uint32(0); a < reports; a++ {
		if err := c.SendReport(elephantReport(a, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if wc.writes != 0 {
		t.Fatalf("%d writes before the tick, want 0", wc.writes)
	}
	if _, err := c.Tick(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if wc.writes != 1 {
		t.Errorf("a tick behind %d reports took %d writes, want 1", reports, wc.writes)
	}
	if st := s.Stats(); st.Reports != reports || st.Ticks != 1 {
		t.Errorf("stats %+v, want %d reports and 1 tick", st, reports)
	}
}

// A caller that never syncs is bounded by maxOwed, not by the socket
// buffers: ten thousand reports and a tick still go through.
func TestUnsyncedReportsDoNotWedge(t *testing.T) {
	s := quickServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 10 * time.Second
	const reports = 10000
	for i := range reports {
		if err := c.SendReport(elephantReport(uint32(i%8), uint64(i/8))); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if c.owed >= maxOwed {
			t.Fatalf("after report %d the client owes %d acks, bound %d", i, c.owed, maxOwed)
		}
	}
	if _, err := c.Tick(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reports != reports {
		t.Errorf("Reports = %d, want %d", st.Reports, reports)
	}
}
