package ctrlrpc

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestReconnClientSurvivesControllerRestart(t *testing.T) {
	cfg := DefaultServerConfig()
	s1, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()

	c, err := DialReconnecting(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.BaseDelay = 5 * time.Millisecond
	c.MaxDelay = 20 * time.Millisecond
	c.MaxRetries = 25

	if err := c.SendReport(elephantReport(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tick(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Crash the controller, then bring a new one up on the same address.
	s1.Close()
	s2, err := Serve(addr, cfg)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()

	// The next calls must go through via redial.
	if err := c.SendReport(elephantReport(1, 2)); err != nil {
		t.Fatalf("report after restart: %v", err)
	}
	tick, err := c.Tick(2, time.Millisecond)
	if err != nil {
		t.Fatalf("tick after restart: %v", err)
	}
	if err := tick.Params.Validate(); err != nil {
		t.Errorf("params after restart invalid: %v", err)
	}
	if c.Reconnects == 0 {
		t.Error("Reconnects counter never incremented")
	}
	if st := s2.Stats(); st.Reports == 0 {
		t.Error("restarted controller saw no reports")
	}
	// Traffic spans connections: it keeps the first connection's bytes
	// and counts the live one's, so it equals the totals Close leaves.
	in, out := c.Traffic()
	c.Close()
	if in == 0 || out == 0 || in != c.BytesIn || out != c.BytesOut {
		t.Errorf("Traffic() = %d in, %d out; totals after Close are %d in, %d out", in, out, c.BytesIn, c.BytesOut)
	}
}

func TestReconnClientGivesUpEventually(t *testing.T) {
	s, err := Serve("127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	c, err := DialReconnecting(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxRetries = 2
	c.BaseDelay = 5 * time.Millisecond
	s.Close() // nothing will listen again
	if err := c.SendReport(elephantReport(1, 1)); err == nil {
		t.Error("report to a dead controller succeeded")
	}
}

func TestReconnClientAggregatesBytes(t *testing.T) {
	s, err := Serve("127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialReconnecting(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendReport(elephantReport(1, 1)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c.BytesOut == 0 || c.BytesIn == 0 {
		t.Errorf("byte aggregation lost: in=%d out=%d", c.BytesIn, c.BytesOut)
	}
}

// TestReconnFirstDialDrawsFromSeed: the retries of a first dial that
// fails, as when an agent starts before its controller, already draw
// their jitter from the client's seed, so after two failed dials the
// next delay takes the seeded stream's third draw.
func TestReconnFirstDialDrawsFromSeed(t *testing.T) {
	s, err := Serve("127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fails := 2
	dial := func(addr string) (*Client, error) {
		if fails > 0 {
			fails--
			return nil, errors.New("controller not up yet")
		}
		return Dial(addr)
	}
	const seed = 7
	c, err := DialReconnectingWith(s.Addr(), 5, time.Millisecond, time.Millisecond, seed, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	rng.Float64()
	rng.Float64()
	want := time.Duration(float64(time.Millisecond) * (0.5 + 0.5*rng.Float64()))
	if got := c.backoffDelay(1); got != want {
		t.Errorf("next backoff %v, want %v from the seed's third draw", got, want)
	}
}
