package ctrlrpc

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// TestReconnClientsConcurrentRestart drives several reconnecting clients
// from separate goroutines through a controller kill+restart, so every
// client's redial/backoff path runs at the same time. Under -race this
// pins the jitter RNG down as a per-client stream: a shared or lazily
// initialized global stream shows up as a data race the moment two
// clients back off together.
func TestReconnClientsConcurrentRestart(t *testing.T) {
	cfg := DefaultServerConfig()
	s1, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()

	const nClients = 6
	clients := make([]*ReconnClient, nClients)
	for i := range clients {
		c, err := DialReconnecting(addr, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		c.BaseDelay = 2 * time.Millisecond
		c.MaxDelay = 20 * time.Millisecond
		c.MaxRetries = 50
		clients[i] = c
		defer c.Close()
	}

	// Kill the controller while everyone is mid-traffic, then restart it
	// on the same address after the clients have piled into backoff.
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	start := make(chan struct{})
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for seq := uint64(1); seq <= 5; seq++ {
				if err := c.SendReport(elephantReport(uint32(i), seq)); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	s1.Close()
	var s2 *Server
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		var err error
		s2, err = Serve(addr, cfg)
		restarted <- err
	}()
	close(start)
	wg.Wait()
	if err := <-restarted; err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()

	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d never recovered: %v", i, err)
		}
	}
	if st := s2.Stats(); st.Reports == 0 {
		t.Error("restarted controller saw no reports")
	}
}

// TestReconnFallbackSeedsDiverge checks the herd property directly: two
// clients of one controller built with different seeds must not share a
// jitter stream, or their redials would land in lockstep. The same seed
// must give the same stream, so a run's backoff is reproducible.
func TestReconnFallbackSeedsDiverge(t *testing.T) {
	s, err := Serve("127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	jitterSeq := func(seed int64) []time.Duration {
		c, err := DialReconnecting(s.Addr(), seed)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.BaseDelay = time.Millisecond
		c.MaxDelay = 256 * time.Millisecond
		seq := make([]time.Duration, 8)
		for k := range seq {
			seq[k] = c.backoffDelay(k + 1)
		}
		return seq
	}
	if a, b := jitterSeq(1), jitterSeq(2); slices.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 produced the identical backoff sequence %v — thundering herd is back", a)
	}
	if a, b := jitterSeq(42), jitterSeq(42); !slices.Equal(a, b) {
		t.Fatalf("seed 42 gave two backoff sequences: %v and %v", a, b)
	}
}
