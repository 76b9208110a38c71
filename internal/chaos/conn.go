package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedTruncation is returned by a FaultyConn write that was cut
// short on purpose.
var ErrInjectedTruncation = errors.New("chaos: injected frame truncation")

// DefaultDropTimeout bounds how long a caller whose frames were dropped
// can hang: the drop arms a read deadline so the caller's wait for the
// acks or the reply that will never come fails instead of blocking
// forever (a ctrlrpc client without a Timeout has no other deadline).
const DefaultDropTimeout = 50 * time.Millisecond

// ConnFaults configures control-plane transport faults. Probabilities
// are per Write call. A ctrlrpc client's Write carries every frame it
// buffered since its last flush; in wire runs each agent's Write still
// carries one report, or one apply-ack, so there they are per frame.
type ConnFaults struct {
	// Seed drives the per-connection RNG; 0 falls back to the scenario
	// seed (or 1 standalone). The transport runs on real TCP threads, so
	// unlike in-sim faults the seed fixes the fault pattern per
	// connection but not its wall-clock interleaving.
	Seed int64

	// DropProb silently discards the frame. The write reports success
	// and a read deadline of DropTimeout is armed, so the caller
	// observes a response timeout followed by reconnect.
	DropProb float64
	// DupProb writes the frame twice, desynchronizing the
	// request/response stream.
	DupProb float64
	// TruncProb writes only a prefix of the frame and then closes the
	// connection, leaving the peer a partial frame.
	TruncProb float64

	// DropTimeout overrides DefaultDropTimeout when >0.
	DropTimeout time.Duration
}

// Enabled reports whether any fault is configured.
func (f ConnFaults) Enabled() bool {
	return f.DropProb > 0 || f.DupProb > 0 || f.TruncProb > 0
}

// Wrap returns conn with f's faults applied to its writes.
func (f ConnFaults) Wrap(conn net.Conn) *FaultyConn {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultyConn{Conn: conn, faults: f, rng: rand.New(rand.NewSource(seed))}
}

// FaultyConn is a net.Conn whose writes may be dropped, duplicated or
// truncated. Reads pass through untouched (faulting one
// direction is enough to exercise every recovery path, and keeps cause
// and effect attributable).
type FaultyConn struct {
	net.Conn

	mu     sync.Mutex
	faults ConnFaults
	rng    *rand.Rand

	// Drops, Dups, and Truncs count injected faults.
	Drops, Dups, Truncs int
}

func (c *FaultyConn) dropTimeout() time.Duration {
	if c.faults.DropTimeout > 0 {
		return c.faults.DropTimeout
	}
	return DefaultDropTimeout
}

func (c *FaultyConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	roll := c.rng.Float64()
	c.mu.Unlock()

	switch p := c.faults; {
	case roll < p.DropProb:
		c.mu.Lock()
		c.Drops++
		c.mu.Unlock()
		// Pretend the frame went out, but make sure the pending
		// response read cannot hang forever.
		c.Conn.SetReadDeadline(time.Now().Add(c.dropTimeout()))
		return len(b), nil
	case roll < p.DropProb+p.TruncProb && len(b) > 1:
		c.mu.Lock()
		c.Truncs++
		c.mu.Unlock()
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, ErrInjectedTruncation
	case roll < p.DropProb+p.TruncProb+p.DupProb:
		c.mu.Lock()
		c.Dups++
		c.mu.Unlock()
		if n, err := c.Conn.Write(b); err != nil {
			return n, err
		}
		return c.Conn.Write(b)
	}
	return c.Conn.Write(b)
}
