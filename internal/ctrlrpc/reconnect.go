package ctrlrpc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/splitmix"
	"repro/internal/telemetry"
)

// Backoff defaults: redial attempts are spaced BaseDelay, 2×, 4×, …
// capped at MaxDelay, each multiplied by a jitter factor in [0.5, 1.0).
const (
	DefaultMaxRetries = 5
	DefaultBaseDelay  = 20 * time.Millisecond
	DefaultMaxDelay   = 500 * time.Millisecond
)

// ReconnClient wraps Client with automatic redial: controller restarts
// (upgrades, crashes) must not take the monitoring agents down with
// them. A failed call is retried once per fresh connection, up to
// MaxRetries dials spaced by capped exponential backoff with jitter —
// a fixed retry delay synchronizes every agent's redial into a thundering
// herd against a restarting controller; jittered backoff spreads them.
//
// Retrying is safe by protocol design: reports are idempotent
// accumulation (a lost report degrades one interval's FSD), and a tick
// that reaches a freshly restarted controller simply aggregates whatever
// reports arrived since.
type ReconnClient struct {
	addr string
	c    *Client

	// MaxRetries bounds dial attempts per call (0 means
	// DefaultMaxRetries). BaseDelay seeds the exponential backoff and
	// MaxDelay caps it (0 means the defaults).
	MaxRetries int
	BaseDelay  time.Duration
	MaxDelay   time.Duration

	// Timeout is copied onto every dialed Client: per-frame I/O
	// deadlines so a stalled controller turns into a retriable error
	// instead of a hang. 0 disables deadlines.
	Timeout time.Duration

	// Dial overrides how connections are established (fault injectors
	// wrap the raw conn here); nil means the package Dial.
	Dial func(addr string) (*Client, error)

	// Reconnects counts successful redials; BytesIn/BytesOut aggregate
	// across connections.
	Reconnects        int
	BytesIn, BytesOut int64

	// TM, when non-nil, mirrors retry/reconnect activity (and, via the
	// wrapped Client, frame and byte flow) into the telemetry registry.
	TM *telemetry.RPCMetrics

	rngMu sync.Mutex
	rng   *rand.Rand
}

// DialReconnecting connects to addr, verifying the controller is
// reachable once.
func DialReconnecting(addr string) (*ReconnClient, error) {
	return DialReconnectingWith(addr, 0, 0, 0, nil)
}

// DialReconnectingWith connects with explicit retry/backoff settings and
// an optional dial hook (nil means the package Dial); zero settings fall
// back to the defaults.
func DialReconnectingWith(addr string, maxRetries int, base, max time.Duration, dial func(string) (*Client, error)) (*ReconnClient, error) {
	r := &ReconnClient{addr: addr, MaxRetries: maxRetries, BaseDelay: base, MaxDelay: max, Dial: dial}
	if err := r.redial(); err != nil {
		return nil, err
	}
	return r, nil
}

// SeedBackoff fixes the jitter RNG, making the backoff sequence
// reproducible. Unseeded clients get a per-client stream split off the
// address hash so distinct agents spread out by default.
func (r *ReconnClient) SeedBackoff(seed int64) {
	r.rngMu.Lock()
	r.rng = rand.New(rand.NewSource(seed))
	r.rngMu.Unlock()
}

// reconnSeq distinguishes unseeded clients dialing the same address. The
// address hash alone would hand every agent of one controller the same
// jitter stream — their redials would land in lockstep, resurrecting the
// thundering herd the jitter exists to break.
var reconnSeq atomic.Uint64

// fallbackSeed derives the jitter seed for a client that never called
// SeedBackoff: the address hash mixed with a process-wide counter, put
// through one SplitMix64 step so consecutive clients don't start their
// backoff streams near each other.
func fallbackSeed(addr string) int64 {
	var h uint64
	for _, b := range []byte(addr) {
		h = h*131 + uint64(b)
	}
	return int64(splitmix.Next(h + reconnSeq.Add(1)))
}

// backoffDelay returns the pause before dial attempt k (k ≥ 1):
// min(BaseDelay << (k-1), MaxDelay) scaled by jitter in [0.5, 1.0).
func (r *ReconnClient) backoffDelay(k int) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	max := r.MaxDelay
	if max <= 0 {
		max = DefaultMaxDelay
	}
	d := base
	for i := 1; i < k && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	r.rngMu.Lock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(fallbackSeed(r.addr)))
	}
	jitter := 0.5 + 0.5*r.rng.Float64()
	r.rngMu.Unlock()
	return time.Duration(float64(d) * jitter)
}

func (r *ReconnClient) maxRetries() int {
	if r.MaxRetries > 0 {
		return r.MaxRetries
	}
	return DefaultMaxRetries
}

func (r *ReconnClient) dial() (*Client, error) {
	if r.Dial != nil {
		return r.Dial(r.addr)
	}
	return Dial(r.addr)
}

func (r *ReconnClient) redial() error {
	if r.c != nil {
		r.BytesIn += r.c.BytesIn
		r.BytesOut += r.c.BytesOut
		r.c.Close()
		r.c = nil
	}
	var lastErr error
	for attempt := 0; attempt < r.maxRetries(); attempt++ {
		if attempt > 0 {
			time.Sleep(r.backoffDelay(attempt))
		}
		if r.TM != nil {
			r.TM.Retries.Inc()
		}
		c, err := r.dial()
		if err == nil {
			c.TM = r.TM
			c.Timeout = r.Timeout
			r.c = c
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("ctrlrpc: redial %s: %w", r.addr, lastErr)
}

// Traffic returns the bytes received and sent over every connection so
// far, the live one included.
func (r *ReconnClient) Traffic() (in, out int64) {
	in, out = r.BytesIn, r.BytesOut
	if r.c != nil {
		in, out = in+r.c.BytesIn, out+r.c.BytesOut
	}
	return in, out
}

// Close tears down the current connection.
func (r *ReconnClient) Close() error {
	if r.c == nil {
		return nil
	}
	r.BytesIn += r.c.BytesIn
	r.BytesOut += r.c.BytesOut
	err := r.c.Close()
	r.c = nil
	return err
}

// SendReport uploads a report, redialing once on failure.
func (r *ReconnClient) SendReport(rep Report) error {
	if r.c == nil {
		if err := r.redial(); err != nil {
			return err
		}
	}
	r.c.TM = r.TM // TM may have been set after the initial dial
	if err := r.c.SendReport(rep); err == nil {
		return nil
	}
	if err := r.redial(); err != nil {
		return err
	}
	r.Reconnects++
	if r.TM != nil {
		r.TM.Reconnects.Inc()
	}
	return r.c.SendReport(rep)
}

// Tick closes an interval, redialing once on failure.
func (r *ReconnClient) Tick(seq uint64, interval time.Duration) (TickResult, error) {
	if r.c == nil {
		if err := r.redial(); err != nil {
			return TickResult{}, err
		}
	}
	r.c.TM = r.TM // TM may have been set after the initial dial
	r.c.Timeout = r.Timeout
	res, err := r.c.Tick(seq, interval)
	if err == nil {
		return res, nil
	}
	if err := r.redial(); err != nil {
		return TickResult{}, err
	}
	r.Reconnects++
	if r.TM != nil {
		r.TM.Reconnects.Inc()
	}
	return r.c.Tick(seq, interval)
}

// SendApplyAck reports an applied epoch, redialing once on failure.
func (r *ReconnClient) SendApplyAck(a AckMsg) error {
	if r.c == nil {
		if err := r.redial(); err != nil {
			return err
		}
	}
	r.c.TM = r.TM // TM may have been set after the initial dial
	r.c.Timeout = r.Timeout
	if err := r.c.SendApplyAck(a); err == nil {
		return nil
	}
	if err := r.redial(); err != nil {
		return err
	}
	r.Reconnects++
	if r.TM != nil {
		r.TM.Reconnects.Inc()
	}
	return r.c.SendApplyAck(a)
}
