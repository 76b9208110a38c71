package ctrlrpc

import (
	"fmt"
	"math/rand"
	"time"

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
// reports arrived since. SendReport syncs before it returns, so a failed
// report is retried whole on the fresh connection and none is left
// buffered on a dead one.
type ReconnClient struct {
	addr string
	c    *Client

	// MaxRetries bounds dial attempts per call (0 means
	// DefaultMaxRetries). BaseDelay seeds the exponential backoff and
	// MaxDelay caps it (0 means the defaults).
	MaxRetries int
	BaseDelay  time.Duration
	MaxDelay   time.Duration

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

	// rng draws the backoff jitter.
	rng *rand.Rand
}

// DialReconnectingWith connects with explicit retry/backoff settings, the
// seed of the backoff jitter and an optional dial hook (nil means the
// package Dial); zero settings fall back to the defaults. Clients that
// share a controller take different seeds, so their redials spread out
// instead of landing in lockstep; the first dial's retries already draw
// from the seed.
func DialReconnectingWith(addr string, maxRetries int, base, max time.Duration, seed int64, dial func(string) (*Client, error)) (*ReconnClient, error) {
	r := &ReconnClient{
		addr: addr, MaxRetries: maxRetries, BaseDelay: base, MaxDelay: max, Dial: dial,
		rng: rand.New(rand.NewSource(seed)),
	}
	if err := r.redial(); err != nil {
		return nil, err
	}
	return r, nil
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
	jitter := 0.5 + 0.5*r.rng.Float64()
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

// SendReport uploads a report and waits for its ack, redialing once on
// failure.
func (r *ReconnClient) SendReport(rep Report) error {
	return r.call(func(c *Client) error {
		if err := c.SendReport(rep); err != nil {
			return err
		}
		return c.Sync()
	})
}

// Tick closes an interval, redialing once on failure.
func (r *ReconnClient) Tick(seq uint64, interval time.Duration) (TickResult, error) {
	var res TickResult
	err := r.call(func(c *Client) error {
		var err error
		res, err = c.Tick(seq, interval)
		return err
	})
	return res, err
}

// SendApplyAck reports an applied epoch, redialing once on failure.
func (r *ReconnClient) SendApplyAck(a AckMsg) error {
	return r.call(func(c *Client) error { return c.SendApplyAck(a) })
}

// call runs fn on the live connection, dialing first if there is none.
// A failed call redials once, counts the reconnect and runs fn again on
// the fresh connection.
func (r *ReconnClient) call(fn func(*Client) error) error {
	if r.c == nil {
		if err := r.redial(); err != nil {
			return err
		}
	}
	r.c.TM = r.TM // TM may have been set after the initial dial
	if err := fn(r.c); err == nil {
		return nil
	}
	if err := r.redial(); err != nil {
		return err
	}
	r.Reconnects++
	if r.TM != nil {
		r.TM.Reconnects.Inc()
	}
	return fn(r.c)
}
