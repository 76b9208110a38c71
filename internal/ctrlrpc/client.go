package ctrlrpc

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/dcqcn"
	"repro/internal/telemetry"
)

// Client is one agent's (or the tick driver's) connection to the
// controller. A report is a one-way frame: SendReport only buffers it and
// counts its ack as owed, and Sync, or the next Tick or SendApplyAck,
// sends every buffered frame in one write and reads the owed acks before
// its own reply. After an error the connection is out of step and should
// be closed. A Client is not safe for concurrent use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte // reply payloads are read into this, valid until the next call
	// owed counts the reports whose acks have not been read.
	owed int

	// Timeout, when > 0, bounds each flush and each wait for replies
	// with a connection deadline, so a hung controller fails the call
	// instead of wedging the agent's dispatch loop forever. 0 keeps the
	// pre-deadline behaviour (block indefinitely).
	Timeout time.Duration

	// BytesIn and BytesOut count wire traffic for overhead accounting.
	// A frame counts in BytesOut when it is buffered.
	BytesIn, BytesOut int64

	// TM, when non-nil, mirrors frame and byte flow into the telemetry
	// registry.
	TM *telemetry.RPCMetrics
}

// maxOwed bounds the acks a Client lets go unread: SendReport syncs on
// its own once this many are owed, so a caller that never syncs cannot
// fill both ends' socket buffers and wedge them.
const maxOwed = 64

// Dial connects to a controller with a sane timeout.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection — the hook fault injectors
// use to interpose a faulty transport under the protocol layer.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
}

// Close tears the connection down; reports not yet synced are lost.
func (c *Client) Close() error { return c.conn.Close() }

// send buffers one frame.
func (c *Client) send(typ byte, msg any) error {
	if c.Timeout > 0 {
		// The frame flushes the buffer first when it is full.
		c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
	n, err := appendFrame(c.bw, typ, msg)
	if err != nil {
		return err
	}
	c.BytesOut += int64(n)
	if c.TM != nil {
		c.TM.FramesOut.Inc()
		c.TM.BytesOut.Add(int64(n))
	}
	return nil
}

// read reads one reply frame.
func (c *Client) read() (byte, []byte, error) {
	typ, payload, n, err := readFrame(c.br, &c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	c.BytesIn += int64(n)
	if c.TM != nil {
		c.TM.FramesIn.Inc()
		c.TM.BytesIn.Add(int64(n))
	}
	return typ, payload, nil
}

// exchange flushes every buffered frame and reads the owed report acks,
// then, when reply is set, the reply to the frame buffered last.
func (c *Client) exchange(reply bool) (byte, []byte, error) {
	if c.Timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	if !reply && c.owed == 0 {
		return 0, nil, nil
	}
	if c.Timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	for ; c.owed > 0; c.owed-- {
		typ, _, err := c.read()
		if err != nil {
			return 0, nil, err
		}
		if typ != TypeAck {
			return 0, nil, fmt.Errorf("ctrlrpc: report answered with type %d, want ack", typ)
		}
	}
	if !reply {
		return 0, nil, nil
	}
	return c.read()
}

func (c *Client) roundTrip(typ byte, msg any) (byte, []byte, error) {
	if err := c.send(typ, msg); err != nil {
		return 0, nil, err
	}
	return c.exchange(true)
}

// SendReport buffers one interval report and counts its ack as owed. It
// writes nothing unless maxOwed acks are owed, when it syncs.
func (c *Client) SendReport(r Report) error {
	c.owed++
	if err := c.send(TypeReport, &r); err != nil {
		return err
	}
	if c.owed >= maxOwed {
		return c.Sync()
	}
	return nil
}

// Sync sends every buffered report and reads its ack. Once it returns
// nil, the controller has taken every report sent so far.
func (c *Client) Sync() error {
	_, _, err := c.exchange(false)
	return err
}

// TickResult is the controller's answer to a tick: the parameter
// vector to run, the epoch stamped on it, and whether this interval
// changed it (Changed) after a KL trigger (Triggered).
type TickResult struct {
	Params    dcqcn.Params
	Epoch     uint64
	Changed   bool
	Triggered bool
}

// Tick closes interval seq and returns the controller's parameter
// decision.
func (c *Client) Tick(seq uint64, interval time.Duration) (TickResult, error) {
	typ, payload, err := c.roundTrip(TypeTick, &TickMsg{Seq: seq, IntervalNanos: interval.Nanoseconds()})
	if err != nil {
		return TickResult{}, err
	}
	if typ != TypeParams {
		return TickResult{}, fmt.Errorf("ctrlrpc: tick answered with type %d, want params", typ)
	}
	var resp ParamsMsg
	if err := Decode(payload, &resp); err != nil {
		return TickResult{}, err
	}
	return TickResult{
		Params:    FromWire(resp.Params),
		Epoch:     resp.Epoch,
		Changed:   resp.Changed,
		Triggered: resp.Triggered,
	}, nil
}

// SendApplyAck reports that this agent applied (or idempotently
// rejected) a dispatched epoch and waits for the controller's ack.
func (c *Client) SendApplyAck(a AckMsg) error {
	typ, _, err := c.roundTrip(TypeApplyAck, &a)
	if err != nil {
		return err
	}
	if typ != TypeAck {
		return fmt.Errorf("ctrlrpc: apply-ack answered with type %d, want ack", typ)
	}
	return nil
}
