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
// controller. Calls are synchronous request/response; a Client is not
// safe for concurrent use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte // reply payloads are read into this, valid until the next call

	// Timeout, when > 0, bounds each frame write and each response read
	// with a connection deadline, so a hung controller fails the call
	// instead of wedging the agent's dispatch loop forever. 0 keeps the
	// pre-deadline behaviour (block indefinitely).
	Timeout time.Duration

	// BytesIn and BytesOut count wire traffic for overhead accounting.
	BytesIn, BytesOut int64

	// TM, when non-nil, mirrors frame and byte flow into the telemetry
	// registry.
	TM *telemetry.RPCMetrics
}

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

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(typ byte, msg any) (byte, []byte, error) {
	if c.Timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
	n, err := WriteFrame(c.bw, typ, msg)
	if err != nil {
		return 0, nil, err
	}
	c.BytesOut += int64(n)
	if c.TM != nil {
		c.TM.FramesOut.Inc()
		c.TM.BytesOut.Add(int64(n))
	}
	if c.Timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	rtyp, payload, rn, err := readFrame(c.br, &c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	c.BytesIn += int64(rn)
	if c.TM != nil {
		c.TM.FramesIn.Inc()
		c.TM.BytesIn.Add(int64(rn))
	}
	return rtyp, payload, nil
}

// SendReport uploads one interval report and waits for the ack.
func (c *Client) SendReport(r Report) error {
	typ, _, err := c.roundTrip(TypeReport, &r)
	if err != nil {
		return err
	}
	if typ != TypeAck {
		return fmt.Errorf("ctrlrpc: report answered with type %d, want ack", typ)
	}
	return nil
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
