// Package ctrlrpc is the real control plane of the Paraleon prototype:
// switch/RNIC agents upload per-interval metrics to the centralized
// controller and receive DCQCN parameter updates back, over TCP with a
// compact length-prefixed binary framing (the paper uses gRPC over TCP;
// a hand-rolled frame keeps the reproduction dependency-free and makes
// the Table IV byte accounting exact).
//
// Framing: uint32 little-endian payload length, one type byte, then the
// fixed-layout little-endian payload: every field in declaration order,
// byte for byte what encoding/binary writes for the struct. The one
// exception is TickResult's dcqcn.Params, whose RPGThreshold is an int
// that encoding/binary cannot write: it goes out as an int64, like the
// durations, which are nanoseconds. The tests hold the hand-written codec
// to that oracle. Payloads are capped at MaxFrame to bound memory against
// misbehaving peers.
package ctrlrpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/loop"
)

// MaxFrame bounds a frame payload.
const MaxFrame = 64 << 10

// Message types.
const (
	// TypeReport carries one agent's interval metrics (agent → controller).
	TypeReport byte = 1
	// TypeAck confirms a report (controller → agent).
	TypeAck byte = 2
	// TypeTick closes an interval and asks for parameters (driver →
	// controller).
	TypeTick byte = 3
	// TypeParams answers a tick (controller → driver).
	TypeParams byte = 4
	// TypeApplyAck reports that an agent applied a dispatched epoch
	// (agent → controller); answered with TypeAck.
	TypeApplyAck byte = 5
)

// Report is one agent's contribution for one monitor interval: its local
// flow-size distribution plus raw runtime-metric sums the controller
// aggregates into Equation (1)'s inputs.
type Report struct {
	AgentID uint32
	Seq     uint64

	// Local FSD.
	loop.Report

	// Runtime metric contributions for this agent's scope.
	loop.RuntimeSums
}

// MonitorReport returns the report's local FSD. In-repo code reads
// r.Report; this stays because the benchmark module calls it.
func (r *Report) MonitorReport() loop.Report { return r.Report }

// TickMsg closes interval Seq; IntervalNanos is λ_MI for rate math.
type TickMsg struct {
	Seq           uint64
	IntervalNanos int64
}

// TickResult is the controller's answer to a tick: whether this interval
// changed the parameter vector (Changed) after a KL trigger (Triggered),
// the epoch stamped on the vector, and the vector to run. Epoch is
// monotonically increasing: agents ACK (epoch, vector-hash) after
// applying, and an agent that sees an epoch at or below its own treats
// the frame as a duplicate — retries and reordered deliveries are
// idempotent by construction.
type TickResult struct {
	Changed   bool
	Triggered bool
	Epoch     uint64
	Params    dcqcn.Params
}

// AckMsg is an agent's apply acknowledgement: the epoch it applied and
// the hash of the vector it is now running (dispatch.VectorHash).
// Applied is false when the frame was a duplicate or stale and the
// agent kept what it had — the ACK then names that retained state.
type AckMsg struct {
	AgentID    uint32
	Epoch      uint64
	VectorHash uint64
	Applied    bool
}

// frameHeader is the uint32 payload length plus the type byte.
const frameHeader = 5

// Payload sizes of the fixed layouts: every field in declaration order,
// bools as one byte, no padding — what binary.Size reports for each struct.
const (
	reportSize = 4 + 8 + 8*loop.NumBuckets + 4*8 + 4 + 8 + 4 + 8 + 8 + 8 + 4
	tickSize   = 8 + 8
	ackSize    = 4 + 8 + 8 + 1
	paramsSize = 1 + 1 + 8 + 14*8 + 1
)

// errNotMessage rejects a value that is not one of the four wire messages.
var errNotMessage = errors.New("ctrlrpc: not a wire message")

// largestFrame is the longest frame any message encodes to.
const largestFrame = frameHeader + max(reportSize, tickSize, ackSize, paramsSize)

// WriteFrame encodes msg — a *Report, *TickMsg, *AckMsg or *TickResult, or
// nil for bodyless types — and writes one frame: appendFrame, then a
// flush. It returns the bytes written.
func WriteFrame(w *bufio.Writer, typ byte, msg any) (int, error) {
	n, err := appendFrame(w, typ, msg)
	if err != nil {
		return 0, err
	}
	return n, w.Flush()
}

// appendFrame encodes msg as one frame into w's buffer without flushing
// it, so frames appended back to back leave in one write. It flushes
// first only when the buffer has no room for the largest frame, so a
// frame is never split across writes. It returns the frame's length.
func appendFrame(w *bufio.Writer, typ byte, msg any) (int, error) {
	if w.Available() < largestFrame {
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	// Build the frame in the writer's free space: it fits, so Write
	// copies it onto itself and nothing is allocated.
	b := append(w.AvailableBuffer(), 0, 0, 0, 0, typ)
	switch m := msg.(type) {
	case nil:
	case *Report:
		b = m.appendTo(b)
	case *TickMsg:
		b = m.appendTo(b)
	case *AckMsg:
		b = m.appendTo(b)
	case *TickResult:
		b = m.appendTo(b)
	default:
		return 0, fmt.Errorf("ctrlrpc: encode type %d: %w", typ, errNotMessage)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-frameHeader))
	if _, err := w.Write(b); err != nil {
		return 0, err
	}
	return len(b), nil
}

// ReadFrame reads one frame and returns its type and raw payload, freshly
// allocated. The returned byte count includes the header.
func ReadFrame(r *bufio.Reader) (typ byte, payload []byte, n int, err error) {
	var buf []byte
	return readFrame(r, &buf)
}

// readFrame is ReadFrame reading the payload into *buf, which it grows
// when the payload does not fit. Connections keep one buffer for their
// lifetime; the payload is valid until the next read into it.
func readFrame(r *bufio.Reader, buf *[]byte) (typ byte, payload []byte, n int, err error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, 0, err
	}
	size, typ := binary.LittleEndian.Uint32(hdr), hdr[4]
	r.Discard(frameHeader)
	if size > MaxFrame {
		return 0, nil, 0, fmt.Errorf("ctrlrpc: frame of %d bytes exceeds max %d", size, MaxFrame)
	}
	if cap(*buf) < int(size) {
		*buf = make([]byte, size)
	}
	payload = (*buf)[:size]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, err
	}
	return typ, payload, frameHeader + int(size), nil
}

// Decode unmarshals a fixed-layout payload into out, which must be a
// *Report, *TickMsg, *AckMsg or *TickResult. As with binary.Read, trailing
// bytes are ignored, and an empty or short payload leaves out untouched
// and returns io.EOF or io.ErrUnexpectedEOF.
func Decode(payload []byte, out any) error {
	switch m := out.(type) {
	case *Report:
		return m.decode(payload)
	case *TickMsg:
		return m.decode(payload)
	case *AckMsg:
		return m.decode(payload)
	case *TickResult:
		return m.decode(payload)
	}
	return errNotMessage
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// cursor reads a fixed layout front to back. Each decode checks the
// length with need before reading, so no read runs past the end.
type cursor []byte

// need returns what binary.Read returns for a payload shorter than size:
// io.EOF when it is empty, io.ErrUnexpectedEOF when it is cut short.
func (c cursor) need(size int) error {
	switch {
	case len(c) >= size:
		return nil
	case len(c) == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

func (c *cursor) u32() uint32 {
	v := binary.LittleEndian.Uint32(*c)
	*c = (*c)[4:]
	return v
}

func (c *cursor) u64() uint64 {
	v := binary.LittleEndian.Uint64(*c)
	*c = (*c)[8:]
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// flag decodes a bool as binary.Read does: any non-zero byte is true.
func (c *cursor) flag() bool {
	v := (*c)[0] != 0
	*c = (*c)[1:]
	return v
}

func (r *Report) appendTo(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, r.AgentID)
	b = le.AppendUint64(b, r.Seq)
	for _, v := range &r.Hist {
		b = appendF64(b, v)
	}
	b = appendF64(b, r.ElephantBytes)
	b = appendF64(b, r.MiceBytes)
	b = appendF64(b, r.ElephantFlowsW)
	b = appendF64(b, r.MiceFlowsW)
	b = le.AppendUint32(b, uint32(r.Flows))
	b = appendF64(b, r.UtilSum)
	b = le.AppendUint32(b, uint32(r.ActiveLinks))
	b = appendF64(b, r.RTTNormSum)
	b = le.AppendUint64(b, uint64(r.RTTCount))
	b = appendF64(b, r.PauseFracSum)
	return le.AppendUint32(b, uint32(r.Devices))
}

func (r *Report) decode(c cursor) error {
	if err := c.need(reportSize); err != nil {
		return err
	}
	r.AgentID = c.u32()
	r.Seq = c.u64()
	for i := range r.Hist {
		r.Hist[i] = c.f64()
	}
	r.ElephantBytes = c.f64()
	r.MiceBytes = c.f64()
	r.ElephantFlowsW = c.f64()
	r.MiceFlowsW = c.f64()
	r.Flows = int32(c.u32())
	r.UtilSum = c.f64()
	r.ActiveLinks = int32(c.u32())
	r.RTTNormSum = c.f64()
	r.RTTCount = int64(c.u64())
	r.PauseFracSum = c.f64()
	r.Devices = int32(c.u32())
	return nil
}

func (t *TickMsg) appendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, t.Seq)
	return binary.LittleEndian.AppendUint64(b, uint64(t.IntervalNanos))
}

func (t *TickMsg) decode(c cursor) error {
	if err := c.need(tickSize); err != nil {
		return err
	}
	t.Seq = c.u64()
	t.IntervalNanos = int64(c.u64())
	return nil
}

func (a *AckMsg) appendTo(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, a.AgentID)
	b = le.AppendUint64(b, a.Epoch)
	b = le.AppendUint64(b, a.VectorHash)
	return appendBool(b, a.Applied)
}

func (a *AckMsg) decode(c cursor) error {
	if err := c.need(ackSize); err != nil {
		return err
	}
	a.AgentID = c.u32()
	a.Epoch = c.u64()
	a.VectorHash = c.u64()
	a.Applied = c.flag()
	return nil
}

func (t *TickResult) appendTo(b []byte) []byte {
	le := binary.LittleEndian
	b = appendBool(b, t.Changed)
	b = appendBool(b, t.Triggered)
	b = le.AppendUint64(b, t.Epoch)
	p := &t.Params
	b = appendF64(b, p.AIRateBps)
	b = appendF64(b, p.HAIRateBps)
	b = le.AppendUint64(b, uint64(p.RPGTimeReset))
	b = le.AppendUint64(b, uint64(p.RPGByteReset))
	b = le.AppendUint64(b, uint64(p.RPGThreshold))
	b = le.AppendUint64(b, uint64(p.RateReduceMonitorPeriod))
	b = appendF64(b, p.MinRateBps)
	b = appendBool(b, p.ClampTgtRate)
	b = appendF64(b, p.G)
	b = le.AppendUint64(b, uint64(p.AlphaUpdateInterval))
	b = appendF64(b, p.InitialAlpha)
	b = le.AppendUint64(b, uint64(p.MinTimeBetweenCNPs))
	b = le.AppendUint64(b, uint64(p.KminBytes))
	b = le.AppendUint64(b, uint64(p.KmaxBytes))
	return appendF64(b, p.PMax)
}

func (t *TickResult) decode(c cursor) error {
	if err := c.need(paramsSize); err != nil {
		return err
	}
	t.Changed = c.flag()
	t.Triggered = c.flag()
	t.Epoch = c.u64()
	p := &t.Params
	p.AIRateBps = c.f64()
	p.HAIRateBps = c.f64()
	p.RPGTimeReset = eventsim.Time(c.u64())
	p.RPGByteReset = int64(c.u64())
	p.RPGThreshold = int(int64(c.u64()))
	p.RateReduceMonitorPeriod = eventsim.Time(c.u64())
	p.MinRateBps = c.f64()
	p.ClampTgtRate = c.flag()
	p.G = c.f64()
	p.AlphaUpdateInterval = eventsim.Time(c.u64())
	p.InitialAlpha = c.f64()
	p.MinTimeBetweenCNPs = eventsim.Time(c.u64())
	p.KminBytes = int64(c.u64())
	p.KmaxBytes = int64(c.u64())
	p.PMax = c.f64()
	return nil
}
