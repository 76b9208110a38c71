// Package ctrlrpc is the real control plane of the Paraleon prototype:
// switch/RNIC agents upload per-interval metrics to the centralized
// controller and receive DCQCN parameter updates back, over TCP with a
// compact length-prefixed binary framing (the paper uses gRPC over TCP;
// a hand-rolled frame keeps the reproduction dependency-free and makes
// the Table IV byte accounting exact).
//
// Framing: uint32 little-endian payload length, one type byte, then the
// fixed-layout little-endian payload: every field in declaration order,
// byte for byte what encoding/binary writes for the struct (the tests hold
// the hand-written codec to that oracle). Payloads are capped at MaxFrame
// to bound memory against misbehaving peers.
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

	// Local FSD (mirrors loop.Report).
	Hist           [loop.NumBuckets]float64
	ElephantBytes  float64
	MiceBytes      float64
	ElephantFlowsW float64
	MiceFlowsW     float64
	Flows          int32

	// Runtime metric contributions for this agent's scope.
	loop.RuntimeSums
}

// MonitorReport converts the wire FSD fields back to a loop.Report.
func (r *Report) MonitorReport() loop.Report {
	var m loop.Report
	m.Hist = r.Hist
	m.ElephantBytes = r.ElephantBytes
	m.MiceBytes = r.MiceBytes
	m.ElephantFlowsW = r.ElephantFlowsW
	m.MiceFlowsW = r.MiceFlowsW
	m.Flows = int(r.Flows)
	return m
}

// TickMsg closes interval Seq; IntervalNanos is λ_MI for rate math.
type TickMsg struct {
	Seq           uint64
	IntervalNanos int64
}

// ParamsMsg answers a tick with the setting to dispatch. Epoch is the
// monotonically increasing number of the current vector: agents ACK
// (epoch, vector-hash) after applying, and an agent that sees an epoch
// at or below its own treats the frame as a duplicate — retries and
// reordered deliveries are idempotent by construction.
type ParamsMsg struct {
	Changed   bool
	Triggered bool
	Epoch     uint64
	Params    WireParams
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

// WireParams is dcqcn.Params with fixed-width fields for binary encoding.
type WireParams struct {
	AIRateBps               float64
	HAIRateBps              float64
	RPGTimeResetNs          int64
	RPGByteReset            int64
	RPGThreshold            int64
	RateReduceMonitorNs     int64
	MinRateBps              float64
	ClampTgtRate            bool
	G                       float64
	AlphaUpdateIntervalNs   int64
	InitialAlpha            float64
	MinTimeBetweenCNPsNanos int64
	KminBytes               int64
	KmaxBytes               int64
	PMax                    float64
}

// ToWire converts engine-typed params to the wire layout.
func ToWire(p dcqcn.Params) WireParams {
	return WireParams{
		AIRateBps:               p.AIRateBps,
		HAIRateBps:              p.HAIRateBps,
		RPGTimeResetNs:          int64(p.RPGTimeReset),
		RPGByteReset:            p.RPGByteReset,
		RPGThreshold:            int64(p.RPGThreshold),
		RateReduceMonitorNs:     int64(p.RateReduceMonitorPeriod),
		MinRateBps:              p.MinRateBps,
		ClampTgtRate:            p.ClampTgtRate,
		G:                       p.G,
		AlphaUpdateIntervalNs:   int64(p.AlphaUpdateInterval),
		InitialAlpha:            p.InitialAlpha,
		MinTimeBetweenCNPsNanos: int64(p.MinTimeBetweenCNPs),
		KminBytes:               p.KminBytes,
		KmaxBytes:               p.KmaxBytes,
		PMax:                    p.PMax,
	}
}

// FromWire converts back to engine-typed params.
func FromWire(w WireParams) dcqcn.Params {
	return dcqcn.Params{
		AIRateBps:               w.AIRateBps,
		HAIRateBps:              w.HAIRateBps,
		RPGTimeReset:            eventsim.Time(w.RPGTimeResetNs),
		RPGByteReset:            w.RPGByteReset,
		RPGThreshold:            int(w.RPGThreshold),
		RateReduceMonitorPeriod: eventsim.Time(w.RateReduceMonitorNs),
		MinRateBps:              w.MinRateBps,
		ClampTgtRate:            w.ClampTgtRate,
		G:                       w.G,
		AlphaUpdateInterval:     eventsim.Time(w.AlphaUpdateIntervalNs),
		InitialAlpha:            w.InitialAlpha,
		MinTimeBetweenCNPs:      eventsim.Time(w.MinTimeBetweenCNPsNanos),
		KminBytes:               w.KminBytes,
		KmaxBytes:               w.KmaxBytes,
		PMax:                    w.PMax,
	}
}

// frameHeader is the uint32 payload length plus the type byte.
const frameHeader = 5

// Payload sizes of the fixed layouts: every field in declaration order,
// bools as one byte, no padding — what binary.Size reports for each struct.
const (
	reportSize     = 4 + 8 + 8*loop.NumBuckets + 4*8 + 4 + 8 + 4 + 8 + 8 + 8 + 4
	tickSize       = 8 + 8
	ackSize        = 4 + 8 + 8 + 1
	wireParamsSize = 14*8 + 1
	paramsSize     = 1 + 1 + 8 + wireParamsSize
)

// errNotMessage rejects a value that is not one of the four wire messages.
var errNotMessage = errors.New("ctrlrpc: not a wire message")

// largestFrame is the longest frame any message encodes to.
const largestFrame = frameHeader + max(reportSize, tickSize, ackSize, paramsSize)

// WriteFrame encodes msg — a *Report, *TickMsg, *AckMsg or *ParamsMsg, or
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
	case *ParamsMsg:
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
// *Report, *TickMsg, *AckMsg or *ParamsMsg. As with binary.Read, trailing
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
	case *ParamsMsg:
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

func (p *ParamsMsg) appendTo(b []byte) []byte {
	b = appendBool(b, p.Changed)
	b = appendBool(b, p.Triggered)
	b = binary.LittleEndian.AppendUint64(b, p.Epoch)
	return p.Params.appendTo(b)
}

func (p *ParamsMsg) decode(c cursor) error {
	if err := c.need(paramsSize); err != nil {
		return err
	}
	p.Changed = c.flag()
	p.Triggered = c.flag()
	p.Epoch = c.u64()
	p.Params.read(&c)
	return nil
}

func (w *WireParams) appendTo(b []byte) []byte {
	le := binary.LittleEndian
	b = appendF64(b, w.AIRateBps)
	b = appendF64(b, w.HAIRateBps)
	b = le.AppendUint64(b, uint64(w.RPGTimeResetNs))
	b = le.AppendUint64(b, uint64(w.RPGByteReset))
	b = le.AppendUint64(b, uint64(w.RPGThreshold))
	b = le.AppendUint64(b, uint64(w.RateReduceMonitorNs))
	b = appendF64(b, w.MinRateBps)
	b = appendBool(b, w.ClampTgtRate)
	b = appendF64(b, w.G)
	b = le.AppendUint64(b, uint64(w.AlphaUpdateIntervalNs))
	b = appendF64(b, w.InitialAlpha)
	b = le.AppendUint64(b, uint64(w.MinTimeBetweenCNPsNanos))
	b = le.AppendUint64(b, uint64(w.KminBytes))
	b = le.AppendUint64(b, uint64(w.KmaxBytes))
	return appendF64(b, w.PMax)
}

// read decodes WireParams inside a ParamsMsg, whose need covers it.
func (w *WireParams) read(c *cursor) {
	w.AIRateBps = c.f64()
	w.HAIRateBps = c.f64()
	w.RPGTimeResetNs = int64(c.u64())
	w.RPGByteReset = int64(c.u64())
	w.RPGThreshold = int64(c.u64())
	w.RateReduceMonitorNs = int64(c.u64())
	w.MinRateBps = c.f64()
	w.ClampTgtRate = c.flag()
	w.G = c.f64()
	w.AlphaUpdateIntervalNs = int64(c.u64())
	w.InitialAlpha = c.f64()
	w.MinTimeBetweenCNPsNanos = int64(c.u64())
	w.KminBytes = int64(c.u64())
	w.KmaxBytes = int64(c.u64())
	w.PMax = c.f64()
}
