// Package trace is a run's one event log: parameter dispatches, tuning
// triggers, rollbacks, injected faults and recoveries, monitor samples,
// notes, and the spans that link them. A production operator's first
// question when a tuner misbehaves is "what exactly did it do, when?" —
// this is that audit log.
//
// A Recorder feeds up to two sinks: a JSON Lines writer (the chaos
// goldens are its bytes) and a bounded in-memory tail of the last
// TailLen events, which the flight-recorder artifact embeds. Methods on
// a nil *Recorder do nothing, so producers call them unguarded.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dcqcn"
	"repro/internal/loop"
)

// Event kinds.
const (
	KindDispatch = "dispatch"
	KindSample   = "sample"
	KindTrigger  = "trigger"
	KindNote     = "note"
	// KindFault / KindRecover bracket injected faults and the system's
	// recovery from them (internal/chaos and the controller's
	// degradation logic emit these); KindRollback records a reversion to
	// the last-known-good parameter vector.
	KindFault    = "fault"
	KindRecover  = "recover"
	KindRollback = "rollback"
	// KindSpanStart / KindSpanEnd bracket a control-loop span (e.g. one
	// SA tuning session) in the recorder's time. Events produced inside
	// the span carry its SpanID, linking a trigger through its search to
	// the resulting dispatches.
	KindSpanStart = "span_start"
	KindSpanEnd   = "span_end"
)

// TailLen is how many of the most recent events the tail sink keeps.
const TailLen = 256

// Event is one recorded occurrence. Unused fields are omitted from the
// encoding.
type Event struct {
	// T is the recorder's clock: virtual nanoseconds in the simulator,
	// the tick index in the controller daemon.
	T    int64  `json:"t"`
	Kind string `json:"kind"`

	Params *dcqcn.Params `json:"params,omitempty"`

	OTP  *float64 `json:"otp,omitempty"`
	ORTT *float64 `json:"ortt,omitempty"`
	OPFC *float64 `json:"opfc,omitempty"`

	ElephantShare *float64 `json:"elephant_share,omitempty"`

	// Fault names what went wrong or recovered (e.g. "link_down",
	// "agent_crash", "quorum_lost"); Target names the affected entity
	// (e.g. "link 2-6", "agent 1").
	Fault  string `json:"fault,omitempty"`
	Target string `json:"target,omitempty"`

	// Span names the span a span_start opens (e.g. "sa_session");
	// SpanID identifies it. On non-span events a nonzero SpanID links
	// the event into that span; Parent links nested spans.
	Span   string `json:"span,omitempty"`
	SpanID uint64 `json:"span_id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`

	Note string `json:"note,omitempty"`
}

// Recorder stamps events with its clock and hands them to its sinks. It
// is not safe for concurrent use; its producers are single-threaded (the
// simulation's event loop, or the daemon's tick under its lock).
type Recorder struct {
	now func() int64

	// JSON Lines sink; nil when the recorder writes nowhere.
	bw  *bufio.Writer
	enc *json.Encoder
	// Events counts records written to the JSON Lines sink; Err holds
	// its first write error (subsequent writes are dropped).
	Events int
	Err    error

	// Tail sink: a ring of capacity TailLen (zero when off), the index
	// of its oldest event once full, and how many older events it lost.
	tail    []Event
	head    int
	dropped int64

	// spanSeq hands out span IDs; purely sequential, so a fixed event
	// order yields a byte-identical trace.
	spanSeq uint64
}

// New builds a recorder stamping events with now. When w is non-nil
// every event is written to it as JSON Lines; when tail is set the last
// TailLen events are kept for Tail.
func New(now func() int64, w io.Writer, tail bool) *Recorder {
	r := &Recorder{now: now}
	if w != nil {
		r.bw = bufio.NewWriter(w)
		r.enc = json.NewEncoder(r.bw)
	}
	if tail {
		r.tail = make([]Event, 0, TailLen)
	}
	return r
}

// Dispatch records a parameter update pushed to the fabric.
func (r *Recorder) Dispatch(span uint64, p dcqcn.Params) {
	if r != nil {
		r.emit(Event{Kind: KindDispatch, SpanID: span, Params: ref(p)})
	}
}

// Rollback records a reversion to the last-known-good parameter vector.
func (r *Recorder) Rollback(span uint64, p dcqcn.Params) {
	if r != nil {
		r.emit(Event{Kind: KindRollback, SpanID: span, Params: ref(p)})
	}
}

// Sample records one monitor interval's runtime metrics.
func (r *Recorder) Sample(span uint64, s loop.RuntimeSample) {
	if r != nil {
		r.emit(Event{Kind: KindSample, SpanID: span, OTP: ref(s.OTP), ORTT: ref(s.ORTT), OPFC: ref(s.OPFC)})
	}
}

// Trigger records a tuning trigger with the firing distribution.
func (r *Recorder) Trigger(span uint64, fsd loop.FSD) {
	if r != nil {
		r.emit(Event{Kind: KindTrigger, SpanID: span, ElephantShare: ref(fsd.ElephantFlowShare)})
	}
}

// Fault records an injected or detected fault against a target.
func (r *Recorder) Fault(span uint64, fault, target string) {
	if r != nil {
		r.emit(Event{Kind: KindFault, SpanID: span, Fault: fault, Target: target})
	}
}

// Recover records recovery from a fault.
func (r *Recorder) Recover(span uint64, fault, target string) {
	if r != nil {
		r.emit(Event{Kind: KindRecover, SpanID: span, Fault: fault, Target: target})
	}
}

// Note records a free-form annotation.
func (r *Recorder) Note(span uint64, format string, args ...any) {
	if r != nil {
		r.emit(Event{Kind: KindNote, SpanID: span, Note: fmt.Sprintf(format, args...)})
	}
}

// SpanStart opens a named span (parent 0 for a root span) and returns
// its ID, 0 on a nil recorder. The span's extent is the T distance
// between its span_start and span_end events.
func (r *Recorder) SpanStart(name string, parent uint64) uint64 {
	if r == nil {
		return 0
	}
	r.spanSeq++
	r.emit(Event{Kind: KindSpanStart, Span: name, SpanID: r.spanSeq, Parent: parent})
	return r.spanSeq
}

// SpanEnd closes a span opened with SpanStart; span 0 is no span.
func (r *Recorder) SpanEnd(span uint64) {
	if r != nil && span != 0 {
		r.emit(Event{Kind: KindSpanEnd, SpanID: span})
	}
}

// ref returns a pointer to a copy of v. Taking the address here rather
// than in the methods keeps a call on a nil recorder allocation-free.
func ref[T any](v T) *T { return &v }

func (r *Recorder) emit(e Event) {
	e.T = r.now()
	if cap(r.tail) > 0 {
		if len(r.tail) < cap(r.tail) {
			r.tail = append(r.tail, e)
		} else {
			r.tail[r.head] = e
			r.head = (r.head + 1) % len(r.tail)
			r.dropped++
		}
	}
	if r.enc == nil || r.Err != nil {
		return
	}
	if err := r.enc.Encode(&e); err != nil {
		r.Err = err
		return
	}
	r.Events++
}

// Flush drains buffered JSON Lines output; call before reading the
// destination.
func (r *Recorder) Flush() error {
	if r == nil || r.bw == nil {
		return nil
	}
	if r.Err != nil {
		return r.Err
	}
	return r.bw.Flush()
}

// Tail returns the kept events, oldest first, and how many older ones
// the tail dropped.
func (r *Recorder) Tail() ([]Event, int64) {
	if r == nil || len(r.tail) == 0 {
		return nil, 0
	}
	out := append([]Event{}, r.tail[r.head:]...)
	return append(out, r.tail[:r.head]...), r.dropped
}

// Read parses a JSON Lines event stream back into memory.
func Read(rd io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(rd)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: record %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// Span is one reconstructed span: its extent plus the events linked
// into it.
type Span struct {
	ID     uint64
	Name   string
	Parent uint64
	// StartT / EndT are the span's extent; EndT is -1 for a span never
	// closed (e.g. a session still running at trace end).
	StartT, EndT int64
	// Events are the non-span events carrying this span's ID, in order.
	Events []Event
}

// Spans reconstructs spans from an event stream, in start order.
func Spans(events []Event) []Span {
	byID := map[uint64]*Span{}
	var order []uint64
	for _, e := range events {
		switch e.Kind {
		case KindSpanStart:
			byID[e.SpanID] = &Span{ID: e.SpanID, Name: e.Span, Parent: e.Parent, StartT: e.T, EndT: -1}
			order = append(order, e.SpanID)
		case KindSpanEnd:
			if s, ok := byID[e.SpanID]; ok {
				s.EndT = e.T
			}
		default:
			if s, ok := byID[e.SpanID]; ok && e.SpanID != 0 {
				s.Events = append(s.Events, e)
			}
		}
	}
	out := make([]Span, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// Filter returns the events of one kind.
func Filter(events []Event, kind string) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
