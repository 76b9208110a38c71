// Package trace records simulation events as JSON Lines for offline
// analysis: flow starts and completions, parameter dispatches, monitor
// samples, and PFC activity. A production operator's first question when
// a tuner misbehaves is "what exactly did it do, when?" — this is that
// audit log.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Event kinds.
const (
	KindFlowStart    = "flow_start"
	KindFlowComplete = "flow_complete"
	KindDispatch     = "dispatch"
	KindSample       = "sample"
	KindTrigger      = "trigger"
	KindNote         = "note"
	// KindFault / KindRecover bracket injected faults and the system's
	// recovery from them (internal/chaos and the controller's
	// degradation logic emit these); KindRollback records a reversion to
	// the last-known-good parameter vector.
	KindFault    = "fault"
	KindRecover  = "recover"
	KindRollback = "rollback"
	// KindSpanStart / KindSpanEnd bracket a control-loop span (e.g. one
	// SA tuning session) in virtual time. Events produced inside the
	// span carry its SpanID, linking a trigger through its search to the
	// resulting dispatches.
	KindSpanStart = "span_start"
	KindSpanEnd   = "span_end"
)

// Event is one recorded occurrence. Unused fields are omitted from the
// encoding.
type Event struct {
	// T is virtual time in nanoseconds.
	T    int64  `json:"t"`
	Kind string `json:"kind"`

	FlowID *uint64 `json:"flow,omitempty"`
	Src    *int    `json:"src,omitempty"`
	Dst    *int    `json:"dst,omitempty"`
	Size   *int64  `json:"size,omitempty"`
	FCTNs  *int64  `json:"fct_ns,omitempty"`

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

// Recorder streams events to a writer as JSON Lines. It is not safe for
// concurrent use; the simulation is single-threaded.
type Recorder struct {
	eng *eventsim.Engine
	bw  *bufio.Writer
	enc *json.Encoder

	// Events counts records written; Err holds the first write error
	// (subsequent writes are dropped).
	Events int
	Err    error

	// spanSeq hands out span IDs; purely sequential, so a fixed event
	// order yields a byte-identical trace.
	spanSeq uint64
}

// NewRecorder builds a recorder stamping events with eng's clock.
func NewRecorder(eng *eventsim.Engine, w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{eng: eng, bw: bw, enc: json.NewEncoder(bw)}
}

// AttachNetwork subscribes to n's flow lifecycle.
func (r *Recorder) AttachNetwork(n *sim.Network) {
	n.AddFlowStartHook(func(id uint64, src, dst topology.NodeID, size int64) {
		s, d := int(src), int(dst)
		r.emit(Event{Kind: KindFlowStart, FlowID: &id, Src: &s, Dst: &d, Size: &size})
	})
	n.AddFlowCompleteHook(func(rec sim.FlowRecord) {
		s, d := int(rec.Src), int(rec.Dst)
		size := rec.Size
		fct := int64(rec.FCT())
		id := rec.ID
		r.emit(Event{Kind: KindFlowComplete, FlowID: &id, Src: &s, Dst: &d, Size: &size, FCTNs: &fct})
	})
}

// Dispatch records a parameter update pushed to the fabric.
func (r *Recorder) Dispatch(p dcqcn.Params) {
	r.emit(Event{Kind: KindDispatch, Params: &p})
}

// Sample records one monitor interval's runtime metrics.
func (r *Recorder) Sample(s loop.RuntimeSample) {
	otp, ortt, opfc := s.OTP, s.ORTT, s.OPFC
	r.emit(Event{Kind: KindSample, OTP: &otp, ORTT: &ortt, OPFC: &opfc})
}

// Trigger records a tuning trigger with the firing distribution.
func (r *Recorder) Trigger(fsd loop.FSD) {
	share := fsd.ElephantFlowShare
	r.emit(Event{Kind: KindTrigger, ElephantShare: &share})
}

// Fault records an injected or detected fault against a target; it
// implements half of chaos.Sink.
func (r *Recorder) Fault(fault, target string) {
	r.emit(Event{Kind: KindFault, Fault: fault, Target: target})
}

// Recover records recovery from a fault; the other half of chaos.Sink.
func (r *Recorder) Recover(fault, target string) {
	r.emit(Event{Kind: KindRecover, Fault: fault, Target: target})
}

// Rollback records a reversion to the last-known-good parameter vector.
func (r *Recorder) Rollback(p dcqcn.Params) {
	r.emit(Event{Kind: KindRollback, Params: &p})
}

// SpanStart opens a named span (parent 0 for a root span) and returns
// its ID. The span is measured in virtual time: its extent is the T
// distance between the span_start and span_end events.
func (r *Recorder) SpanStart(name string, parent uint64) uint64 {
	r.spanSeq++
	id := r.spanSeq
	r.emit(Event{Kind: KindSpanStart, Span: name, SpanID: id, Parent: parent})
	return id
}

// SpanEnd closes a span opened with SpanStart.
func (r *Recorder) SpanEnd(id uint64) {
	r.emit(Event{Kind: KindSpanEnd, SpanID: id})
}

// TriggerIn records a tuning trigger linked into a span.
func (r *Recorder) TriggerIn(span uint64, fsd loop.FSD) {
	share := fsd.ElephantFlowShare
	r.emit(Event{Kind: KindTrigger, SpanID: span, ElephantShare: &share})
}

// DispatchIn records a parameter dispatch linked into a span.
func (r *Recorder) DispatchIn(span uint64, p dcqcn.Params) {
	r.emit(Event{Kind: KindDispatch, SpanID: span, Params: &p})
}

// RollbackIn records a last-known-good reversion linked into a span
// (span 0 when no session was active).
func (r *Recorder) RollbackIn(span uint64, p dcqcn.Params) {
	r.emit(Event{Kind: KindRollback, SpanID: span, Params: &p})
}

// Note records a free-form annotation.
func (r *Recorder) Note(format string, args ...any) {
	r.emit(Event{Kind: KindNote, Note: fmt.Sprintf(format, args...)})
}

func (r *Recorder) emit(e Event) {
	if r.Err != nil {
		return
	}
	e.T = int64(r.eng.Now())
	if err := r.enc.Encode(&e); err != nil {
		r.Err = err
		return
	}
	r.Events++
}

// Flush drains buffered output; call before reading the destination.
func (r *Recorder) Flush() error {
	if r.Err != nil {
		return r.Err
	}
	return r.bw.Flush()
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

// Span is one reconstructed span: its extent in virtual time plus the
// events linked into it.
type Span struct {
	ID     uint64
	Name   string
	Parent uint64
	// StartT / EndT are the span's virtual-time extent; EndT is -1 for a
	// span never closed (e.g. a session still running at trace end).
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
