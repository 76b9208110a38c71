package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/loop"
)

// clock is a settable time source for recorders under test.
type clock struct{ t int64 }

func (c *clock) now() int64 { return c.t }

// TestRecorderOtherKinds records one event of each kind with both sinks
// on: the JSONL reads back field for field, and the tail holds the same
// stream.
func TestRecorderOtherKinds(t *testing.T) {
	var c clock
	var buf bytes.Buffer
	r := New(c.now, &buf, true)
	p := dcqcn.ExpertParams()
	r.Dispatch(0, p)
	c.t = 5
	r.Sample(0, loop.RuntimeSample{OTP: 0.5, ORTT: 0.9, OPFC: 1})
	span := r.SpanStart("sa_session", 0)
	r.Trigger(span, loop.FSD{ElephantFlowShare: 0.7})
	r.Note(0, "burst started at %d", 42)
	r.SpanEnd(span)
	r.Rollback(0, p)
	r.Fault(0, "link_down", "link 2-6")
	r.Recover(0, "link_down", "link 2-6")
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 9 || r.Events != 9 {
		t.Fatalf("%d events, want 9", len(events))
	}
	if events[0].Params == nil || events[0].Params.KminBytes != p.KminBytes || events[0].T != 0 {
		t.Error("dispatch params lost")
	}
	if *events[1].OTP != 0.5 || *events[1].ORTT != 0.9 || events[1].T != 5 {
		t.Error("sample fields lost")
	}
	if *events[3].ElephantShare != 0.7 || events[3].SpanID != span {
		t.Error("trigger share or span lost")
	}
	if events[4].Note != "burst started at 42" {
		t.Errorf("note %q", events[4].Note)
	}
	if events[6].Params == nil || events[7].Fault != "link_down" || events[8].Kind != KindRecover {
		t.Errorf("rollback/fault/recover lost: %+v", events[6:])
	}
	spans := Spans(events)
	if len(spans) != 1 || spans[0].EndT != 5 || len(spans[0].Events) != 1 {
		t.Errorf("spans %+v", spans)
	}
	if tail, dropped := r.Tail(); dropped != 0 || !reflect.DeepEqual(tail, events) {
		t.Errorf("tail %+v (dropped %d) is not the JSONL stream", tail, dropped)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"t\":1}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, &writeErr{} }

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestRecorderStopsAfterWriteError(t *testing.T) {
	var c clock
	r := New(c.now, failingWriter{}, false)
	// Overflow the bufio buffer to force the underlying error.
	for i := 0; i < 5000; i++ {
		r.Note(0, "padding padding padding padding padding")
	}
	if r.Err == nil {
		t.Fatal("write error never surfaced")
	}
	if err := r.Flush(); err == nil {
		t.Error("Flush did not report the error")
	}
}

func TestFilterEmpty(t *testing.T) {
	if got := Filter(nil, KindNote); got != nil {
		t.Errorf("Filter(nil) = %v", got)
	}
}

// TestTailDropsOldest fills the tail past TailLen: it keeps the newest
// events in order and counts what it lost.
func TestTailDropsOldest(t *testing.T) {
	var c clock
	r := New(c.now, nil, true)
	for i := 0; i < 300; i++ {
		c.t = int64(i)
		r.Dispatch(0, dcqcn.DefaultParams())
	}
	events, dropped := r.Tail()
	if len(events) != TailLen {
		t.Fatalf("tail holds %d events, want %d", len(events), TailLen)
	}
	if dropped != 300-TailLen {
		t.Fatalf("dropped=%d, want %d", dropped, 300-TailLen)
	}
	if events[0].T != 300-TailLen || events[TailLen-1].T != 299 {
		t.Fatalf("tail window [%d, %d], want [%d, 299]", events[0].T, events[TailLen-1].T, 300-TailLen)
	}
	if r.Events != 0 {
		t.Errorf("a tail-only recorder counted %d written records", r.Events)
	}
}

// TestNilRecorder: every method on a nil recorder is a no-op, and the
// ones producers call per dispatch or sample allocate nothing.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	p := dcqcn.DefaultParams()
	allocs := testing.AllocsPerRun(100, func() {
		span := r.SpanStart("sa_session", 0)
		r.Trigger(span, loop.FSD{})
		r.Dispatch(span, p)
		r.Rollback(span, p)
		r.Sample(0, loop.RuntimeSample{})
		r.Fault(0, "link_down", "x")
		r.Recover(0, "link_down", "x")
		r.SpanEnd(span)
	})
	if allocs != 0 {
		t.Errorf("nil recorder allocates %g/op, want 0", allocs)
	}
	r.Note(0, "ignored %d", 1)
	if err := r.Flush(); err != nil {
		t.Error(err)
	}
	if events, dropped := r.Tail(); events != nil || dropped != 0 {
		t.Errorf("nil recorder tail %v, %d", events, dropped)
	}
}
