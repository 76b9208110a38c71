package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/sim"
)

func TestRecorderFlowLifecycle(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := NewRecorder(n.Eng, &buf)
	r.AttachNetwork(n)
	hosts := n.Topo.Hosts()
	n.StartFlow(hosts[0], hosts[1], 100<<10)
	n.StartFlow(hosts[2], hosts[3], 50<<10)
	n.RunUntilIdle(eventsim.Second)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	starts := Filter(events, KindFlowStart)
	completes := Filter(events, KindFlowComplete)
	if len(starts) != 2 || len(completes) != 2 {
		t.Fatalf("starts=%d completes=%d, want 2/2", len(starts), len(completes))
	}
	if *starts[0].Size != 100<<10 || *starts[0].Src != int(hosts[0]) {
		t.Errorf("first start event wrong: %+v", starts[0])
	}
	for _, c := range completes {
		if c.FCTNs == nil || *c.FCTNs <= 0 {
			t.Errorf("completion without FCT: %+v", c)
		}
		if c.T <= 0 {
			t.Errorf("unstamped event: %+v", c)
		}
	}
	// Timestamps nondecreasing.
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("event %d out of order", i)
		}
	}
}

func TestRecorderOtherKinds(t *testing.T) {
	eng := eventsim.NewEngine(1)
	var buf bytes.Buffer
	r := NewRecorder(eng, &buf)
	p := dcqcn.ExpertParams()
	r.Dispatch(p)
	r.Sample(loop.RuntimeSample{OTP: 0.5, ORTT: 0.9, OPFC: 1})
	r.Trigger(loop.FSD{ElephantFlowShare: 0.7})
	r.Note("burst started at %d", 42)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 || r.Events != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	if events[0].Params == nil || events[0].Params.KminBytes != p.KminBytes {
		t.Error("dispatch params lost")
	}
	if *events[1].OTP != 0.5 || *events[1].ORTT != 0.9 {
		t.Error("sample fields lost")
	}
	if *events[2].ElephantShare != 0.7 {
		t.Error("trigger share lost")
	}
	if events[3].Note != "burst started at 42" {
		t.Errorf("note %q", events[3].Note)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"t\":1}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	return 0, &writeErr{}
}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestRecorderStopsAfterWriteError(t *testing.T) {
	eng := eventsim.NewEngine(1)
	r := NewRecorder(eng, &failingWriter{})
	// Overflow the bufio buffer to force the underlying error.
	for i := 0; i < 5000; i++ {
		r.Note("padding padding padding padding padding")
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
