package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/eventsim"
)

// --- Incast ---

func TestIncastWaves(t *testing.T) {
	n := newNet(t)
	hosts := n.Topo.Hosts()
	g, err := InstallIncast(n, IncastConfig{
		Aggregator:   hosts[0],
		FanIn:        4,
		MessageBytes: 256 << 10,
		Repeat:       3,
		Gap:          eventsim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle(2 * eventsim.Second)
	if g.WavesDone() != 3 {
		t.Fatalf("WavesDone = %d, want 3", g.WavesDone())
	}
	if len(g.FlowIDs) != 12 {
		t.Errorf("launched %d flows, want 12 (4 senders × 3 waves)", len(g.FlowIDs))
	}
	for w, d := range g.WaveDurations {
		if d <= 0 {
			t.Errorf("wave %d duration %v", w, d)
		}
	}
	// All flows land on the aggregator.
	for _, rec := range n.Completed {
		if rec.Dst != hosts[0] {
			t.Errorf("flow %d went to %d, want aggregator", rec.ID, rec.Dst)
		}
	}
}

func TestIncastDefaultsToAllSenders(t *testing.T) {
	n := newNet(t)
	hosts := n.Topo.Hosts()
	g, err := InstallIncast(n, IncastConfig{
		Aggregator:   hosts[0],
		MessageBytes: 64 << 10,
		Repeat:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle(eventsim.Second)
	if len(g.FlowIDs) != len(hosts)-1 {
		t.Errorf("launched %d flows, want %d", len(g.FlowIDs), len(hosts)-1)
	}
}

func TestIncastRejectsBadConfig(t *testing.T) {
	n := newNet(t)
	hosts := n.Topo.Hosts()
	if _, err := InstallIncast(n, IncastConfig{
		Aggregator: hosts[0], Senders: hosts[:0], MessageBytes: 1,
	}); err == nil {
		t.Error("empty sender list accepted")
	}
	if _, err := InstallIncast(n, IncastConfig{
		Aggregator: hosts[0], Senders: hosts[:1], MessageBytes: 1,
	}); err == nil {
		t.Error("aggregator-as-sender accepted")
	}
	if _, err := InstallIncast(n, IncastConfig{
		Aggregator: hosts[0], Senders: hosts[1:2], MessageBytes: 0,
	}); err == nil {
		t.Error("zero message accepted")
	}
}

// --- Trace record/replay ---

func TestTraceRoundTrip(t *testing.T) {
	flows := []TraceFlow{
		{StartNs: 3000, SrcIndex: 1, DstIndex: 2, Bytes: 5000},
		{StartNs: 1000, SrcIndex: 0, DstIndex: 3, Bytes: 1 << 20},
	}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, flows); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d flows", len(got))
	}
	// Saved sorted by start.
	if got[0].StartNs != 1000 || got[1].StartNs != 3000 {
		t.Errorf("not sorted: %+v", got)
	}
	if got[0].Bytes != 1<<20 || got[1].SrcIndex != 1 {
		t.Errorf("fields lost: %+v", got)
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"a,b,c,d\n1,0,1,100\n",                 // bad header
		"start_ns,src,dst,bytes\nx,0,1,100\n",  // bad int
		"start_ns,src,dst,bytes\n1,0,0,100\n",  // src == dst
		"start_ns,src,dst,bytes\n1,0,1,0\n",    // zero bytes
		"start_ns,src,dst,bytes\n-5,0,1,100\n", // negative time
		"start_ns,src,dst,bytes\n1,0,1\n",      // wrong arity
	}
	for i, c := range cases {
		if _, err := LoadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRecordAndReplay(t *testing.T) {
	// Run a workload, record it, replay it on a fresh fabric: the same
	// flows (sizes, endpoints, relative starts) must appear.
	n1 := newNet(t)
	if _, err := InstallPoisson(n1, PoissonConfig{
		CDF: SolarRPC(), Load: 0.2, Duration: 5 * eventsim.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	n1.RunUntilIdle(eventsim.Second)
	if len(n1.Completed) == 0 {
		t.Fatal("no flows to record")
	}
	tr := RecordTrace(n1, n1.Completed)

	var buf bytes.Buffer
	if err := SaveTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	n2 := newNet(t)
	if err := InstallReplay(n2, loaded, eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}
	n2.RunUntilIdle(eventsim.Second)
	if len(n2.Completed) != len(n1.Completed) {
		t.Fatalf("replay completed %d flows, original %d", len(n2.Completed), len(n1.Completed))
	}
	// Total bytes identical.
	var b1, b2 int64
	for _, r := range n1.Completed {
		b1 += r.Size
	}
	for _, r := range n2.Completed {
		b2 += r.Size
	}
	if b1 != b2 {
		t.Errorf("replay moved %d bytes, original %d", b2, b1)
	}
}

func TestReplayRejectsOversizedTrace(t *testing.T) {
	n := newNet(t)
	err := InstallReplay(n, []TraceFlow{{SrcIndex: 0, DstIndex: 99, Bytes: 1}}, 0)
	if err == nil {
		t.Error("trace with host 99 accepted on an 8-host fabric")
	}
	if err := InstallReplay(n, nil, 0); err == nil {
		t.Error("empty trace accepted")
	}
}
