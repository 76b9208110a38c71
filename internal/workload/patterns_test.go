package workload

import (
	"testing"

	"repro/internal/eventsim"
)

// --- Incast ---

func TestIncastWaves(t *testing.T) {
	n := newNet(t)
	hosts := n.Topo.Hosts()
	_, err := InstallIncast(n, IncastConfig{
		Aggregator:   hosts[0],
		FanIn:        4,
		MessageBytes: 256 << 10,
		Gap:          eventsim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(10 * eventsim.Millisecond)
	// Every flow lands on the aggregator, and a wave is four of them.
	for _, rec := range n.Completed {
		if rec.Dst != hosts[0] {
			t.Errorf("flow %d went to %d, want aggregator", rec.ID, rec.Dst)
		}
		if rec.End <= rec.Start {
			t.Errorf("flow %d took %v", rec.ID, rec.End-rec.Start)
		}
	}
	waves := len(n.Completed) / 4
	if waves < 3 {
		t.Fatalf("%d waves completed in 10 ms, want >= 3", waves)
	}
	// A wave starts only once the previous one has landed, so at most
	// one is in flight.
	if f := len(n.Completed) + n.IncompleteFlows(); f != 4*waves && f != 4*(waves+1) {
		t.Errorf("launched %d flows after %d waves of 4 senders", f, waves)
	}
}

func TestIncastDefaultsToAllSenders(t *testing.T) {
	n := newNet(t)
	hosts := n.Topo.Hosts()
	_, err := InstallIncast(n, IncastConfig{
		Aggregator:   hosts[0],
		MessageBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first wave starts at time 0 and is still in flight.
	n.Run(eventsim.Microsecond)
	if f := n.IncompleteFlows(); f != len(hosts)-1 {
		t.Errorf("launched %d flows, want %d", f, len(hosts)-1)
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
	index := map[int]int{}
	for i, h := range n1.Topo.Hosts() {
		index[int(h)] = i
	}
	var tr []TraceFlow
	for _, r := range n1.Completed {
		tr = append(tr, TraceFlow{StartNs: int64(r.Start), SrcIndex: index[int(r.Src)], DstIndex: index[int(r.Dst)], Bytes: r.Size})
	}

	n2 := newNet(t)
	if err := InstallReplay(n2, tr, eventsim.Millisecond); err != nil {
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
