package chaos

import (
	"fmt"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/topology"
)

// countingSource is a scriptable inner ReportSource.
type countingSource struct {
	calls int
	rep   loop.Report
}

func (c *countingSource) EndInterval() loop.Report {
	c.calls++
	return c.rep
}

func elephantReport(bytes float64) loop.Report {
	var r loop.Report
	r.Hist[5] = bytes
	r.ElephantBytes = bytes
	r.ElephantFlowsW = 1
	r.Flows = 1
	return r
}

func TestFlakySourceCrashRestartLosesState(t *testing.T) {
	inner := &countingSource{rep: elephantReport(1e6)}
	f := NewFlakySource(inner)
	if !f.Alive() {
		t.Fatal("fresh source not alive")
	}
	if got := f.EndInterval(); got.Flows != 1 {
		t.Fatalf("passthrough report: %+v", got)
	}
	f.Crash()
	if f.Alive() {
		t.Fatal("alive after crash")
	}
	f.Crash() // idempotent
	if f.Crashes != 1 {
		t.Errorf("Crashes=%d, want 1", f.Crashes)
	}
	if got := f.EndInterval(); got.Flows != 0 {
		t.Errorf("dead source returned data: %+v", got)
	}
	callsBefore := inner.calls
	f.Restart()
	if !f.Alive() {
		t.Fatal("not alive after restart")
	}
	// Restart must drain-and-discard the inner interval (sketch loss).
	if inner.calls != callsBefore+1 {
		t.Errorf("restart did not drain inner state (calls=%d, want %d)", inner.calls, callsBefore+1)
	}
}

func TestFlakySourceStallServesStaleReports(t *testing.T) {
	inner := &countingSource{rep: elephantReport(1e6)}
	f := NewFlakySource(inner)
	first := f.EndInterval()

	inner.rep = elephantReport(9e6) // fresh data the stall must hide
	f.Stall(2)
	for i := 0; i < 2; i++ {
		got := f.EndInterval()
		if got != first {
			t.Fatalf("stalled interval %d returned fresh data", i)
		}
	}
	if f.StaleServed != 2 {
		t.Errorf("StaleServed=%d, want 2", f.StaleServed)
	}
	if got := f.EndInterval(); got.ElephantBytes != 9e6 {
		t.Errorf("post-stall report stale: %+v", got)
	}
}

func quickNet(t *testing.T) *sim.Network {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: 2, NumLeaf: 1, HostsPerToR: 2,
		HostLinkBps: 10e9, FabricLinkBps: 10e9,
		PropDelay: eventsim.Microsecond,
	}
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInjectorValidation(t *testing.T) {
	n := quickNet(t)
	inj := NewInjector(n, nil, nil)

	if err := inj.Install(Scenario{Links: []LinkFault{{A: 0, B: 1, DownFor: 1}}}); err == nil {
		t.Error("nonexistent link accepted")
	}
	tor := n.Topo.ToRs()[0]
	host := n.Topo.Hosts()[0]
	if err := inj.Install(Scenario{Links: []LinkFault{{A: host, B: tor}}}); err == nil {
		t.Error("zero DownFor accepted")
	}
	if err := inj.Install(Scenario{Agents: []AgentFault{{Agent: 0, CrashAt: 1}}}); err == nil {
		t.Error("agent fault with no sources accepted")
	}
	if err := inj.Install(Scenario{Links: []LinkFault{{A: host, B: tor, At: 1, DownFor: 10}}}); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

// recordingSink captures injected events in order.
type recordingSink struct {
	events []string
}

func (s *recordingSink) Fault(fault, target string) {
	s.events = append(s.events, "F:"+fault+":"+target)
}
func (s *recordingSink) Recover(fault, target string) {
	s.events = append(s.events, "R:"+fault+":"+target)
}

func TestInjectorLinkFlapSchedule(t *testing.T) {
	n := quickNet(t)
	sink := &recordingSink{}
	inj := NewInjector(n, nil, sink)
	host, tor := n.Topo.Hosts()[0], n.Topo.ToRs()[0]
	err := inj.Install(Scenario{
		Seed: 7,
		Links: []LinkFault{{
			A: host, B: tor,
			At:      eventsim.Millisecond,
			DownFor: eventsim.Millisecond,
			Flaps:   3,
			Every:   3 * eventsim.Millisecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(20 * eventsim.Millisecond)
	var downs, ups int
	for _, e := range sink.events {
		switch e[0] {
		case 'F':
			downs++
		case 'R':
			ups++
		}
	}
	if downs != 3 || ups != 3 {
		t.Fatalf("saw %d downs / %d ups, want 3/3 (events: %v)", downs, ups, sink.events)
	}
}

func TestInjectorScheduleDeterministic(t *testing.T) {
	run := func() []string {
		n := quickNet(t)
		sink := &recordingSink{}
		inj := NewInjector(n, nil, sink)
		host, tor := n.Topo.Hosts()[0], n.Topo.ToRs()[0]
		if err := inj.Install(Scenario{
			Seed: 42,
			Links: []LinkFault{{
				A: host, B: tor,
				At: eventsim.Millisecond, DownFor: eventsim.Millisecond,
				Flaps: 5, Every: 2 * eventsim.Millisecond,
			}},
		}); err != nil {
			t.Fatal(err)
		}
		n.Run(30 * eventsim.Millisecond)
		return sink.events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// fakeDispatch records the faults and phase hooks the injector arms.
type fakeDispatch struct {
	acks  []string
	hooks map[string][]func()
}

func (f *fakeDispatch) FaultAcks(device, drop int, delay eventsim.Time) {
	f.acks = append(f.acks, fmt.Sprintf("dev%d drop=%d delay=%d", device, drop, delay))
}

func (f *fakeDispatch) OnPhaseEnter(phase string, fn func()) {
	if f.hooks == nil {
		f.hooks = map[string][]func(){}
	}
	f.hooks[phase] = append(f.hooks[phase], fn)
}

func TestInjectorDispatchValidation(t *testing.T) {
	n := quickNet(t)
	inj := NewInjector(n, nil, nil)
	if err := inj.Install(Scenario{Dispatch: []DispatchFault{{DropAcks: 1}}}); err == nil {
		t.Error("dispatch fault without BindDispatch accepted")
	}
	inj.BindDispatch(&fakeDispatch{}, nil)
	if err := inj.Install(Scenario{Dispatch: []DispatchFault{{Device: 0}}}); err == nil {
		t.Error("no-op dispatch fault accepted")
	}
	if err := inj.Install(Scenario{Dispatch: []DispatchFault{{KillAtPhase: "settle"}}}); err == nil {
		t.Error("KillAtPhase without a kill hook accepted")
	}
}

func TestInjectorDispatchFaults(t *testing.T) {
	n := quickNet(t)
	sink := &recordingSink{}
	inj := NewInjector(n, nil, sink)
	fd := &fakeDispatch{}
	kills := 0
	inj.BindDispatch(fd, func() { kills++ })
	err := inj.Install(Scenario{
		Seed: 1,
		Dispatch: []DispatchFault{
			{Device: 1, DropAcks: 2}, // arms at install
			{Device: 0, DelayAck: eventsim.Millisecond, At: 5 * eventsim.Millisecond},
			{KillAtPhase: "settle"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.acks) != 1 || fd.acks[0] != "dev1 drop=2 delay=0" {
		t.Fatalf("install-time ACK fault wrong: %v", fd.acks)
	}
	n.Run(10 * eventsim.Millisecond)
	if len(fd.acks) != 2 || fd.acks[1] != "dev0 drop=0 delay=1000000" {
		t.Fatalf("scheduled ACK fault wrong: %v", fd.acks)
	}
	hooks := fd.hooks["settle"]
	if len(hooks) != 1 {
		t.Fatalf("settle hooks = %d, want 1", len(hooks))
	}
	// The kill hook fires once, even if the pipeline re-enters the phase.
	hooks[0]()
	hooks[0]()
	if kills != 1 {
		t.Errorf("kill hook fired %d times, want 1", kills)
	}
	want := []string{
		"F:dispatch_ack:device 1",
		"F:dispatch_ack:device 0",
		"F:controller_kill:phase settle",
	}
	if fmt.Sprint(sink.events) != fmt.Sprint(want) {
		t.Errorf("sink events %v, want %v", sink.events, want)
	}
}
