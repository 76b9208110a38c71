package core

import (
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// checkedWAL journals to a MemWAL and hands check each record as it is
// appended.
type checkedWAL struct {
	dispatch.MemWAL
	check func(r dispatch.Record)
}

func (w *checkedWAL) Append(r dispatch.Record) error {
	w.check(r)
	return w.MemWAL.Append(r)
}

// TestSystemDispatchPipeline runs the closed loop: every dispatch is one
// commit record under the next epoch, journaled while every device still
// runs an older one, and the run ends with the whole fabric on one epoch
// running the live vector.
func TestSystemDispatchPipeline(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSystem()
	cfg.Telemetry = telemetry.NewRegistry()
	var s *System
	var last uint64
	wal := &checkedWAL{check: func(r dispatch.Record) {
		if r.Kind != dispatch.KindCommit || r.Params == nil || r.Epoch != last+1 {
			t.Errorf("record %+v follows epoch %d, want the commit of epoch %d", r, last, last+1)
		}
		last = r.Epoch
		for i, d := range s.Dispatch.Fabric().Devices {
			if d.Epoch >= r.Epoch {
				t.Errorf("device %d saw epoch %d before it was journaled", i, r.Epoch)
			}
		}
	}}
	cfg.Dispatch = dispatch.Config{WAL: wal}
	if s, err = Attach(n, cfg); err != nil {
		t.Fatal(err)
	}
	s.Start()
	hosts := n.Topo.Hosts()
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 256<<20)
	}
	n.Run(40 * eventsim.Millisecond)
	s.Stop()

	d := s.Dispatch
	if s.Dispatches == 0 {
		t.Fatal("no dispatches went through the pipeline")
	}
	if d.Commits != s.Dispatches || d.Epoch() != uint64(d.Commits) || wal.Len() != d.Commits {
		t.Errorf("%d dispatches, %d commits, epoch %d, %d records; want all equal", s.Dispatches, d.Commits, d.Epoch(), wal.Len())
	}
	if !d.Fabric().Converged() {
		t.Errorf("fabric on more than one epoch: %v", d.Fabric().Epochs())
	}
	for _, tor := range n.Topo.ToRs() {
		if *n.SwitchParams(tor) != d.Live() {
			t.Errorf("ToR %d params differ from the live vector", tor)
		}
	}
	if *n.RNICParams() != d.Live() {
		t.Error("hosts do not run the live vector")
	}
}

// TestExploreAfterCommitReachesEveryHost: each dispatch reaches every
// host, a restore included. No dispatch leaves a per-host override
// behind that would pin a host to an older vector.
func TestExploreAfterCommitReachesEveryHost(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSystem()
	cfg.Telemetry = telemetry.NewRegistry()
	s, err := Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Dispatch
	first := *n.RNICParams()
	first.KminBytes += 4 << 10
	second := first
	second.KminBytes += 4 << 10
	check := func(what string, want dcqcn.Params) {
		t.Helper()
		for _, hn := range n.Topo.Hosts() {
			got := *n.RNICParams()
			if ov := n.Host(hn).Override(); ov != nil {
				got = *ov
			}
			if got != want {
				t.Fatalf("after %s, host %d runs KminBytes %d, want %d", what, hn, got.KminBytes, want.KminBytes)
			}
		}
	}
	for _, v := range []dcqcn.Params{first, second} {
		if ok, r := d.Submit(v, n.Eng.Now()); !ok {
			t.Fatalf("dispatch refused: %v", r)
		}
		check("a dispatch", v)
	}
	d.Restore(first, n.Eng.Now())
	check("a restore", first)
}
