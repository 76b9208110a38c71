package dispatch

import (
	"errors"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/telemetry"
)

// testRig is a pipeline over a recording apply callback.
type testRig struct {
	eng    *eventsim.Engine
	fab    *Fabric
	pipe   *Pipeline
	pushes []push
}

type push struct {
	devs []int
	vec  dcqcn.Params
}

func newRig(t *testing.T, cfg Config, n int) *testRig {
	t.Helper()
	rig := &testRig{eng: eventsim.NewEngine(1), fab: cfg.Fabric}
	if rig.fab == nil {
		rig.fab = NewFabric(n)
	}
	rig.pipe = New(cfg, rig.eng, rig.fab, func(devs []int, p dcqcn.Params) {
		cp := append([]int(nil), devs...)
		rig.pushes = append(rig.pushes, push{cp, p})
	}, telemetry.NewRegistry())
	if err := rig.pipe.Resume(dcqcn.DefaultParams(), rig.eng.Now()); err != nil {
		t.Fatal(err)
	}
	return rig
}

func target() dcqcn.Params {
	p := dcqcn.DefaultParams()
	p.KminBytes = 800 << 10
	p.KmaxBytes = 3200 << 10
	return p
}

func TestPipelineCanaryPromoteCommit(t *testing.T) {
	rig := newRig(t, Config{Canary: 1, SettleIntervals: 2}, 4)
	p := rig.pipe
	tgt := target()

	ok, r := p.SubmitFinal(tgt, 50, rig.eng.Now())
	if !ok {
		t.Fatalf("SubmitFinal rejected: %v", r)
	}
	if p.Phase() != PhaseCanary {
		t.Fatalf("phase = %v, want canary", p.Phase())
	}
	rig.eng.Run() // deliver canary ACKs
	if p.Phase() != PhaseSettle {
		t.Fatalf("phase = %v after ACKs, want settle", p.Phase())
	}
	// Only the canary runs the target so far.
	if rig.fab.Devices[0].Params != tgt {
		t.Fatal("canary device does not run the target")
	}
	if rig.fab.Devices[3].Params == tgt {
		t.Fatal("non-canary device updated before promote")
	}

	healthy := Health{Utility: 50, PauseFrac: 0.01}
	p.Tick(healthy, rig.eng.Now())
	if p.Phase() != PhaseSettle {
		t.Fatalf("settle ended one interval early")
	}
	p.Tick(healthy, rig.eng.Now())
	if p.Phase() != PhasePromote {
		t.Fatalf("phase = %v after settle window, want promote", p.Phase())
	}
	rig.eng.Run() // deliver fabric-wide ACKs
	if p.Phase() != PhaseIdle {
		t.Fatalf("phase = %v after promote ACKs, want idle", p.Phase())
	}
	if p.Commits != 1 {
		t.Fatalf("commits = %d, want 1", p.Commits)
	}
	if got, ok := p.Committed(); !ok || got != tgt {
		t.Fatalf("committed = %+v ok=%v", got, ok)
	}
	if !rig.fab.Converged() {
		t.Fatal("fabric did not converge after commit")
	}
	for i, d := range rig.fab.Devices {
		if d.Params != tgt {
			t.Fatalf("device %d runs %+v, want target", i, d.Params)
		}
	}
}

func TestPipelineHealthAbortRestoresCanaries(t *testing.T) {
	rig := newRig(t, Config{Canary: 2, SettleIntervals: 3}, 4)
	p := rig.pipe
	prev := dcqcn.DefaultParams()
	tgt := target()

	if ok, _ := p.SubmitFinal(tgt, 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rig.eng.Run()
	if p.Phase() != PhaseSettle {
		t.Fatalf("phase = %v, want settle", p.Phase())
	}
	var aborted string
	p.OnAbort = func(restored dcqcn.Params, reason string) {
		if restored != prev {
			t.Fatalf("OnAbort restored %+v, want pre-plan vector", restored)
		}
		aborted = reason
	}
	p.Tick(Health{Utility: 50, PauseFrac: 0.9}, rig.eng.Now())
	if aborted != "health_pfc" {
		t.Fatalf("abort reason = %q, want health_pfc", aborted)
	}
	if p.Phase() != PhaseIdle || p.Aborts != 1 {
		t.Fatalf("phase=%v aborts=%d after health abort", p.Phase(), p.Aborts)
	}
	// Canaries were rolled back to the pre-plan vector under a fresh
	// epoch; devices the plan never reached never changed.
	for i := 0; i < 2; i++ {
		if d := rig.fab.Devices[i]; d.Params != prev {
			t.Fatalf("canary %d runs %+v after abort, want pre-plan vector", i, d.Params)
		}
	}
	for i := 2; i < 4; i++ {
		if d := rig.fab.Devices[i]; d.Applies != 0 {
			t.Fatalf("non-canary device %d saw %d applies during an aborted canary", i, d.Applies)
		}
	}
}

func TestPipelineAckRetryThenCommit(t *testing.T) {
	rig := newRig(t, Config{Canary: 1, SettleIntervals: 1}, 3)
	p := rig.pipe
	p.FaultAcks(0, 1, 0) // drop the canary's first ACK

	if ok, _ := p.SubmitFinal(target(), 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rig.eng.Run() // first wave dropped, deadline fires, retry wave ACKs
	if p.Phase() != PhaseSettle {
		t.Fatalf("phase = %v after retry wave, want settle", p.Phase())
	}
	if p.tm.AckRetries.Value() != 1 {
		t.Fatalf("ack retries = %d, want 1", p.tm.AckRetries.Value())
	}
}

func TestPipelineAckExhaustionAborts(t *testing.T) {
	rig := newRig(t, Config{Canary: 1}, 3)
	p := rig.pipe
	p.FaultAcks(0, 10, 0) // drop every canary ACK

	if ok, _ := p.SubmitFinal(target(), 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rig.eng.Run()
	if p.Phase() != PhaseIdle || p.Aborts != 1 {
		t.Fatalf("phase=%v aborts=%d, want idle/1 after ACK exhaustion", p.Phase(), p.Aborts)
	}
	if rig.fab.Devices[0].Params != dcqcn.DefaultParams() {
		t.Fatal("canary not restored after ACK exhaustion")
	}
}

// TestPipelineCrashRecovery is the tentpole protocol property in
// miniature: kill the controller between canary-apply and promote,
// hand its WAL and fabric to a fresh incarnation, and the fabric must
// converge to exactly one committed epoch.
func TestPipelineCrashRecovery(t *testing.T) {
	wal := &MemWAL{}
	fab := NewFabric(4)
	initial := dcqcn.DefaultParams()
	cfg := Config{Canary: 1, SettleIntervals: 5, WAL: wal, Fabric: fab}

	rigA := newRig(t, cfg, 4)
	tgt := target()
	if ok, _ := rigA.pipe.SubmitFinal(tgt, 50, rigA.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rigA.eng.Run()
	if rigA.pipe.Phase() != PhaseSettle {
		t.Fatalf("phase = %v, want settle (mid-rollout)", rigA.pipe.Phase())
	}
	// The fabric is now forked: the canary runs the target epoch, the
	// rest run the initial one. Controller A dies here.
	if fab.Converged() {
		t.Fatal("fabric should be mid-rollout (forked)")
	}
	epochA := rigA.pipe.Epoch()

	// Controller B restarts from the same WAL against the same fabric.
	engB := eventsim.NewEngine(1)
	pipeB := New(cfg, engB, fab, nil, telemetry.NewRegistry())
	if err := pipeB.Resume(initial, engB.Now()); err != nil {
		t.Fatal(err)
	}
	if pipeB.Phase() != PhasePromote {
		t.Fatalf("recovery phase = %v, want promote (restore rollout)", pipeB.Phase())
	}
	if pipeB.Epoch() <= epochA {
		t.Fatalf("recovery epoch %d not above pre-crash %d", pipeB.Epoch(), epochA)
	}
	engB.Run() // restore-wave ACKs
	if pipeB.Phase() != PhaseIdle {
		t.Fatalf("phase = %v after recovery, want idle", pipeB.Phase())
	}
	if !fab.Converged() {
		t.Fatalf("fabric did not converge after recovery: epochs %v", fab.Epochs())
	}
	if fab.Devices[0].Params != initial {
		t.Fatalf("recovered fabric runs %+v, want the pre-plan vector", fab.Devices[0].Params)
	}
	if pipeB.CommittedEpoch() != pipeB.Epoch() {
		t.Fatalf("committed epoch %d != granted %d after recovery", pipeB.CommittedEpoch(), pipeB.Epoch())
	}
	for _, d := range fab.Devices {
		if d.Epoch != pipeB.CommittedEpoch() {
			t.Fatalf("device epochs %v, want all %d", fab.Epochs(), pipeB.CommittedEpoch())
		}
	}
}

// TestPipelineRecoveryAfterCommitIsQuiet: a WAL whose last rollout
// committed cleanly must not trigger a recovery rollout.
func TestPipelineRecoveryAfterCommitIsQuiet(t *testing.T) {
	wal := &MemWAL{}
	fab := NewFabric(2)
	cfg := Config{Canary: 1, SettleIntervals: 1, WAL: wal, Fabric: fab}
	rig := newRig(t, cfg, 2)
	tgt := target()
	if ok, _ := rig.pipe.SubmitFinal(tgt, 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rig.eng.Run()
	rig.pipe.Tick(Health{Utility: 50}, rig.eng.Now())
	rig.eng.Run()
	if rig.pipe.Commits != 1 {
		t.Fatalf("commits = %d, want 1", rig.pipe.Commits)
	}
	walLen := wal.Len()

	engB := eventsim.NewEngine(1)
	pipeB := New(cfg, engB, fab, nil, telemetry.NewRegistry())
	if err := pipeB.Resume(dcqcn.DefaultParams(), engB.Now()); err != nil {
		t.Fatal(err)
	}
	if pipeB.Phase() != PhaseIdle {
		t.Fatalf("clean restart started a rollout (phase %v)", pipeB.Phase())
	}
	if wal.Len() != walLen {
		t.Fatalf("clean restart appended %d WAL records", wal.Len()-walLen)
	}
	if got, ok := pipeB.Committed(); !ok || got != tgt {
		t.Fatalf("restart lost the committed vector: %+v ok=%v", got, ok)
	}
}

func TestPipelineRejectLeavesFabricUntouched(t *testing.T) {
	rig := newRig(t, Config{}, 3)
	p := rig.pipe
	before := rig.fab.Epochs()

	bad := dcqcn.DefaultParams()
	bad.PMax = 2.0
	if ok, r := p.SubmitExplore(bad, rig.eng.Now()); ok || r != RejectBounds {
		t.Fatalf("out-of-bounds vector admitted (ok=%v r=%v)", ok, r)
	}
	if ok, r := p.SubmitFinal(bad, 50, rig.eng.Now()); ok || r != RejectBounds {
		t.Fatalf("out-of-bounds final admitted (ok=%v r=%v)", ok, r)
	}
	rig.eng.Run()
	if len(rig.pushes) != 0 {
		t.Fatalf("rejected vectors reached the network: %+v", rig.pushes)
	}
	for i, e := range rig.fab.Epochs() {
		if e != before[i] {
			t.Fatal("rejected vector moved a device epoch")
		}
	}
	if p.Guard().Rejects() != 2 || p.tm.Rejects.Value() != 2 {
		t.Fatalf("rejects guard=%d metric=%d, want 2/2", p.Guard().Rejects(), p.tm.Rejects.Value())
	}
}

func TestPipelineExploreAppliesDirectly(t *testing.T) {
	rig := newRig(t, Config{}, 3)
	p := rig.pipe
	tgt := target()
	if ok, r := p.SubmitExplore(tgt, rig.eng.Now()); !ok {
		t.Fatalf("explore rejected: %v", r)
	}
	for i, d := range rig.fab.Devices {
		if d.Params != tgt {
			t.Fatalf("device %d missed the explore dispatch", i)
		}
	}
	if len(rig.pushes) != 1 || len(rig.pushes[0].devs) != 3 {
		t.Fatalf("pushes = %+v, want one fabric-wide push", rig.pushes)
	}
	// A second explore while idle is fine; one during a plan is not.
	if ok, _ := p.SubmitFinal(target2(), 50, rig.eng.Now()); !ok {
		t.Fatal("final rejected")
	}
	if ok, r := p.SubmitExplore(tgt, rig.eng.Now()); ok || r != RejectInFlight {
		t.Fatalf("explore during plan: ok=%v r=%v, want RejectInFlight", ok, r)
	}
}

// refusingWAL refuses every record, like a disk that filled up.
type refusingWAL struct{ MemWAL }

func (*refusingWAL) Append(Record) error { return errors.New("disk full") }

// TestPipelineExploreVetoesUnjournaledEpoch: an exploration step whose
// epoch the WAL refused reaches no device, as a plan's intent does not.
// Restore still dispatches: it is the safety action.
func TestPipelineExploreVetoesUnjournaledEpoch(t *testing.T) {
	rig := newRig(t, Config{WAL: &refusingWAL{}}, 3)
	p := rig.pipe
	tgt := target()
	if ok, r := p.SubmitExplore(tgt, rig.eng.Now()); ok || r != RejectNone {
		t.Fatalf("explore with a refusing WAL: ok=%v r=%v, want a veto", ok, r)
	}
	if p.lastReject != "wal_error" {
		t.Errorf("lastReject = %q, want wal_error", p.lastReject)
	}
	if ok, _ := p.SubmitFinal(tgt, 50, rig.eng.Now()); ok {
		t.Error("plan started with a refusing WAL")
	}
	if len(rig.pushes) != 0 || p.Live() != dcqcn.DefaultParams() {
		t.Fatalf("vetoed dispatches reached the network: %+v", rig.pushes)
	}
	for i, d := range rig.fab.Devices {
		if d.Applies != 0 {
			t.Errorf("device %d applied a vetoed epoch %d", i, d.Epoch)
		}
	}
	p.Restore(tgt, rig.eng.Now())
	if len(rig.pushes) != 1 || len(rig.pushes[0].devs) != 3 || rig.pushes[0].vec != tgt {
		t.Errorf("restore with a refusing WAL: pushes %+v, want one fabric-wide push", rig.pushes)
	}
}

func target2() dcqcn.Params {
	p := dcqcn.DefaultParams()
	p.PMax = 0.4
	return p
}
