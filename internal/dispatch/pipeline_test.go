package dispatch

import (
	"errors"
	"path/filepath"
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

// TestPipelineCrashRecovery: a controller killed between two dispatches
// and restarted on the same journal and fabric resumes on the vector the
// fabric runs, even when a restore came between them, and numbers its
// next epoch above every device's.
func TestPipelineCrashRecovery(t *testing.T) {
	wal := &MemWAL{}
	fab := NewFabric(4)
	cfg := Config{WAL: wal, Fabric: fab}
	v0, v1, v2 := dcqcn.DefaultParams(), target(), target2()

	rigA := newRig(t, cfg, 4)
	now := rigA.eng.Now()
	if ok, r := rigA.pipe.Submit(v1, now); !ok {
		t.Fatalf("dispatch of v1 refused: %v", r)
	}
	rigA.pipe.Restore(v0, now)
	if ok, r := rigA.pipe.Submit(v2, now); !ok {
		t.Fatalf("dispatch of v2 refused: %v", r)
	}

	// Controller A dies here; B restarts on the same WAL and fabric.
	rigB := newRig(t, cfg, 4)
	pipeB := rigB.pipe
	if pipeB.Live() != v2 {
		t.Fatalf("restarted controller is live on %+v, want v2, which the fabric runs", pipeB.Live())
	}
	if pipeB.WALReplayed() != 3 {
		t.Errorf("replayed %d records, want 3", pipeB.WALReplayed())
	}
	next := pipeB.Epoch() + 1
	for i, d := range fab.Devices {
		if d.Params != v2 || d.Epoch >= next {
			t.Fatalf("device %d at epoch %d runs %+v; restarted controller's next epoch is %d", i, d.Epoch, d.Params, next)
		}
	}
	if ok, r := pipeB.Submit(v1, rigB.eng.Now()); !ok {
		t.Fatalf("dispatch after restart refused: %v", r)
	}
	if !fab.Converged() || fab.Devices[0].Epoch != next || fab.Devices[0].Params != v1 {
		t.Fatalf("dispatch after restart did not reach the fabric: epochs %v", fab.Epochs())
	}
}

// flakyWAL refuses records while refusing is set, like a disk that
// filled up and was then cleared.
type flakyWAL struct {
	MemWAL
	refusing bool
}

func (w *flakyWAL) Append(r Record) error {
	if w.refusing {
		return errors.New("disk full")
	}
	return w.MemWAL.Append(r)
}

// TestPipelineResumesAboveUnjournaledRestore: a restore the journal
// refused still reached every device, so a controller restarted on that
// journal numbers its next epoch above the devices' and resumes on the
// vector they run, not on the journal's last one.
func TestPipelineResumesAboveUnjournaledRestore(t *testing.T) {
	wal := &flakyWAL{}
	fab := NewFabric(3)
	cfg := Config{WAL: wal, Fabric: fab}
	v0, v1, v2 := dcqcn.DefaultParams(), target(), target2()

	rigA := newRig(t, cfg, 3)
	if ok, r := rigA.pipe.Submit(v1, rigA.eng.Now()); !ok {
		t.Fatalf("dispatch of v1 refused: %v", r)
	}
	wal.refusing = true
	rigA.pipe.Restore(v0, rigA.eng.Now())
	wal.refusing = false

	rigB := newRig(t, cfg, 3)
	if got := rigB.pipe.Live(); got != v0 {
		t.Fatalf("restarted controller is live on %+v, want the restored v0 the devices run", got)
	}
	if ok, r := rigB.pipe.Submit(v2, rigB.eng.Now()); !ok {
		t.Fatalf("dispatch of v2 after restart refused: %v", r)
	}
	for i, d := range fab.Devices {
		if d.Dups != 0 || d.Stale != 0 || d.Epoch != rigB.pipe.Epoch() || d.Params != rigB.pipe.Live() || d.Params != v2 {
			t.Errorf("device %d at epoch %d runs v2 %v with %d dups, %d stale; the pipeline is at epoch %d",
				i, d.Epoch, d.Params == v2, d.Dups, d.Stale, rigB.pipe.Epoch())
		}
	}
}

// TestPipelineSubmitAllocs is the dispatch path's allocation gate: an
// admitted Submit over a FileWAL guards and journals its candidate from
// the Pipeline, so neither the candidate nor the journaled vector moves
// to the heap.
func TestPipelineSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	wal, err := OpenFileWAL(filepath.Join(t.TempDir(), "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	p := New(Config{WAL: wal}, nil, NewFabric(4), func([]int, dcqcn.Params) {}, telemetry.NewRegistry())
	if err := p.Resume(dcqcn.DefaultParams(), 0); err != nil {
		t.Fatal(err)
	}
	vecs := [2]dcqcn.Params{target(), target2()}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if ok, r := p.Submit(vecs[i%2], eventsim.Time(i)); !ok {
			t.Fatalf("dispatch %d refused: %v", i, r)
		}
	})
	if allocs != 0 {
		t.Errorf("an admitted Submit over a FileWAL allocates %.2f objects, want 0", allocs)
	}
}

// TestPipelineRecoveryAfterCommitIsQuiet: a restart journals and
// dispatches nothing, and keeps the committed vector.
func TestPipelineRecoveryAfterCommitIsQuiet(t *testing.T) {
	wal := &MemWAL{}
	fab := NewFabric(2)
	cfg := Config{WAL: wal, Fabric: fab}
	rig := newRig(t, cfg, 2)
	tgt := target()
	if ok, _ := rig.pipe.SubmitFinal(tgt, 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	if rig.pipe.Commits != 1 {
		t.Fatalf("commits = %d, want 1", rig.pipe.Commits)
	}
	walLen := wal.Len()

	rigB := newRig(t, cfg, 2)
	if wal.Len() != walLen || len(rigB.pushes) != 0 {
		t.Fatalf("clean restart appended %d WAL records and pushed %d vectors", wal.Len()-walLen, len(rigB.pushes))
	}
	if got := rigB.pipe.Live(); got != tgt {
		t.Fatalf("restart lost the committed vector: %+v", got)
	}
}

func TestPipelineRejectLeavesFabricUntouched(t *testing.T) {
	rig := newRig(t, Config{}, 3)
	p := rig.pipe
	before := rig.fab.Epochs()

	bad := dcqcn.DefaultParams()
	bad.PMax = 2.0
	if ok, r := p.Submit(bad, rig.eng.Now()); ok || r != RejectBounds {
		t.Fatalf("out-of-bounds vector admitted (ok=%v r=%v)", ok, r)
	}
	if ok, r := p.SubmitFinal(bad, 50, rig.eng.Now()); ok || r != RejectBounds {
		t.Fatalf("out-of-bounds final admitted (ok=%v r=%v)", ok, r)
	}
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
	if ok, r := p.Submit(tgt, rig.eng.Now()); !ok {
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
	// SubmitFinal takes the same path: fabric-wide at once, one epoch on.
	if ok, _ := p.SubmitFinal(target2(), 50, rig.eng.Now()); !ok {
		t.Fatal("final rejected")
	}
	if !rig.fab.Converged() || rig.fab.Devices[0].Epoch != 2 || rig.fab.Devices[0].Params != target2() {
		t.Fatalf("final dispatch did not reach the fabric at epoch 2: epochs %v", rig.fab.Epochs())
	}
	if p.Commits != 2 || p.InFlight() {
		t.Fatalf("commits = %d, in flight %v; want 2 commits and nothing in flight", p.Commits, p.InFlight())
	}
}

// TestPipelineExploreVetoesUnjournaledEpoch: a dispatch whose record the
// WAL refused reaches no device. Restore still dispatches: it is the
// safety action.
func TestPipelineExploreVetoesUnjournaledEpoch(t *testing.T) {
	rig := newRig(t, Config{WAL: &flakyWAL{refusing: true}}, 3)
	p := rig.pipe
	tgt := target()
	if ok, r := p.Submit(tgt, rig.eng.Now()); ok || r != RejectNone {
		t.Fatalf("explore with a refusing WAL: ok=%v r=%v, want a veto", ok, r)
	}
	if p.LastReject() != "wal_error: disk full" {
		t.Errorf("LastReject() = %q, want the journal's error", p.LastReject())
	}
	if ok, _ := p.SubmitFinal(tgt, 50, rig.eng.Now()); ok {
		t.Error("SubmitFinal dispatched with a refusing WAL")
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
