package dispatch

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dcqcn"
)

// frame is one dispatch delivery in an idempotency schedule.
type frame struct {
	epoch uint64
	vec   dcqcn.Params
}

func testFrames() []frame {
	p1 := dcqcn.DefaultParams()
	p2 := dcqcn.ExpertParams()
	p3 := dcqcn.DefaultParams()
	p3.KminBytes = 800 << 10
	p3.KmaxBytes = 3200 << 10
	return []frame{{1, p1}, {2, p2}, {3, p3}}
}

// deliver runs a schedule against a fresh device and returns its final
// state plus the byte-serialized answer stream — the (epoch, hash) the
// device runs and whether it applied — from re-offering every frame
// once after the schedule completes. That stream is the property
// retries depend on: whatever arrived and in whatever order, a
// retransmitted frame must earn the same answer.
func deliver(t *testing.T, schedule []frame) (*Device, []byte) {
	t.Helper()
	d := &Device{}
	for _, f := range schedule {
		d.Apply(f.epoch, f.vec)
	}
	var buf bytes.Buffer
	for _, f := range testFrames() {
		applied := d.Apply(f.epoch, f.vec)
		if err := binary.Write(&buf, binary.LittleEndian, struct {
			Epoch, Hash uint64
			Applied     bool
		}{d.Epoch, d.Hash, applied}); err != nil {
			t.Fatal(err)
		}
	}
	return d, buf.Bytes()
}

// TestDeviceEpochIdempotency: duplicate, reordered, and stale-epoch
// dispatch frames leave the device vector and its answer stream
// byte-identical to the in-order run.
func TestDeviceEpochIdempotency(t *testing.T) {
	f := testFrames()
	inOrder := []frame{f[0], f[1], f[2]}
	wantDev, wantAcks := deliver(t, inOrder)

	schedules := map[string][]frame{
		"duplicates":     {f[0], f[0], f[1], f[1], f[1], f[2], f[2]},
		"reordered":      {f[1], f[0], f[2]},
		"stale_tail":     {f[0], f[2], f[1], f[0]},
		"all_backwards":  {f[2], f[1], f[0]},
		"dup_and_stale":  {f[0], f[1], f[2], f[1], f[2], f[0]},
		"only_final_dup": {f[2], f[2], f[2]},
	}
	for name, schedule := range schedules {
		t.Run(name, func(t *testing.T) {
			dev, acks := deliver(t, schedule)
			if dev.Epoch != wantDev.Epoch || dev.Hash != wantDev.Hash {
				t.Fatalf("device at (epoch=%d hash=%016x), want (epoch=%d hash=%016x)",
					dev.Epoch, dev.Hash, wantDev.Epoch, wantDev.Hash)
			}
			if dev.Params != wantDev.Params {
				t.Fatalf("device vector %+v, want %+v", dev.Params, wantDev.Params)
			}
			if !bytes.Equal(acks, wantAcks) {
				t.Fatalf("answer stream diverged from in-order run\n got: %x\nwant: %x", acks, wantAcks)
			}
		})
	}
}

func TestDeviceCountsStaleAndDup(t *testing.T) {
	f := testFrames()
	d := &Device{}
	d.Apply(f[1].epoch, f[1].vec) // fresh (epoch 2)
	d.Apply(f[1].epoch, f[1].vec) // duplicate
	d.Apply(f[0].epoch, f[0].vec) // stale (epoch 1 < 2)
	if d.Applies != 1 || d.Dups != 1 || d.Stale != 1 {
		t.Fatalf("applies/dups/stale = %d/%d/%d, want 1/1/1", d.Applies, d.Dups, d.Stale)
	}
	if d.Apply(f[0].epoch, f[0].vec) {
		t.Fatal("stale frame reported as applied")
	}
	if d.Epoch != 2 || d.Hash != VectorHash(&f[1].vec) {
		t.Fatalf("after a stale frame the device is at (epoch=%d hash=%016x), want epoch 2's state", d.Epoch, d.Hash)
	}
}

func TestFabricConverged(t *testing.T) {
	fab := NewFabric(3)
	p := dcqcn.DefaultParams()
	for _, d := range fab.Devices {
		d.Apply(1, p)
	}
	if !fab.Converged() {
		t.Fatal("uniform fabric reported diverged")
	}
	fab.Devices[1].Apply(2, dcqcn.ExpertParams())
	if fab.Converged() {
		t.Fatal("forked fabric reported converged")
	}
}
