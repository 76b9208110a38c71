package dispatch

import "repro/internal/dcqcn"

// Device is the agent-side half of the epoch protocol: the stateful
// applier that makes retried, duplicated, and reordered dispatch frames
// safe. It accepts an apply only when its epoch is strictly newer than
// the device's; its (Epoch, Hash) is always the state it runs.
type Device struct {
	// Epoch / Hash / Params are the last accepted apply.
	Epoch  uint64
	Hash   uint64
	Params dcqcn.Params
	seen   bool

	// Applies / Dups / Stale count fresh applies, same-epoch
	// re-deliveries, and older-epoch frames.
	Applies, Dups, Stale int
}

// Apply offers (epoch, p) to the device and reports whether the vector
// is fresh and must be pushed to the underlying hardware; duplicates and
// stale frames return false and change nothing, making every delivery
// idempotent.
func (d *Device) Apply(epoch uint64, p dcqcn.Params) bool {
	switch {
	case d.seen && epoch < d.Epoch:
		d.Stale++
		return false
	case d.seen && epoch == d.Epoch:
		d.Dups++
		return false
	default:
		d.Epoch = epoch
		d.Hash = VectorHash(&p)
		d.Params = p
		d.seen = true
		d.Applies++
		return true
	}
}

// Fabric is the ordered set of dispatch targets — one Device per scope
// ToR, in scope order. The harness owns the Fabric and hands it to each
// controller incarnation: device epochs are switch state and survive
// controller restarts, so a restarted controller whose journal lost an
// epoch would see its next dispatch refused as a duplicate.
type Fabric struct {
	Devices []*Device
}

// NewFabric builds n fresh devices.
func NewFabric(n int) *Fabric {
	f := &Fabric{Devices: make([]*Device, n)}
	for i := range f.Devices {
		f.Devices[i] = &Device{}
	}
	return f
}

// Epochs returns each device's current epoch, in device order.
func (f *Fabric) Epochs() []uint64 {
	out := make([]uint64, len(f.Devices))
	for i, d := range f.Devices {
		out[i] = d.Epoch
	}
	return out
}

// Converged reports whether every device runs the same (epoch, hash) —
// the "exactly one epoch" acceptance condition of the crash-recovery
// experiment.
func (f *Fabric) Converged() bool {
	if len(f.Devices) == 0 {
		return true
	}
	e, h := f.Devices[0].Epoch, f.Devices[0].Hash
	for _, d := range f.Devices[1:] {
		if d.Epoch != e || d.Hash != h {
			return false
		}
	}
	return true
}
