package dispatch

import (
	"testing"

	"repro/internal/dcqcn"
)

// withoutDirectIO makes OpenFileWAL open its descriptor with O_DSYNC
// alone until t ends, as it does on a filesystem that refuses O_DIRECT.
func withoutDirectIO(t testing.TB) {
	old := walDirect
	walDirect = 0
	t.Cleanup(func() { walDirect = old })
}

// Committed returns the last committed vector and whether one exists.
func (p *Pipeline) Committed() (dcqcn.Params, bool) { return p.committed, p.haveCommitted }
