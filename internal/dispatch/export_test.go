package dispatch

import "testing"

// withoutDirectIO makes OpenFileWAL open its descriptor with O_DSYNC
// alone until t ends, as it does on a filesystem that refuses O_DIRECT.
func withoutDirectIO(t testing.TB) {
	old := walDirect
	walDirect = 0
	t.Cleanup(func() { walDirect = old })
}
