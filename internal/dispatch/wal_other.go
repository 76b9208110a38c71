//go:build !linux

package dispatch

import "os"

// Elsewhere the FileWAL syncs every write with O_SYNC and goes through
// the page cache.
const (
	oDSync  = os.O_SYNC
	oDirect = 0
)
