package dispatch

import "syscall"

// The FileWAL's descriptor flags: O_DSYNC makes each write durable when
// it returns, and O_DIRECT keeps the journal's blocks out of the page
// cache. OpenFileWAL drops O_DIRECT where the filesystem refuses it.
const (
	oDSync  = syscall.O_DSYNC
	oDirect = syscall.O_DIRECT
)
