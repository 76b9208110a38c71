//go:build race

package ctrlrpc

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts stop describing the code under test.
const raceEnabled = true
