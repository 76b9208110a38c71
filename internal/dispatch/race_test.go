//go:build race

package dispatch

// raceEnabled reports a -race build, whose instrumentation allocates
// where the code under test does not.
const raceEnabled = true
