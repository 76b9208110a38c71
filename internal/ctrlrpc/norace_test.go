//go:build !race

package ctrlrpc

const raceEnabled = false
