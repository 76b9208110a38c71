package ctrlrpc

// DialReconnecting connects to addr with the default retry and backoff
// settings and the given jitter seed, verifying the controller is
// reachable once.
func DialReconnecting(addr string, seed int64) (*ReconnClient, error) {
	return DialReconnectingWith(addr, 0, 0, 0, seed, nil)
}
