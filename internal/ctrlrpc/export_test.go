package ctrlrpc

// DialReconnecting connects to addr with the default retry and backoff
// settings, verifying the controller is reachable once.
func DialReconnecting(addr string) (*ReconnClient, error) {
	return DialReconnectingWith(addr, 0, 0, 0, nil)
}
