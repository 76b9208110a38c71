package workload

// InRound reports whether a round is currently in flight (the ON period).
func (g *AlltoallGen) InRound() bool { return g.inRound }
