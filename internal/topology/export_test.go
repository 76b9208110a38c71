package topology

// HopCount returns the number of links on a shortest path from src to dst,
// or -1 if unreachable.
func (t *Topology) HopCount(src, dst NodeID) int {
	t.mustRouted()
	if src == dst {
		return 0
	}
	s, d := t.attach[src], t.attach[dst]
	hops := int(t.hopCount[t.coreIdx(s, d)])
	if hops < 0 {
		return -1
	}
	if s.port >= 0 {
		hops++
	}
	if d.port >= 0 {
		hops++
	}
	return hops
}
