package sketch

// Estimate returns the byte estimate for flow. For heavy residents the
// estimate is exact up to Light Part residue; for everything else it is
// the count-min estimate (never an underestimate).
func (s *Sketch) Estimate(flow uint64) int64 {
	b := &s.heavy[s.heavyIndex(flow)]
	if b.used && b.flow == flow {
		if b.flag {
			return b.votePos + s.lightEstimate(flow)
		}
		return b.votePos
	}
	return s.lightEstimate(flow)
}

// HeavyBytes sums the Heavy Part residents' vote+ bytes.
func (s *Sketch) HeavyBytes() int64 {
	var total int64
	for i := range s.heavy {
		if s.heavy[i].used {
			total += s.heavy[i].votePos
		}
	}
	return total
}
