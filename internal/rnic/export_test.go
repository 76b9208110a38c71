package rnic

// ActiveFlows reports the number of in-progress sending flows.
func (h *Host) ActiveFlows() int { return len(h.sendFlows) }
