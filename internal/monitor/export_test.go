package monitor

// Tracked reports the number of flows currently in the state table.
func (t *Tracker) Tracked() int { return len(t.flows) }
