package baselines

// Decisions sums decisions across agents.
func (a *ACC) Decisions() int {
	total := 0
	for _, ag := range a.agents {
		total += ag.Decisions
	}
	return total
}
