package tuner

// AgentCommitCounts returns per-agent applied-proposal counts.
func (m *MultiECN) AgentCommitCounts() []int {
	counts := make([]int, len(m.agents))
	for i := range m.agents {
		counts[i] = m.agents[i].commits
	}
	return counts
}
