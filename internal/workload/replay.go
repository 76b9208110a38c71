package workload

import (
	"fmt"

	"repro/internal/eventsim"
	"repro/internal/sim"
)

// TraceFlow is one flow of a recorded or hand-written trace. Endpoints
// are host *indices* (position in Topology.Hosts()), not node IDs, so a
// trace replays on any fabric with at least as many hosts.
type TraceFlow struct {
	StartNs  int64
	SrcIndex int
	DstIndex int
	Bytes    int64
}

// InstallReplay schedules a trace on n, offset so the first flow starts
// at `start`. It fails if the trace references hosts the fabric lacks.
func InstallReplay(n *sim.Network, flows []TraceFlow, start eventsim.Time) error {
	if len(flows) == 0 {
		return fmt.Errorf("workload: empty trace")
	}
	hosts := n.Topo.Hosts()
	base := flows[0].StartNs
	for _, f := range flows {
		if f.StartNs < base {
			base = f.StartNs
		}
		if f.SrcIndex >= len(hosts) || f.DstIndex >= len(hosts) {
			return fmt.Errorf("workload: trace references host %d/%d, fabric has %d",
				f.SrcIndex, f.DstIndex, len(hosts))
		}
	}
	for _, f := range flows {
		at := start + eventsim.Time(f.StartNs-base)
		n.StartFlowAt(at, hosts[f.SrcIndex], hosts[f.DstIndex], f.Bytes)
	}
	return nil
}
