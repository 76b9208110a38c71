package sim_test

import (
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// driveFaultyRun pushes a network through the packet-life edge cases the
// pool must survive: congestion heavy enough for PFC exchange and ECN/CNP
// traffic, a shrunken shared buffer so headroom exhaustion really drops
// packets, and repeated link flaps so downed links hold queues mid-run.
func driveFaultyRun(t *testing.T) *sim.Network {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: 2, NumLeaf: 1, HostsPerToR: 4,
		HostLinkBps: 10e9, FabricLinkBps: 10e9, // undersized fabric: guaranteed congestion
		PropDelay: 2 * eventsim.Microsecond,
	}
	// A buffer this small exhausts PFC headroom under incast, forcing the
	// drop path (Switch.Receive buffer overflow) to actually run.
	cfg.Switch.BufferBytes = 16 << 10
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.Hosts()
	tors := n.Topo.ToRs()
	// Cross-ToR incast: everything under ToR 0 blasts one receiver under
	// ToR 1 through the single leaf.
	for i := 0; i < 4; i++ {
		n.StartFlow(hosts[i], hosts[5], 2<<20)
	}
	// Reverse traffic so both directions carry data and PFC.
	n.StartFlow(hosts[6], hosts[1], 1<<20)

	// Flap the ToR0↔leaf link three times while traffic is in flight:
	// each down edge strands queued packets on held ports, each up edge
	// releases them.
	leaf := topology.NodeID(-1)
	for _, nd := range n.Topo.Nodes {
		if nd.Kind == topology.LeafSwitch {
			leaf = nd.ID
			break
		}
	}
	for k := 0; k < 3; k++ {
		down := eventsim.Time(200+400*k) * eventsim.Microsecond
		up := down + 150*eventsim.Microsecond
		n.Eng.Schedule(down, func() { n.SetLinkUp(tors[0], leaf, false) })
		n.Eng.Schedule(up, func() { n.SetLinkUp(tors[0], leaf, true) })
	}
	n.RunUntilIdle(200 * eventsim.Millisecond)
	if k := sendingHosts(n); k != 0 {
		t.Fatalf("%d hosts never drained their flows", k)
	}
	return n
}

// sendingHosts counts the hosts with a flow still sending: the senders'
// view, where IncompleteFlows is the receivers'.
func sendingHosts(n *sim.Network) int {
	k := 0
	for _, h := range n.Hosts {
		if len(h.ActiveDestinations()) > 0 {
			k++
		}
	}
	return k
}

// TestPoolInvariantUnderFaults checks the leak invariant
// Fresh+Recycled == Puts + in-flight after a run that exercised drops,
// PFC frames, and link flaps — every path where a packet's life can end
// away from the happy path. A leak here means long chaos runs grow the
// packet slab without bound.
func TestPoolInvariantUnderFaults(t *testing.T) {
	n := driveFaultyRun(t)
	if err := n.CheckPoolInvariant(); err != nil {
		t.Error(err)
	}
	var drops, pfc int64
	for _, sw := range n.Switches {
		drops += sw.Stats.Drops
		pfc += sw.Stats.PFCReceived
	}
	if drops == 0 {
		t.Error("no drops — the test no longer exercises the overflow path")
	}
	if pfc == 0 {
		t.Error("no PFC frames — the test no longer exercises the pause path")
	}
	// Drained network: nothing should still hold a packet.
	if got := n.PacketsInNetwork(); got != 0 {
		t.Errorf("%d packets still in fabric after drain", got)
	}
}
