package core

import (
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// partitionNet builds a 2-rack fabric and returns one-cluster-per-rack
// groupings.
func partitionNet(t *testing.T) (*sim.Network, [][]topology.NodeID) {
	t.Helper()
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tors := n.Topo.ToRs()
	clusters := [][]topology.NodeID{{tors[0]}, {tors[1]}}
	return n, clusters
}

func TestAttachPartitionedValidation(t *testing.T) {
	n, _ := partitionNet(t)
	if _, err := AttachPartitioned(n, quickSystem(), nil); err == nil {
		t.Error("empty cluster list accepted")
	}
	if _, err := AttachPartitioned(n, quickSystem(), [][]topology.NodeID{{}}); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestPartitionedHeterogeneousTuning(t *testing.T) {
	n, clusters := partitionNet(t)
	systems, err := AttachPartitioned(n, quickSystem(), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 2 {
		t.Fatalf("%d systems, want 2", len(systems))
	}
	for _, s := range systems {
		s.Start()
	}
	hosts := n.Topo.Hosts()
	// Rack 0 (hosts 0–3): sustained elephants. Rack 1 (hosts 4–7): mice.
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 256<<20)
	}
	if _, err := workload.InstallPoisson(n, workload.PoissonConfig{
		Hosts: hosts[4:], CDF: workload.SolarRPC(), Load: 0.4,
	}); err != nil {
		t.Fatal(err)
	}
	n.Run(40 * eventsim.Millisecond)

	// Both clusters must have tuned independently.
	for i, s := range systems {
		if s.Dispatches == 0 {
			t.Errorf("cluster %d never dispatched", i)
		}
	}
	// Heterogeneous outcome: the two racks' ToRs hold different settings.
	p0 := *n.SwitchParams(clusters[0][0])
	p1 := *n.SwitchParams(clusters[1][0])
	if p0 == p1 {
		t.Error("clusters converged to identical parameters despite opposite workloads")
	}
	// Hosts carry their own cluster's setting via overrides.
	h0 := n.Host(hosts[0]).Override()
	h4 := n.Host(hosts[4]).Override()
	if h0 == nil || h4 == nil {
		t.Fatal("cluster dispatch did not install host overrides")
	}
	if *h0 == *h4 {
		t.Error("hosts of different clusters share identical overrides")
	}
	// Validity everywhere.
	for _, sn := range n.Topo.SwitchIDs() {
		if err := n.SwitchParams(sn).Validate(); err != nil {
			t.Errorf("switch %d params invalid: %v", sn, err)
		}
	}
}

func TestPartitionedScopesDoNotOverlap(t *testing.T) {
	n, clusters := partitionNet(t)
	systems, err := AttachPartitioned(n, quickSystem(), clusters)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range systems {
		s.Start()
	}
	hosts := n.Topo.Hosts()
	// Traffic only in rack 0: cluster 1's collector must see nothing.
	n.StartFlow(hosts[1], hosts[0], 32<<20)
	n.Run(10 * eventsim.Millisecond)
	if systems[0].LastSample.OTP == 0 {
		t.Error("cluster 0 blind to its own traffic")
	}
	if systems[1].LastSample.OTP != 0 {
		t.Errorf("cluster 1 saw foreign traffic: OTP=%g", systems[1].LastSample.OTP)
	}
	if systems[1].Controller.Current.TotalBytes != 0 {
		t.Error("cluster 1's FSD counted rack-0 flows")
	}
}

func TestClusterApplyLeavesOthersAlone(t *testing.T) {
	n, clusters := partitionNet(t)
	before := *n.SwitchParams(clusters[1][0])
	p := *n.RNICParams()
	p.KminBytes = 123 << 10
	p.KmaxBytes = 456 << 10
	n.ApplyParamsToCluster(clusters[0], p)
	if got := n.SwitchParams(clusters[0][0]); got.KminBytes != 123<<10 {
		t.Error("target cluster switch not updated")
	}
	if got := *n.SwitchParams(clusters[1][0]); got != before {
		t.Error("foreign cluster switch modified")
	}
	hosts := n.Topo.Hosts()
	if n.Host(hosts[0]).Override() == nil {
		t.Error("cluster host override missing")
	}
	if n.Host(hosts[7]).Override() != nil {
		t.Error("foreign host override installed")
	}
}
