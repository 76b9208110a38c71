package sim_test

import (
	"testing"

	"repro/internal/eventsim"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestOneEventPerUncongestedHop: a single flow crossing the idle paper
// fabric costs one event per packet per link — the delivery — plus one
// pacing wakeup per packet at the sender, which has to be told when to send
// next. No switch port arms a serialization timer: nothing ever waits
// behind a packet and no PAUSE is out. What is left over (flow start, the
// QP's DCQCN timers) is a constant.
func TestOneEventPerUncongestedHop(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.PaperClosConfig()
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1] // different ToRs: host, ToR, leaf, ToR, host
	const packets, links = 2000, 4
	n.StartFlow(src, dst, packets*netdev.DefaultMTU)
	n.RunUntilIdle(eventsim.Second)
	if len(n.Completed) != 1 {
		t.Fatalf("%d flows completed, want 1", len(n.Completed))
	}
	tx, timers := n.PortTotals()
	if tx != packets*links {
		t.Errorf("%d transmissions, want %d", tx, packets*links)
	}
	if timers != 0 {
		t.Errorf("%d serialization timers on an uncongested path, want 0", timers)
	}
	budget := uint64(float64(packets*(links+1))*1.05) + 64
	if got := n.Eng.Stats().Processed; got > budget {
		t.Errorf("%d events for %d packets over %d links, budget %d", got, packets, links, budget)
	}
	if err := n.CheckPoolInvariant(); err != nil {
		t.Error(err)
	}
}
