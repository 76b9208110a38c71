package monitor

import (
	"testing"

	"repro/internal/eventsim"
	"repro/internal/rnic"
	"repro/internal/sim"
)

func buildNet(t *testing.T) *sim.Network {
	t.Helper()
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// rackAgents builds one RNICAgent per rack of n.
func rackAgents(n *sim.Network) []ReportSource {
	var out []ReportSource
	for _, tor := range n.Topo.ToRs() {
		var hosts []*rnic.Host
		for _, hn := range n.Topo.Hosts() {
			if n.Topo.ToROf(hn) == tor {
				hosts = append(hosts, n.Host(hn))
			}
		}
		out = append(out, NewRNICAgent(hosts))
	}
	return out
}

func TestRNICAgentCountsExactly(t *testing.T) {
	n := buildNet(t)
	hosts := n.Topo.Hosts()
	agents := rackAgents(n)
	size := int64(3 << 20)
	n.StartFlow(hosts[0], hosts[1], size)
	var total float64
	for mi := 1; mi <= 20; mi++ {
		n.Run(eventsim.Time(mi) * eventsim.Millisecond)
		for _, a := range agents {
			r := a.EndInterval()
			total += r.ElephantBytes + r.MiceBytes
		}
	}
	// Per-QP counters are exact: total reported mass equals flow size.
	if int64(total) != size {
		t.Errorf("RNIC agents reported %d bytes, want exactly %d", int64(total), size)
	}
}

func TestRNICAgentTernaryPromotion(t *testing.T) {
	n := buildNet(t)
	hosts := n.Topo.Hosts()
	agents := rackAgents(n)
	// An 8 MB flow transmits >1 MB within the first interval at 10 Gbps,
	// so the tracker must classify it elephant almost immediately.
	n.StartFlow(hosts[0], hosts[1], 8<<20)
	var sawElephant bool
	for mi := 1; mi <= 10; mi++ {
		n.Run(eventsim.Time(mi) * eventsim.Millisecond)
		for _, a := range agents {
			r := a.EndInterval()
			if r.ElephantFlowsW > 0 {
				sawElephant = true
			}
		}
	}
	if !sawElephant {
		t.Error("RNIC agent never classified the 8MB flow as elephant")
	}
}

func TestRNICAgentMatchesOracleClosely(t *testing.T) {
	// Exact per-QP counters should track the oracle at least as well as
	// the sketch path on the same traffic.
	n := buildNet(t)
	hosts := n.Topo.Hosts()
	rnicCtl := NewController(0.01, rackAgents(n)...)
	var oracles []ReportSource
	for _, tor := range n.Topo.ToRs() {
		o := NewOracle(n.Topo, tor)
		TapAll(n.Switch(tor), o.OnPacket)
		oracles = append(oracles, o)
	}
	truthCtl := NewController(0.01, oracles...)

	n.StartFlow(hosts[0], hosts[4], 8<<20)
	n.StartFlow(hosts[1], hosts[5], 8<<20)
	for i := 0; i < 10; i++ {
		n.StartFlowAt(eventsim.Time(i)*300*eventsim.Microsecond, hosts[2], hosts[6], 30<<10)
	}
	var acc float64
	ticks := 0
	for mi := 1; mi <= 10; mi++ {
		n.Run(eventsim.Time(mi) * eventsim.Millisecond)
		est := rnicCtl.Tick()
		tr := truthCtl.Tick()
		if tr.TotalBytes == 0 {
			continue
		}
		acc += Accuracy(est, tr)
		ticks++
	}
	if ticks == 0 {
		t.Fatal("no traffic")
	}
	// Exact counters under the oracle's classification rule differ from
	// it only where a potential elephant's weight is fractional.
	if avg := acc / float64(ticks); avg < 0.99 {
		t.Errorf("RNIC-agent accuracy %g, want >= 0.99 (exact counters)", avg)
	}
}

func TestTakeFlowBytesResidueOnCompletion(t *testing.T) {
	n := buildNet(t)
	hosts := n.Topo.Hosts()
	h := n.Host(hosts[0])
	h.RecordFlowBytes()
	size := int64(100 << 10)
	n.StartFlow(hosts[0], hosts[1], size)
	// Let the flow finish entirely between takes.
	n.RunUntilIdle(eventsim.Second)
	fb := h.TakeFlowBytes()
	if len(fb) != 1 || fb[0].Bytes != size {
		t.Fatalf("residue take = %+v, want one entry of %d bytes", fb, size)
	}
	// A second take is empty.
	if got := h.TakeFlowBytes(); len(got) != 0 {
		t.Errorf("second take = %+v, want empty", got)
	}
}
