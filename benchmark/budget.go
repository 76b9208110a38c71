package main

// budgetRows are the budget's rows in the order the report prints them;
// together they sum to 1.
var budgetRows = []string{
	"budget.eventsim_share",
	"budget.netdev_share",
	"budget.rnic_dcqcn_share",
	"budget.sketch_share",
	"budget.core_tick_share",
	"budget.unattributed_share",
}

// budget splits a fabric workload's wall_s over the layers, as far as that
// can be had from outside: each row is a unit self-cost — the layer's
// micro-driver cost minus the micro-driver cost of the layers it calls —
// times the layer's exact count, as a share of wallS. The control loop's row
// is its measured span share. What the rows do not explain (cache misses a
// micro-driver does not reproduce, the monitor taps, flow bookkeeping) is
// the unattributed row, which is negative when the micro-drivers overstate
// the cost in place.
func budget(workload string, exact map[string]float64, m *microResult, tickShare, wallS float64) map[string]float64 {
	v := m.Values
	positive := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}
	// A packet hop in the forward micro-driver pays for its own engine
	// events at a short queue; what is left is netdev's own work.
	netdevUnit := positive(v["netdev.forward_ns"] - m.ForwardEventsPerPkt*m.HoldSmall)
	// A packet of the two-host pair crosses PairHopsPerPkt ports and fires
	// PairEventsPerPkt events; what the hops and the remaining events (the
	// RNIC's own timers) do not explain is RNIC and DCQCN work.
	rnicUnit := positive(v["rnic.pair_ns_per_pkt"] - m.PairHopsPerPkt*v["netdev.forward_ns"] -
		(m.PairEventsPerPkt-m.PairHopsPerPkt*m.ForwardEventsPerPkt)*m.HoldSmall)
	sketchUnit := v["sketch.insert_ns.fb"]
	if workload == wA2A {
		sketchUnit = v["sketch.insert_ns.a2a"]
	}
	wallNs := wallS * 1e9
	out := map[string]float64{
		"budget.eventsim_share":   v["eventsim.hold_ns"] * exact["eventsim.events"] / wallNs,
		"budget.netdev_share":     netdevUnit * exact["netdev.tx_packets"] / wallNs,
		"budget.rnic_dcqcn_share": rnicUnit * exact["rnic.tx_packets"] / wallNs,
		"budget.sketch_share":     sketchUnit * exact["sketch.inserts"] / wallNs,
		"budget.core_tick_share":  tickShare,
	}
	rest := 1.0
	for _, share := range out {
		rest -= share
	}
	out["budget.unattributed_share"] = rest
	return out
}
