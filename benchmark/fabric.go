package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// quantileSource is a rand.Source that returns one chosen value, so that
// SizeCDF.Sample — whose only draw is rng.Float64() = Int63()/2^63, a
// value stream math/rand keeps frozen — evaluates the CDF's inverse at a
// quantile of our choosing.
type quantileSource struct{ v int64 }

func (q *quantileSource) Int63() int64 { return q.v }
func (q *quantileSource) Seed(int64)   {}

// poissonTrace generates an open-loop trace over hosts (in racks of perRack)
// for window virtual nanoseconds at the given load of rateBps host links.
// Flow sizes are a stratified sample of the CDF — flow i takes a quantile
// inside the i-th of n equal strata — and the rack-local flows, in the
// share uniform endpoints would give, are spread evenly over those strata.
// So the byte total, the count per size class and the bytes per hop count
// are the same for every seed, and only order, endpoints and start times
// vary: an i.i.d. sample of FB_Hadoop with uniform endpoints moves the
// packet-hop count, hence host time, by ±6% from seed to seed, which the
// benchmark would have to report as noise. Starts are uniform over the
// window, which is a Poisson process conditioned on its count.
func poissonTrace(rng *rand.Rand, cdf workload.SizeCDF, hosts, perRack int, rateBps, load float64, window int64) []workload.TraceFlow {
	n := int(load * rateBps * float64(hosts) / (cdf.MeanBytes() * 8) * float64(window) / 1e9)
	if n < 1 {
		n = 1
	}
	q := &quantileSource{}
	inverse := rand.New(q)
	localShare := float64(perRack-1) / float64(hosts-1)
	type draw struct {
		bytes int64
		local bool
	}
	draws := make([]draw, n)
	for i := range draws {
		u := (float64(i) + rng.Float64()) / float64(n)
		if u >= 1 { // (i + r)/n can round up to 1, which Float64 never returns
			u = math.Nextafter(1, 0)
		}
		q.v = int64(u * (1 << 63))
		draws[i].bytes = cdf.Sample(inverse)
		draws[i].local = math.Floor(float64(i+1)*localShare) > math.Floor(float64(i)*localShare)
	}
	rng.Shuffle(n, func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })
	flows := make([]workload.TraceFlow, n)
	for i, d := range draws {
		src := rng.Intn(hosts)
		rack := src / perRack * perRack
		var dst int
		if d.local {
			dst = rack + rng.Intn(perRack-1)
			if dst >= src {
				dst++
			}
		} else {
			dst = rng.Intn(hosts - perRack)
			if dst >= rack {
				dst += perRack
			}
		}
		flows[i] = workload.TraceFlow{
			StartNs:  int64(rng.Float64() * float64(window)),
			SrcIndex: src, DstIndex: dst, Bytes: d.bytes,
		}
	}
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].StartNs < flows[j].StartNs })
	return flows
}

func traceBytes(flows []workload.TraceFlow) int64 {
	var total int64
	for _, f := range flows {
		total += f.Bytes
	}
	return total
}

// fabricConfig is the paper's 128-host / 100 Gbps CLOS (a 16-host cut of
// it for the smoke tests) seeded for this repetition.
func fabricConfig(c *runCtx) sim.Config {
	cfg := harness.PaperScale().Net
	if c.size.Small {
		cfg.Clos.NumToR, cfg.Clos.NumLeaf, cfg.Clos.HostsPerToR = 4, 2, 4
	}
	cfg.Seed = c.seed
	return cfg
}

// buildFabric builds the network. sim.New builds the topology itself and
// offers no way to pass one in, so topology construction can only be timed
// by building it once more; only the traced repetition pays for that, and
// the untraced repetitions' setup_s stays what a user waits for.
func buildFabric(c *runCtx, cfg sim.Config) (*sim.Network, error) {
	if c.tr != nil {
		if err := c.timeStep("topology.build_s", func() error {
			_, err := topology.NewClos(cfg.Clos)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var n *sim.Network
	err := c.timeStep("sim.new_s", func() error {
		var err error
		n, err = sim.New(cfg)
		return err
	})
	return n, err
}

// attachLoop deploys the Paraleon closed loop the way harness.Run does for
// ParaleonScheme, against a private telemetry registry so that sketch and
// tuner counters belong to this repetition alone.
func attachLoop(c *runCtx, n *sim.Network) (*core.System, *telemetry.Registry, error) {
	reg := telemetry.NewRegistry()
	sysCfg := harness.ParaleonScheme().SystemCfg
	sysCfg.Interval = interval
	sysCfg.Seed = c.seed
	sysCfg.Telemetry = reg
	var sys *core.System
	err := c.timeStep("core.attach_s", func() error {
		var err error
		sys, err = core.Attach(n, sysCfg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	sys.StartProbingOnly()
	return sys, reg, nil
}

// closedLoop advances the network one monitor interval at a time, ticking
// the control loop after each, until done reports true or maxTime passes.
// It returns the highest Pending() seen at an interval boundary.
func closedLoop(c *runCtx, n *sim.Network, sys *core.System, done func() bool, maxTime eventsim.Time) int {
	hwm := 0
	for !done() && n.Eng.Now() < maxTime {
		c.tr.begin("interval")
		c.tr.begin("net.run")
		n.Run(n.Eng.Now() + interval)
		c.tr.end()
		c.tr.begin("core.tick")
		sys.TickOnce()
		c.tr.end()
		c.tr.end()
		if p := n.Pending(); p > hwm {
			hwm = p
		}
	}
	// Flush in-flight deliveries (CNPs, probe replies) so the fabric is
	// empty when the pool invariant is checked.
	c.tr.begin("drain")
	n.Run(n.Eng.Now() + 2*interval)
	c.tr.end()
	return hwm
}

// fabricCounts reads the public device counters of a finished network into
// the repetition's exact metrics.
func fabricCounts(c *runCtx, n *sim.Network, hwm int) {
	ex := c.res.Exact
	var portTx, switchTx, ecn, pfc, rx, drops int64
	var paused eventsim.Time
	ports := 0
	for _, h := range n.Hosts {
		st := h.Port().Stats
		portTx += st.TxPackets
		pfc += st.PFCSent
		paused += h.Port().TotalPausedTime()
		ports++
	}
	for _, sw := range n.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			st := sw.Port(i).Stats
			portTx += st.TxPackets
			switchTx += st.TxPackets
			ecn += st.ECNMarked
			pfc += st.PFCSent
		}
		paused += sw.TotalPausedTime()
		ports += sw.NumPorts()
		rx += sw.Stats.RxPackets
		drops += sw.Stats.Drops
	}
	var hostTx, cnps, rtts int64
	for _, h := range n.Hosts {
		hostTx += h.Stats.TxPackets
		cnps += h.Stats.CNPsReceived
		rtts += h.Stats.RTTSamples
	}
	events := float64(n.Eng.Processed)
	ex["eventsim.events"] = events
	ex["eventsim.pending_hwm"] = float64(hwm)
	if events > 0 {
		ex["eventsim.nonpacket_event_share"] = 1 - 2*float64(portTx)/events
	}
	ex["netdev.tx_packets"] = float64(portTx)
	ex["netdev.switch_rx_packets"] = float64(rx)
	ex["netdev.pfc_frames"] = float64(pfc)
	ex["netdev.drops"] = float64(drops)
	if switchTx > 0 {
		ex["netdev.ecn_marked_share"] = float64(ecn) / float64(switchTx)
	}
	if now := n.Eng.Now(); now > 0 && ports > 0 {
		ex["netdev.pause_frac"] = float64(paused) / (float64(ports) * float64(now))
	}
	ex["rnic.tx_packets"] = float64(hostTx)
	ex["rnic.cnps_received"] = float64(cnps)
	ex["rnic.rtt_samples"] = float64(rtts)
	if hostTx > 0 {
		ex["rnic.cnp_per_kpkt"] = 1000 * float64(cnps) / float64(hostTx)
	}
	if drops != 0 {
		c.failf("%d packets dropped on a lossless fabric", drops)
	}
	if err := n.CheckPoolInvariant(); err != nil {
		c.failf("%v", err)
	}
	if in := n.PacketsInNetwork(); in != 0 {
		c.failf("%d packets still in the network at exit", in)
	}
}

// loopCounts reads the control loop's public counters.
func loopCounts(c *runCtx, sys *core.System, reg *telemetry.Registry) {
	ex := c.res.Exact
	sk := telemetry.NewSketchMetrics(reg) // resolves the same counters the agents fed
	ex["sketch.inserts"] = float64(sk.Inserts.Value())
	ex["sketch.skipped"] = float64(sk.Skipped.Value())
	ex["sketch.evictions"] = float64(sk.Evictions.Value())
	ex["monitor.triggers"] = float64(sys.Controller.Triggers)
	st := sys.Tuner.Stats()
	ex["core.sessions"] = float64(st.Sessions)
	ex["core.dispatches"] = float64(sys.Dispatches)
	ex["tuner.iterations"] = float64(st.Steps)
	if d := st.Accepts + st.Rejects; d > 0 {
		ex["tuner.accept_ratio"] = float64(st.Accepts) / float64(d)
	}
	if best := sys.Tuner.BestUtility(); best > -1e300 && best < 1e300 {
		ex["tuner.best_utility"] = best
	}
}

// flowResults checks that exactly the expected flows completed with the
// expected bytes, computes FCT slowdowns by class, and returns the digest
// of the sorted flow records.
func flowResults(c *runCtx, n *sim.Network, wantFlows int, wantBytes int64) fnv64 {
	recs := append([]sim.FlowRecord(nil), n.Completed...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	h := newFNV()
	var bytes int64
	var last eventsim.Time
	for _, r := range recs {
		bytes += r.Size
		if r.End > last {
			last = r.End
		}
		h.word(r.ID)
		h.word(uint64(r.Src))
		h.word(uint64(r.Dst))
		h.word(uint64(r.Size))
		h.word(uint64(r.Start))
		h.word(uint64(r.End))
	}
	c.res.Attempted += wantFlows
	if failed := wantFlows - len(recs); failed != 0 {
		if failed < 0 {
			failed = -failed
		}
		c.res.Failed += failed
		c.failf("%d of %d flows completed", len(recs), wantFlows)
	} else if bytes != wantBytes {
		c.failf("completed %d bytes, trace has %d", bytes, wantBytes)
	}
	c.res.Exact["sim_ms"] = last.Millis()
	c.virtualMs += n.Eng.Now().Millis()

	c.tr.begin("metrics.summarize_ms")
	start := time.Now()
	classSlowdowns(c.res.Exact, metrics.Slowdowns(n, recs))
	c.res.Host["metrics.summarize_ms"] = seconds(time.Since(start)) * 1e3
	c.tr.end()
	return h
}

// classSlowdowns fills the FCT-by-class metrics from per-flow slowdowns,
// with the program's own nearest-rank percentile, so that they read like its
// FCT reports.
func classSlowdowns(ex map[string]float64, sl []metrics.Slowdown) {
	var all, mice, elephants []float64
	for _, s := range sl {
		all = append(all, s.Value)
		switch {
		case s.Size <= miceMaxBytes:
			mice = append(mice, s.Value)
		case s.Size > elephantMinBytes:
			elephants = append(elephants, s.Value)
		}
	}
	if len(all) > 0 {
		ex["slowdown_p99"] = metrics.Percentile(all, 0.99)
	}
	if len(mice) > 0 {
		ex["mice_slowdown_mean"] = metrics.Mean(mice)
		ex["mice_slowdown_p99"] = metrics.Percentile(mice, 0.99)
	}
	if len(elephants) > 0 {
		ex["elephant_slowdown_mean"] = metrics.Mean(elephants)
	}
}

// hashParams folds the final parameter vectors of the fabric into h.
func hashParams(h *fnv64, n *sim.Network) {
	for _, v := range dcqcn.Vector(n.RNICParams()) {
		h.float(v)
	}
	for _, sn := range n.Topo.SwitchIDs() {
		sp := n.SwitchParams(sn)
		h.word(uint64(sp.KminBytes))
		h.word(uint64(sp.KmaxBytes))
		h.float(sp.PMax)
	}
}

func (c *runCtx) setDigest(h fnv64) { c.res.Digest = fmt.Sprintf("%016x", uint64(h)) }

// maxVirtual bounds every fabric run: a flow not complete by then failed.
const maxVirtual = 2 * eventsim.Second

// runFB is the paper's headline experiment: FB_Hadoop at 30% load on the
// paper fabric under the closed loop, run until every flow completes.
func runFB(c *runCtx) error {
	cfg := fabricConfig(c)
	cfg.Params = harness.ParaleonScheme().Static
	n, err := buildFabric(c, cfg)
	if err != nil {
		return err
	}
	sys, reg, err := attachLoop(c, n)
	if err != nil {
		return err
	}
	var flows []workload.TraceFlow
	if err := c.timeStep("workload.install_s", func() error {
		rng := rand.New(rand.NewSource(c.seed))
		flows = poissonTrace(rng, workload.FBHadoop(), len(n.Hosts), cfg.Clos.HostsPerToR, n.HostLinkBps(), 0.3, int64(c.size.FBTraceMs*1e6))
		return workload.InstallReplay(n, flows, 0)
	}); err != nil {
		return err
	}

	c.beginTimed()
	hwm := closedLoop(c, n, sys, func() bool { return len(n.Completed) >= len(flows) }, maxVirtual)
	c.endTimed()

	h := flowResults(c, n, len(flows), traceBytes(flows))
	hashParams(&h, n)
	c.setDigest(h)
	fabricCounts(c, n, hwm)
	loopCounts(c, sys, reg)
	return nil
}

// runA2A is the paper's LLM-training workload: alltoall rounds among every
// fourth host, so that all ToRs carry traffic, under the closed loop.
func runA2A(c *runCtx) error {
	cfg := fabricConfig(c)
	cfg.Params = harness.ParaleonScheme().Static
	n, err := buildFabric(c, cfg)
	if err != nil {
		return err
	}
	sys, reg, err := attachLoop(c, n)
	if err != nil {
		return err
	}
	hosts := n.Topo.Hosts()
	stride := len(hosts) / c.size.A2AWorkers
	if stride < 1 {
		return fmt.Errorf("fabric has %d hosts, alltoall wants %d workers", len(hosts), c.size.A2AWorkers)
	}
	// The seed picks which host of each stride-sized group is the worker.
	offset := int(uint64(c.seed) % uint64(stride))
	workers := make([]topology.NodeID, c.size.A2AWorkers)
	for i := range workers {
		workers[i] = hosts[i*stride+offset]
	}
	var gen *workload.AlltoallGen
	if err := c.timeStep("workload.install_s", func() error {
		var err error
		gen, err = workload.InstallAlltoall(n, workload.AlltoallConfig{
			Workers:      workers,
			MessageBytes: c.size.A2ABytes,
			OffTime:      2 * eventsim.Millisecond,
			Rounds:       c.size.A2ARounds,
		})
		return err
	}); err != nil {
		return err
	}

	c.beginTimed()
	hwm := closedLoop(c, n, sys, func() bool { return gen.RoundsDone >= c.size.A2ARounds }, maxVirtual)
	c.endTimed()

	pairs := len(workers) * (len(workers) - 1)
	wantFlows := pairs * c.size.A2ARounds
	if len(gen.FlowIDs) != wantFlows {
		c.failf("alltoall launched %d flows, want %d", len(gen.FlowIDs), wantFlows)
	}
	h := flowResults(c, n, wantFlows, int64(wantFlows)*c.size.A2ABytes)
	hashParams(&h, n)
	c.setDigest(h)
	fabricCounts(c, n, hwm)
	loopCounts(c, sys, reg)
	return nil
}

// runClos drains a fixed trace on a 4096-host fabric with static default
// parameters and no control loop.
func runClos(c *runCtx) error {
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: c.size.ClosToRs, NumLeaf: c.size.ClosLeaves, HostsPerToR: c.size.ClosHostsPerToR,
		HostLinkBps: 100e9, FabricLinkBps: 400e9,
		PropDelay: 2 * eventsim.Microsecond,
	}
	cfg.Params = dcqcn.DefaultParams()
	cfg.Seed = c.seed
	n, err := buildFabric(c, cfg)
	if err != nil {
		return err
	}
	var flows []workload.TraceFlow
	if err := c.timeStep("workload.install_s", func() error {
		flows = drainTrace(rand.New(rand.NewSource(c.seed)), c.size)
		return workload.InstallReplay(n, flows, 0)
	}); err != nil {
		return err
	}

	c.beginTimed()
	hwm := 0
	for len(n.Completed) < len(flows) && n.Pending() > 0 && n.Eng.Now() < maxVirtual {
		c.tr.begin("net.run")
		n.RunUntilIdle(n.Eng.Now() + interval)
		c.tr.end()
		if p := n.Pending(); p > hwm {
			hwm = p
		}
	}
	c.tr.begin("drain")
	n.RunUntilIdle(n.Eng.Now() + interval)
	c.tr.end()
	c.endTimed()

	h := flowResults(c, n, len(flows), traceBytes(flows))
	hashParams(&h, n)
	c.setDigest(h)
	fabricCounts(c, n, hwm)
	return nil
}

// drainTrace gives every host ClosFlowsPerHost flows of ClosFlowBytes,
// alternately to a host of its own rack and to a host anywhere else, with
// starts uniform over one virtual millisecond.
func drainTrace(rng *rand.Rand, sz size) []workload.TraceFlow {
	perRack := sz.ClosHostsPerToR
	hosts := sz.ClosToRs * perRack
	flows := make([]workload.TraceFlow, 0, hosts*sz.ClosFlowsPerHost)
	for src := 0; src < hosts; src++ {
		rack := src / perRack
		for k := 0; k < sz.ClosFlowsPerHost; k++ {
			var dst int
			if (src+k)%2 == 0 {
				dst = rack*perRack + rng.Intn(perRack-1)
				if dst >= src {
					dst++
				}
			} else {
				dst = rng.Intn(hosts - perRack)
				if dst >= rack*perRack {
					dst += perRack
				}
			}
			flows = append(flows, workload.TraceFlow{
				StartNs:  rng.Int63n(int64(eventsim.Millisecond)),
				SrcIndex: src, DstIndex: dst, Bytes: sz.ClosFlowBytes,
			})
		}
	}
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].StartNs < flows[j].StartNs })
	return flows
}
