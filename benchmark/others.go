package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runFleet drives nothing but DCQCN timers: a fleet of reaction points on
// a bare engine, every second one cut by a CNP roughly every 11 µs (the
// shape of BenchmarkEngineThroughputTimerHeavy, without the heap-only and
// suppression arms). The seed sets the engine seed and injector phases.
func runFleet(c *runCtx) error {
	const injectEvery = 11*eventsim.Microsecond + 7
	eng := eventsim.NewEngine(c.seed)
	rng := rand.New(rand.NewSource(c.seed))
	nRP := c.size.FleetRPs
	params := dcqcn.DefaultParams()
	// Alpha starts fully decayed, as on long-idle QPs.
	params.InitialAlpha = 0
	rps := make([]*dcqcn.RP, nRP)
	_ = c.timeStep("workload.install_s", func() error { // cannot fail
		eng.Reserve(3 * nRP)
		for j := range rps {
			rps[j] = dcqcn.NewRP(eng, func() *dcqcn.Params { return &params }, 100e9)
			rps[j].Start()
		}
		for j := 0; j < nRP; j += 2 {
			rp := rps[j]
			var inject eventsim.Handler
			var ev eventsim.EventID
			inject = func() {
				rp.OnCNP()
				ev = eng.RearmAfter(ev, injectEvery, inject)
			}
			ev = eng.TimerAfter(1+eventsim.Time(rng.Int63n(int64(injectEvery))), inject)
		}
		return nil
	})

	c.beginTimed()
	hwm := 0
	for ms := 1; ms <= c.size.FleetMs; ms++ {
		c.tr.begin("eng.run")
		eng.RunUntil(eventsim.Time(ms) * eventsim.Millisecond)
		c.tr.end()
		if p := eng.Pending(); p > hwm {
			hwm = p
		}
	}
	c.endTimed()

	h := newFNV()
	failed := 0
	for j, rp := range rps {
		h.float(rp.Rate())
		h.float(rp.Alpha())
		h.word(uint64(rp.Cuts))
		h.word(uint64(rp.Increases))
		// An injected QP must have been cut; an untouched one must still
		// send at line rate.
		if injected := j%2 == 0; injected != (rp.Cuts > 0) || (!injected && rp.Rate() != 100e9) {
			failed++
		}
	}
	c.res.Attempted, c.res.Failed = nRP, failed
	if failed > 0 {
		c.failf("%d of %d reaction points in the wrong state", failed, nRP)
	}
	c.setDigest(h)
	c.virtualMs = float64(c.size.FleetMs)
	ex := c.res.Exact
	ex["eventsim.events"] = float64(eng.Processed)
	ex["eventsim.pending_hwm"] = float64(hwm)
	ex["eventsim.nonpacket_event_share"] = 1
	// Every event of the fleet is a reaction-point timer, or the CNP
	// injector that cuts one.
	c.res.Host["dcqcn.rp_fire_ns"] = c.res.WallS * 1e9 / float64(eng.Processed)
	return nil
}

// sweepSchemes are the five arms of a day-to-day comparison; Label is the
// suffix of the arm's harness.arm_wall_s metric.
var sweepSchemes = []struct {
	Label  string
	Scheme func() harness.Scheme
}{
	{"default", harness.DefaultScheme},
	{"expert", harness.ExpertScheme},
	{"acc", harness.ACCScheme},
	{"dcqcnplus", harness.DCQCNPlusScheme},
	{"paraleon", harness.ParaleonScheme},
}

// runSweep runs five schemes × SweepSeeds seeds at QuickScale through
// harness.RunAll, every scheme of one seed under the same generated trace.
func runSweep(c *runCtx) error {
	scale := harness.QuickScale()
	hosts := scale.Net.Clos.NumToR * scale.Net.Clos.HostsPerToR
	window := int64(c.size.SweepMs) * int64(eventsim.Millisecond)
	var cfgs []harness.RunConfig
	var traces [][]workload.TraceFlow
	_ = c.timeStep("workload.install_s", func() error { // cannot fail
		for s := 0; s < c.size.SweepSeeds; s++ {
			armSeed := c.seed*int64(c.size.SweepSeeds) + int64(s)
			flows := poissonTrace(rand.New(rand.NewSource(armSeed)), workload.FBHadoop(), hosts, scale.Net.Clos.HostsPerToR, scale.Net.Clos.HostLinkBps, 0.3, window)
			traces = append(traces, flows)
			for _, sc := range sweepSchemes {
				netCfg := scale.Net
				netCfg.Seed = armSeed
				cfgs = append(cfgs, harness.RunConfig{
					Net: netCfg, Scheme: sc.Scheme(), Interval: scale.Interval,
					Duration: eventsim.Time(window), DrainAfter: true,
					Workload: func(n *sim.Network) error { return workload.InstallReplay(n, flows, 0) },
				})
			}
		}
		return nil
	})

	// RunAll serializes Progress calls and returns after the last one.
	armWall := make([]float64, len(cfgs))
	opts := harness.ParallelOptions{Workers: c.workers, Progress: func(st harness.ArmStatus) {
		armWall[st.Index] = st.Wall.Seconds()
	}}
	c.beginTimed()
	c.tr.begin("harness.run_all")
	results, err := harness.RunAll(cfgs, opts)
	c.tr.end()
	if err != nil {
		c.endTimed()
		return err
	}
	// harness.Run stops draining once every sender has sent its last byte
	// (ActiveFlows() == 0) plus two intervals; a PFC-throttled incast tail
	// can still be queued in the fabric then (README, findings). Deliver it,
	// so that the job is the same for every seed: all flows complete.
	c.tr.begin("drain")
	for i, r := range results {
		n := r.Net
		for len(n.Completed) < len(traces[i/len(sweepSchemes)]) && n.Eng.Now() < maxVirtual {
			n.Run(n.Eng.Now() + interval)
		}
	}
	c.tr.end()
	c.endTimed()

	h := newFNV()
	ex := c.res.Exact
	var pooled []metrics.Slowdown
	var events float64
	for i, r := range results {
		flows := traces[i/len(sweepSchemes)]
		label := sweepSchemes[i%len(sweepSchemes)].Label
		c.res.Host["harness.arm_wall_s."+label] += armWall[i] / float64(c.size.SweepSeeds)
		n := r.Net
		events += float64(n.Eng.Processed)
		c.virtualMs += n.Eng.Now().Millis()
		c.res.Attempted += len(flows)
		if got := len(n.Completed); got != len(flows) {
			c.res.Failed += len(flows) - got
			c.failf("arm %d (%s): %d of %d flows completed", i, r.SchemeName, got, len(flows))
		}
		for _, sw := range n.Switches {
			if sw.Stats.Drops != 0 {
				c.failf("arm %d (%s): %d packets dropped", i, r.SchemeName, sw.Stats.Drops)
			}
		}
		if err := n.CheckPoolInvariant(); err != nil {
			c.failf("arm %d (%s): %v", i, r.SchemeName, err)
		}
		for _, rec := range n.Completed {
			h.word(rec.ID)
			h.word(uint64(rec.End))
		}
		hashParams(&h, n)
		if label == "paraleon" {
			pooled = append(pooled, metrics.Slowdowns(n, n.Completed)...)
			ex["core.dispatches"] += float64(r.Dispatches)
			ex["core.sessions"] += float64(r.Rounds)
			ex["monitor.triggers"] += float64(r.Triggers)
		}
	}
	classSlowdowns(ex, pooled)
	delete(ex, "slowdown_p99") // reported on the single-fabric workloads only
	ex["eventsim.events"] = events
	c.setDigest(h)
	if c.tr != nil {
		// Parallel efficiency needs the same sweep on one worker; only the
		// traced run pays for it.
		c.tr.begin("harness.one_worker")
		start := time.Now()
		_, err := harness.RunAll(cfgs, harness.ParallelOptions{Workers: 1})
		one := seconds(time.Since(start))
		c.tr.end()
		if err != nil {
			return fmt.Errorf("one-worker sweep: %w", err)
		}
		c.res.Host["harness.parallel_efficiency"] = one / (float64(c.workers) * c.res.WallS)
	}
	return nil
}
