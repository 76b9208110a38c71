package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ctrlrpc"
	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/topology"
	"repro/internal/tuner"
)

// Micro-drivers time one layer's public functions from outside, with
// inputs shaped like a workload. Each runs its operation in five batches
// and reports the median batch's cost per operation.

const microBatches = 5

// perOp times batch(ops) microBatches times and returns the median
// nanoseconds per operation.
func perOp(ops int, batch func(ops int)) float64 {
	costs := make([]float64, microBatches)
	for i := range costs {
		start := time.Now()
		batch(ops)
		costs[i] = float64(time.Since(start)) / float64(ops)
	}
	return median(costs)
}

// microResult is what the micro child reports: metric name → value in the
// metric's unit, plus the small-queue hold cost the budget subtracts.
type microResult struct {
	Values    map[string]float64 `json:"values"`
	HoldSmall float64            `json:"hold_small_ns"`
	// Engine events per packet hop of the forward driver, and port hops and
	// engine events per packet of the pair driver: what the budget needs to
	// subtract the cost of the layers a layer calls.
	ForwardEventsPerPkt float64  `json:"forward_events_per_pkt"`
	PairHopsPerPkt      float64  `json:"pair_hops_per_pkt"`
	PairEventsPerPkt    float64  `json:"pair_events_per_pkt"`
	Failures            []string `json:"failures,omitempty"`
}

// runMicro runs every micro-driver. pendingHWM shapes eventsim.hold_ns
// like the workload being reported on.
func runMicro(pendingHWM int, tmpDir string) *microResult {
	if pendingHWM < 16 {
		pendingHWM = 16
	}
	m := &microResult{Values: map[string]float64{}}
	v := m.Values
	v["eventsim.hold_ns"] = microHold(pendingHWM, false)
	m.HoldSmall = microHold(16, true)
	v["eventsim.rearm_ns"] = microRearm()
	var err error
	if v["netdev.forward_ns"], m.ForwardEventsPerPkt, err = microForward(); err != nil {
		m.Failures = append(m.Failures, "netdev.forward_ns: "+err.Error())
	}
	if v["rnic.pair_ns_per_pkt"], m.PairHopsPerPkt, m.PairEventsPerPkt, err = microPair(); err != nil {
		m.Failures = append(m.Failures, "rnic.pair_ns_per_pkt: "+err.Error())
	}
	v["dcqcn.cnp_cut_ns"] = microCNPCut()
	v["sketch.insert_ns.fb"] = microSketchInsert(fbKeys)
	v["sketch.insert_ns.a2a"] = microSketchInsert(a2aKeys)
	v["sketch.read_reset_us"] = microSketchReadReset()
	v["monitor.end_interval_us"], v["monitor.controller_tick_us"] = microMonitor()
	us, err := microCollector()
	if err != nil {
		m.Failures = append(m.Failures, "monitor.collector_sample_us: "+err.Error())
	}
	v["monitor.collector_sample_us"] = us
	for _, name := range []string{"sa", "multiecn", "bandit"} {
		ns, err := microTunerStep(name)
		if err != nil {
			m.Failures = append(m.Failures, "tuner.step_ns."+name+": "+err.Error())
		}
		v["tuner.step_ns."+name] = ns
	}
	v["dispatch.guard_admit_ns"] = microGuard()
	us, err = microPlan()
	if err != nil {
		m.Failures = append(m.Failures, "dispatch.plan_us: "+err.Error())
	}
	v["dispatch.plan_us"] = us
	appendUs, replayUs, err := microWAL(tmpDir)
	if err != nil {
		m.Failures = append(m.Failures, "dispatch wal: "+err.Error())
	}
	v["dispatch.filewal_append_us"], v["dispatch.wal_replay_us_per_krec"] = appendUs, replayUs
	v["ctrlrpc.encode_ns"], v["ctrlrpc.decode_ns"], err = microCodec()
	if err != nil {
		m.Failures = append(m.Failures, "ctrlrpc codec: "+err.Error())
	}
	v["telemetry.counter_inc_ns"], v["telemetry.series_append_ns"] = microTelemetry()
	return m
}

// microHold is the classic hold model: with `pending` events queued, pop
// the earliest and schedule one more, so the queue length stays put. Delays
// are exponential with a 20 µs mean, about one host-link round of the
// fabrics; with inOrder they are all equal, so every event joins the back
// of the queue — the engine's floor, and what the forward and pair drivers
// pay per event.
func microHold(pending int, inOrder bool) float64 {
	eng := eventsim.NewEngine(1)
	rng := rand.New(rand.NewSource(1))
	delays := make([]eventsim.Time, 4096)
	for i := range delays {
		delays[i] = 2 * eventsim.Microsecond
		if !inOrder {
			delays[i] = 1 + eventsim.Time(rng.ExpFloat64()*20e3)
		}
	}
	next := 0
	var h eventsim.Handler
	h = func() {
		eng.After(delays[next&4095], h)
		next++
	}
	for i := 0; i < pending; i++ {
		eng.After(delays[i&4095], h)
	}
	step := func(ops int) {
		for i := 0; i < ops; i++ {
			eng.Step()
		}
	}
	step(4 * pending) // reach the steady-state time distribution
	return perOp(400_000, step)
}

// microRearm reschedules live timers in place with 16k resident.
func microRearm() float64 {
	const resident = 16 << 10
	eng := eventsim.NewEngine(1)
	ids := make([]eventsim.EventID, resident)
	fn := func() {}
	for i := range ids {
		ids[i] = eng.TimerAfter(eventsim.Millisecond+eventsim.Time(i)*eventsim.Microsecond, fn)
	}
	i := 0
	return perOp(1_000_000, func(ops int) {
		for k := 0; k < ops; k++ {
			d := 50*eventsim.Microsecond + eventsim.Time(k&1023)*eventsim.Microsecond
			ids[i] = eng.RearmAfter(ids[i], d, fn)
			i = (i + 1) & (resident - 1)
		}
	})
}

// sinkDevice terminates packets and recycles them.
type sinkDevice struct{ pool *netdev.PacketPool }

func (s sinkDevice) Receive(pkt *netdev.Packet, inPort int) { s.pool.Put(pkt) }

// microForward is one packet hop: Switch.Receive routes and enqueues, the
// egress port serializes, the wire delivers into a sink.
func microForward() (ns, eventsPerPkt float64, err error) {
	topo, err := topology.NewClos(topology.ClosConfig{
		NumToR: 1, NumLeaf: 1, HostsPerToR: 2,
		HostLinkBps: 100e9, FabricLinkBps: 100e9, PropDelay: eventsim.Microsecond,
	})
	if err != nil {
		return 0, 0, err
	}
	eng := eventsim.NewEngine(1)
	params := dcqcn.DefaultParams()
	tor := topo.ToRs()[0]
	sw := netdev.NewSwitch(eng, topo, tor, netdev.DefaultSwitchConfig(), func() *dcqcn.Params { return &params })
	pool := netdev.NewPacketPool()
	sw.SetPacketPool(pool)
	sink := sinkDevice{pool}
	inPort := 0
	hosts := topo.Hosts()
	for i := 0; i < sw.NumPorts(); i++ {
		sw.WirePort(i, sink, 0)
		if peer, _ := topo.LinkAt(tor, i).Peer(tor); peer == hosts[0] {
			inPort = i
		}
	}
	var seq int64
	ns = perOp(400_000, func(ops int) {
		const burst = 32 // stays far below the ECN and PFC thresholds
		for done := 0; done < ops; done += burst {
			for k := 0; k < burst; k++ {
				sw.Receive(pool.NewDataPacket(1, hosts[0], hosts[1], seq, netdev.DefaultMTU, false), inPort)
				seq += netdev.DefaultMTU
			}
			eng.Run()
		}
	})
	return ns, float64(eng.Processed) / float64(seq/netdev.DefaultMTU), nil
}

// microPair is the uncongested per-packet floor of the whole data path:
// one 64 MiB flow between two hosts of one ToR.
func microPair() (ns, hopsPerPkt, eventsPerPkt float64, err error) {
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: 1, NumLeaf: 1, HostsPerToR: 2,
		HostLinkBps: 100e9, FabricLinkBps: 100e9, PropDelay: 2 * eventsim.Microsecond,
	}
	costs := make([]float64, microBatches)
	for i := range costs {
		n, err := sim.New(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		hosts := n.Topo.Hosts()
		n.StartFlow(hosts[0], hosts[1], 64<<20)
		start := time.Now()
		n.RunUntilIdle(eventsim.Second)
		elapsed := time.Since(start)
		if len(n.Completed) != 1 {
			return 0, 0, 0, fmt.Errorf("pair flow did not complete")
		}
		// Packets the sender's RNIC transmitted: data out, and nothing else
		// on an uncongested path but probes.
		pkts := float64(n.Host(hosts[0]).Stats.TxPackets)
		var hops int64
		for _, h := range n.Hosts {
			hops += h.Port().Stats.TxPackets
		}
		for _, sw := range n.Switches {
			for p := 0; p < sw.NumPorts(); p++ {
				hops += sw.Port(p).Stats.TxPackets
			}
		}
		costs[i] = float64(elapsed) / pkts
		hopsPerPkt, eventsPerPkt = float64(hops)/pkts, float64(n.Eng.Processed)/pkts
	}
	return median(costs), hopsPerPkt, eventsPerPkt, nil
}

// microCNPCut is the reaction point's rate cut with its two timer rearms.
func microCNPCut() float64 {
	eng := eventsim.NewEngine(1)
	params := dcqcn.DefaultParams()
	rp := dcqcn.NewRP(eng, func() *dcqcn.Params { return &params }, 100e9)
	rp.Start()
	return perOp(1_000_000, func(ops int) {
		for i := 0; i < ops; i++ {
			rp.OnCNP()
		}
	})
}

// fbKeys and a2aKeys are the flow-key mixes a ToR sketch sees in one
// interval of the two fabric traces: thousands of distinct mice plus a few
// dozen elephants that carry most packets, against 124 equally heavy flows
// (992 alltoall pairs over eight ToRs).
func fbKeys(rng *rand.Rand) uint64 {
	if rng.Intn(10) < 7 {
		return 1000 + uint64(rng.Intn(40))
	}
	return 10_000 + uint64(rng.Intn(3000))
}

func a2aKeys(rng *rand.Rand) uint64 { return 1000 + uint64(rng.Intn(124)) }

const sketchInterval = 16 << 10 // inserts between resets

func keyStream(keys func(*rand.Rand) uint64) []uint64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]uint64, sketchInterval)
	for i := range out {
		out[i] = keys(rng)
	}
	return out
}

func microSketchInsert(keys func(*rand.Rand) uint64) float64 {
	stream := keyStream(keys)
	sk := sketch.New(sketch.DefaultConfig(), 1)
	return perOp(64*sketchInterval, func(ops int) {
		for done := 0; done < ops; done += len(stream) {
			for _, k := range stream {
				sk.Insert(k, netdev.DefaultMTU)
			}
			sk.Reset()
		}
	})
}

// timedEach runs prepare (untimed) then op (timed) rounds times and
// returns the median op duration in microseconds.
func timedEach(rounds int, prepare func(), op func()) float64 {
	us := make([]float64, rounds)
	for i := range us {
		prepare()
		start := time.Now()
		op()
		us[i] = float64(time.Since(start)) / 1e3
	}
	return median(us)
}

func microSketchReadReset() float64 {
	stream := keyStream(fbKeys)
	sk := sketch.New(sketch.DefaultConfig(), 1)
	return timedEach(200, func() {
		for _, k := range stream {
			sk.Insert(k, netdev.DefaultMTU)
		}
	}, func() {
		sk.HeavyFlows()
		sk.LightBytes()
		sk.Reset()
	})
}

// microMonitor times one agent's interval close and one controller tick
// over eight agents, each after an fb-shaped interval of packets.
func microMonitor() (endIntervalUs, controllerTickUs float64) {
	stream := keyStream(fbKeys)
	feed := func(a *monitor.SwitchAgent) {
		pkt := netdev.Packet{Kind: netdev.KindData, PayloadBytes: netdev.DefaultMTU}
		for _, k := range stream {
			pkt.FlowID, pkt.TOSMarked = k, false
			a.OnPacket(&pkt, 0)
		}
	}
	agent := monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), 1)
	endIntervalUs = timedEach(100, func() { feed(agent) }, func() { agent.EndInterval() })

	agents := make([]*monitor.SwitchAgent, daemonAgents)
	sources := make([]monitor.ReportSource, daemonAgents)
	for i := range agents {
		agents[i] = monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), uint64(i+1))
		sources[i] = agents[i]
	}
	ctl := monitor.NewController(0.01, sources...)
	controllerTickUs = timedEach(50, func() {
		for _, a := range agents {
			feed(a)
		}
	}, func() { ctl.Tick() })
	return endIntervalUs, controllerTickUs
}

// microCollector samples runtime metrics over the paper fabric's 128-host
// scope on a network of its own, so no workload's counters are taken.
func microCollector() (float64, error) {
	n, err := sim.New(harness.PaperScale().Net)
	if err != nil {
		return 0, err
	}
	col := monitor.NewRuntimeCollector(n)
	return timedEach(200, func() {}, func() { col.Sample(interval) }), nil
}

// microTunerStep drives one strategy through Trigger/Step/Commit cycles on
// synthetic feedback and returns the cost of a Step.
func microTunerStep(name string) (float64, error) {
	tun, err := tuner.New(name, tuner.Config{
		Weights:  tuner.DefaultWeights(),
		Base:     dcqcn.DefaultParams(),
		SA:       harness.ParaleonScheme().SystemCfg.SA,
		MultiECN: tuner.MultiECNConfig{Agents: daemonAgents},
	}, 1)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(1))
	reports := daemonReports(rng, 1)
	locals := make([]monitor.Report, len(reports))
	for i := range reports {
		locals[i] = reports[i].MonitorReport()
	}
	fsd := monitor.Aggregate(locals...)
	samples := make([]monitor.RuntimeSample, 256)
	for i := range samples {
		samples[i] = monitor.RuntimeSample{
			OTP: 0.2 + 0.3*rng.Float64(), ORTT: 0.5 + 0.4*rng.Float64(), OPFC: 0.95 + 0.05*rng.Float64(),
			ActiveLinks: 24, RTTSamples: 64,
		}
	}
	ps, perSwitch := tun.(tuner.PerSwitch)
	var spent time.Duration
	steps := 0
	for i := 0; steps < 20_000; i++ {
		if !tun.Active() {
			tun.Trigger(fsd)
		}
		if perSwitch {
			ps.ObserveLocals(locals)
		}
		start := time.Now()
		p, ok := tun.Step(samples[i&255], fsd)
		spent += time.Since(start)
		steps++
		if ok {
			tun.Commit(p)
		}
	}
	return float64(spent) / float64(steps), nil
}

func microGuard() float64 {
	g := dispatch.NewGuard(dispatch.GuardConfig{})
	live, cand := dcqcn.DefaultParams(), dcqcn.ExpertParams()
	return perOp(1_000_000, func(ops int) {
		for i := 0; i < ops; i++ {
			g.Admit(&cand, &live, eventsim.Time(i))
		}
	})
}

// microPlan times a full staged rollout — submit, canary ACKs, settle
// window, promote ACKs, commit — over eight devices and an in-memory WAL.
func microPlan() (float64, error) {
	eng := eventsim.NewEngine(1)
	fab := dispatch.NewFabric(daemonAgents)
	pipe := dispatch.New(dispatch.Config{WAL: &dispatch.MemWAL{}}, eng, fab, func([]int, dcqcn.Params) {}, telemetry.NewRegistry())
	if err := pipe.Resume(dcqcn.DefaultParams(), 0); err != nil {
		return 0, err
	}
	vectors := []dcqcn.Params{dcqcn.ExpertParams(), dcqcn.DefaultParams()}
	const plans = 2000
	start := time.Now()
	for i := 0; i < plans; i++ {
		if ok, reason := pipe.SubmitFinal(vectors[i&1], 50, eng.Now()); !ok {
			return 0, fmt.Errorf("plan %d refused: %v", i, reason)
		}
		for pipe.InFlight() {
			eng.RunUntil(eng.Now() + interval)
			pipe.Tick(dispatch.Health{Utility: 50}, eng.Now())
		}
	}
	elapsed := time.Since(start)
	if pipe.Commits != plans {
		return 0, fmt.Errorf("%d of %d plans committed", pipe.Commits, plans)
	}
	return float64(elapsed) / 1e3 / plans, nil
}

// microWAL times a synced file append and a recovery replay.
func microWAL(tmpDir string) (appendUs, replayUsPerKRec float64, err error) {
	dir, err := os.MkdirTemp(tmpDir, "wal-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	p := dcqcn.DefaultParams()
	rec := dispatch.Record{Kind: dispatch.KindCommit, Params: &p, Hash: dispatch.VectorHash(&p)}

	wal, err := dispatch.OpenFileWAL(filepath.Join(dir, "append.jsonl"))
	if err != nil {
		return 0, 0, err
	}
	const appends = 100
	start := time.Now()
	for i := 0; i < appends; i++ {
		rec.Epoch = uint64(i + 1)
		if err := wal.Append(rec); err != nil {
			wal.Close()
			return 0, 0, err
		}
	}
	appendUs = float64(time.Since(start)) / 1e3 / appends
	if err := wal.Close(); err != nil {
		return 0, 0, err
	}

	// The replay input is written in one piece: a thousand synced appends
	// would only time the disk again.
	const records = 1000
	var buf bytes.Buffer
	for i := 0; i < records; i++ {
		rec.Epoch = uint64(i + 1)
		line, err := json.Marshal(rec)
		if err != nil {
			return 0, 0, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	path := filepath.Join(dir, "replay.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return 0, 0, err
	}
	wal, err = dispatch.OpenFileWAL(path)
	if err != nil {
		return 0, 0, err
	}
	defer wal.Close()
	us := make([]float64, microBatches)
	for i := range us {
		start := time.Now()
		got, err := dispatch.Recover(wal)
		us[i] = float64(time.Since(start)) / 1e3
		if err != nil {
			return 0, 0, err
		}
		if got.Epoch != records {
			return 0, 0, fmt.Errorf("replay recovered epoch %d of %d", got.Epoch, records)
		}
	}
	return appendUs, median(us), nil
}

// microCodec frames and unframes an agent report over a memory buffer.
func microCodec() (encodeNs, decodeNs float64, err error) {
	report := daemonReports(rand.New(rand.NewSource(1)), 1)[0]
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	encodeNs = perOp(100_000, func(ops int) {
		for i := 0; i < ops; i++ {
			wire.Reset()
			if _, werr := ctrlrpc.WriteFrame(bw, ctrlrpc.TypeReport, &report); werr != nil {
				err = werr
			}
		}
	})
	frame := append([]byte(nil), wire.Bytes()...)
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	decodeNs = perOp(100_000, func(ops int) {
		for i := 0; i < ops; i++ {
			rd.Reset(frame)
			br.Reset(rd)
			_, payload, _, rerr := ctrlrpc.ReadFrame(br)
			if rerr == nil {
				var out ctrlrpc.Report
				rerr = ctrlrpc.Decode(payload, &out)
			}
			if rerr != nil {
				err = rerr
			}
		}
	})
	return encodeNs, decodeNs, err
}

func microTelemetry() (counterIncNs, seriesAppendNs float64) {
	ctr := telemetry.NewRegistry().Counter("bench_counter_total", "micro-driver counter")
	counterIncNs = perOp(4_000_000, func(ops int) {
		for i := 0; i < ops; i++ {
			ctr.Inc()
		}
	})
	ser := series.NewSet(1024).Series("bench_series", "x")
	seriesAppendNs = perOp(4_000_000, func(ops int) {
		for i := 0; i < ops; i++ {
			ser.Append(int64(i), float64(i))
		}
	})
	return counterIncNs, seriesAppendNs
}
