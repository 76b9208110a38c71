package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ctrlrpc"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// TestbedConfig drives the §IV-C "real testbed" mode: the data plane is
// simulated, but the control plane is the real thing — per-ToR agents
// upload metrics to a ctrlrpc controller over TCP loopback and apply the
// parameters it returns, exactly as the prototype's switch/server agents
// talk to the Infrawaves controller.
type TestbedConfig struct {
	Scale    Scale
	Server   ctrlrpc.ServerConfig
	Duration eventsim.Time
	// Interval is λ_MI (the paper uses 30 ms on the testbed; the
	// reproduction default follows Scale.Interval).
	Interval eventsim.Time
	Workload func(n *sim.Network) error
	// DrainAfter keeps simulating (without control traffic) until every
	// started flow has a completion record or MaxTime is hit.
	DrainAfter bool
	MaxTime    eventsim.Time
	// ControllerAddr, when non-empty, connects to an already-running
	// controller (e.g. cmd/paraleon-controller) instead of starting one
	// in-process; Server is then ignored and Server stats are zero.
	ControllerAddr string
	// Telemetry selects the metrics registry the run instruments itself
	// against; nil means telemetry.Default().
	Telemetry *telemetry.Registry
}

// TestbedResult carries the run's series plus control-plane overheads.
type TestbedResult struct {
	Net     *sim.Network
	TP, RTT metrics.Series

	// Server is the controller's own accounting.
	Server ctrlrpc.ServerStats
	// ReportBytes / ParamsBytes are the observed wire sizes of one
	// report and one params frame (Table IV's data-transfer rows).
	ReportBytes, ParamsBytes int
	// AgentBytesOut sums all agent uploads.
	AgentBytesOut int64
	// Dispatches counts parameter applications to the fabric.
	Dispatches int
	// Incomplete counts started flows with no completion record when the
	// run ended; non-zero after a DrainAfter run means MaxTime cut it.
	Incomplete int
}

// rackView indexes the per-ToR scope an agent reports on.
type rackView struct {
	tor      topology.NodeID
	hosts    []topology.NodeID
	torPorts []int // host-facing ports on the ToR
}

func rackViews(n *sim.Network) []rackView {
	views := map[topology.NodeID]*rackView{}
	var order []topology.NodeID
	for _, tor := range n.Topo.ToRs() {
		views[tor] = &rackView{tor: tor}
		order = append(order, tor)
	}
	for i := range n.Topo.Links {
		l := &n.Topo.Links[i]
		a, b := n.Topo.Nodes[l.A], n.Topo.Nodes[l.B]
		switch {
		case a.Kind == topology.Host && b.Kind == topology.ToRSwitch:
			v := views[l.B]
			v.hosts = append(v.hosts, l.A)
			v.torPorts = append(v.torPorts, l.BPort)
		case b.Kind == topology.Host && a.Kind == topology.ToRSwitch:
			v := views[l.A]
			v.hosts = append(v.hosts, l.B)
			v.torPorts = append(v.torPorts, l.APort)
		}
	}
	out := make([]rackView, 0, len(order))
	for _, tor := range order {
		out = append(out, *views[tor])
	}
	return out
}

// sampleRack builds one agent's runtime-metric contribution.
func sampleRack(n *sim.Network, v rackView, interval eventsim.Time) (utilSum float64, links int32, rttSum float64, rttCount int64, pauseSum float64, devices int32) {
	seconds := interval.Seconds()
	sw := n.Switch(v.tor)
	for i, host := range v.hosts {
		hp := n.Host(host).Port()
		tp := sw.Port(v.torPorts[i])
		for _, p := range []*netdev.EgressPort{hp, tp} {
			bytes := p.TakeTxDataBytes()
			if bytes <= 0 {
				continue
			}
			u := float64(bytes*8) / (p.RateBps() * seconds)
			if u > 1 {
				u = 1
			}
			utilSum += u
			links++
		}
		s, c := n.Host(host).TakeRTT()
		rttSum += s
		rttCount += c
		hostPause := float64(hp.TakePausedTime()) / float64(interval)
		if hostPause > 1 {
			hostPause = 1
		}
		pauseSum += hostPause
		devices++
	}
	swPause := float64(sw.TakePausedTime()) / (float64(sw.NumPorts()) * float64(interval))
	if swPause > 1 {
		swPause = 1
	}
	pauseSum += swPause
	devices++
	return utilSum, links, rttSum, rttCount, pauseSum, devices
}

// RunTestbed executes one testbed-mode run against a live controller.
func RunTestbed(cfg TestbedConfig) (*TestbedResult, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Scale.Interval
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = cfg.Duration + 10*eventsim.Second
	}
	netCfg := cfg.Scale.Net
	netCfg.Params = cfg.Server.Base
	n, err := sim.New(netCfg)
	if err != nil {
		return nil, err
	}

	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	addr := cfg.ControllerAddr
	var srv *ctrlrpc.Server
	if addr == "" {
		srvCfg := cfg.Server
		if srvCfg.Telemetry == nil {
			srvCfg.Telemetry = reg
		}
		srv, err = ctrlrpc.Serve("127.0.0.1:0", srvCfg)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		addr = srv.Addr()
	}

	rpcTM := telemetry.NewRPCMetrics(reg)
	sketchTM := telemetry.NewSketchMetrics(reg)
	views := rackViews(n)
	agents := make([]*monitor.SwitchAgent, len(views))
	clients := make([]*ctrlrpc.Client, len(views))
	for i, v := range views {
		agents[i] = monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), uint64(i+1))
		agents[i].TM = sketchTM
		agents[i].Attach(n.Switch(v.tor))
		c, err := ctrlrpc.Dial(addr)
		if err != nil {
			return nil, err
		}
		c.TM = rpcTM
		defer c.Close()
		clients[i] = c
	}
	driver, err := ctrlrpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	driver.TM = rpcTM
	defer driver.Close()

	for _, h := range n.Hosts {
		h.StartProbing(cfg.Interval / 4)
	}
	if err := cfg.Workload(n); err != nil {
		return nil, err
	}

	res := &TestbedResult{Net: n}
	ticks := int(cfg.Duration / cfg.Interval)
	for seq := 1; seq <= ticks; seq++ {
		n.Run(eventsim.Time(seq) * cfg.Interval)
		now := n.Eng.Now()
		var tpSum, rttSum float64
		var tpLinks int32
		var rttN int64
		for i, v := range views {
			mr := agents[i].EndInterval()
			r := ctrlrpc.Report{AgentID: uint32(i), Seq: uint64(seq), Flows: int32(mr.Flows)}
			r.Hist = mr.Hist
			r.ElephantBytes = mr.ElephantBytes
			r.MiceBytes = mr.MiceBytes
			r.ElephantFlowsW = mr.ElephantFlowsW
			r.MiceFlowsW = mr.MiceFlowsW
			us, links, rs, rc, ps, dev := sampleRack(n, v, cfg.Interval)
			r.UtilSum, r.ActiveLinks = us, links
			r.RTTNormSum, r.RTTCount = rs, rc
			r.PauseFracSum, r.Devices = ps, dev
			before := clients[i].BytesOut
			if err := clients[i].SendReport(r); err != nil {
				return nil, fmt.Errorf("testbed: report: %w", err)
			}
			res.ReportBytes = int(clients[i].BytesOut - before)
			res.AgentBytesOut += clients[i].BytesOut - before
			tpSum += us
			tpLinks += links
			rttSum += rs
			rttN += rc
		}
		beforeIn := driver.BytesIn
		tick, err := driver.Tick(uint64(seq), time.Duration(cfg.Interval))
		if err != nil {
			return nil, fmt.Errorf("testbed: tick: %w", err)
		}
		res.ParamsBytes = int(driver.BytesIn - beforeIn)
		if tick.Changed {
			n.ApplyParams(tick.Params)
			res.Dispatches++
			// Every agent confirms the applied (epoch, vector-hash) so the
			// controller's quorum view covers the whole fabric.
			hash := dispatch.VectorHash(&tick.Params)
			for i := range clients {
				ack := ctrlrpc.AckMsg{AgentID: uint32(i), Epoch: tick.Epoch, VectorHash: hash, Applied: true}
				if err := clients[i].SendApplyAck(ack); err != nil {
					return nil, fmt.Errorf("testbed: apply-ack: %w", err)
				}
			}
		}
		tp := 0.0
		if tpLinks > 0 {
			tp = tpSum / float64(tpLinks)
		}
		rtt := 1.0
		if rttN > 0 {
			rtt = rttSum / float64(rttN)
		}
		res.TP.Append(now, tp)
		res.RTT.Append(now, rtt)
	}
	if cfg.DrainAfter {
		drainFlows(n, cfg.Interval, cfg.MaxTime)
	}
	res.Incomplete = n.IncompleteFlows()
	if srv != nil {
		res.Server = srv.Stats()
	}
	return res, nil
}

// drainFlows runs n a step at a time until every started flow has a
// completion record or maxTime is reached. It ends on the receivers' view
// (see sim.Network.IncompleteFlows), as Run's drain does: the testbed's
// probe timers keep the engine busy, so RunUntilIdle would run to maxTime.
func drainFlows(n *sim.Network, step, maxTime eventsim.Time) {
	for n.Eng.Now() < maxTime && n.IncompleteFlows() > 0 {
		n.Run(min(n.Eng.Now()+step, maxTime))
	}
}

// --- Fig 13: testbed alltoall bandwidth vs scale ---

// Fig13Result maps worker count × scheme to mean alltoall goodput (Gbps).
type Fig13Result struct {
	WorkerCounts []int
	GoodputGbps  map[int]map[string]float64
	Order        []string
}

// Fig13 compares default, expert, and TCP-control-plane Paraleon on a
// sustained alltoall at several scales. Every arm runs rounds
// continuously for duration; goodput is averaged over the rounds of the
// second half so the adaptive arm is measured after its tuning settles,
// the same way the paper reports steady-state testbed bandwidth.
func Fig13(scale Scale, workerCounts []int, msg int64, duration eventsim.Time) (*Fig13Result, error) {
	res := &Fig13Result{
		WorkerCounts: workerCounts,
		GoodputGbps:  map[int]map[string]float64{},
		Order:        []string{"default", "expert", "paraleon"},
	}
	half := duration / 2
	for _, wc := range workerCounts {
		res.GoodputGbps[wc] = map[string]float64{}
		wl := func(n *sim.Network) (*workload.AlltoallGen, error) {
			return workload.InstallAlltoall(n, workload.AlltoallConfig{
				Workers:      n.Topo.Hosts()[:wc],
				MessageBytes: msg,
				OffTime:      2 * eventsim.Millisecond,
			})
		}
		// Static arms run in plain simulation.
		for _, sc := range []Scheme{DefaultScheme(), ExpertScheme()} {
			netCfg := scale.Net
			netCfg.Params = sc.Static
			n, err := sim.New(netCfg)
			if err != nil {
				return nil, err
			}
			g, err := wl(n)
			if err != nil {
				return nil, err
			}
			n.Run(duration)
			g.Stop()
			n.RunUntilIdle(duration + eventsim.Second)
			res.GoodputGbps[wc][sc.Name] = lateGoodputGbps(g, half)
		}
		// Paraleon runs behind the real control plane. Drain manually so
		// the generator stops launching rounds first — DrainAfter would
		// keep the collective running until MaxTime.
		var gen *workload.AlltoallGen
		srvCfg := ctrlrpc.DefaultServerConfig()
		srvCfg.SA = tuner.ShortSAConfig()
		tb, err := RunTestbed(TestbedConfig{
			Scale:    scale,
			Server:   srvCfg,
			Duration: duration,
			Workload: func(n *sim.Network) error {
				var err error
				gen, err = wl(n)
				return err
			},
		})
		if err != nil {
			return nil, err
		}
		gen.Stop()
		drainFlows(tb.Net, scale.Interval, duration+eventsim.Second)
		res.GoodputGbps[wc]["paraleon"] = lateGoodputGbps(gen, half)
	}
	return res, nil
}

// lateGoodputGbps averages round goodput over rounds completing at or
// after the cutoff (all rounds if none qualify).
func lateGoodputGbps(g *workload.AlltoallGen, after eventsim.Time) float64 {
	if g.RoundsDone == 0 {
		return 0
	}
	var sum float64
	n := 0
	for r := 0; r < g.RoundsDone; r++ {
		if g.RoundEnds[r] >= after {
			sum += g.AggregateGoodputBps(r)
			n++
		}
	}
	if n == 0 {
		for r := 0; r < g.RoundsDone; r++ {
			sum += g.AggregateGoodputBps(r)
		}
		n = g.RoundsDone
	}
	return sum / float64(n) / 1e9
}

// Fprint renders the bandwidth table.
func (r *Fig13Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Fig 13: testbed alltoall mean aggregate goodput (Gbps)")
	fmt.Fprintf(w, "  %-10s", "scheme")
	for _, wc := range r.WorkerCounts {
		fmt.Fprintf(w, "%10d", wc)
	}
	fmt.Fprintln(w)
	for _, name := range r.Order {
		fmt.Fprintf(w, "  %-10s", name)
		for _, wc := range r.WorkerCounts {
			fmt.Fprintf(w, "%10.2f", r.GoodputGbps[wc][name])
		}
		fmt.Fprintln(w)
	}
}

// --- Fig 14: testbed influx (alltoall + SolarRPC) ---

// Fig14Result holds per-scheme series for the testbed influx scenario.
type Fig14Result struct {
	Spec    InfluxSpec
	Order   []string
	TP, RTT map[string]*metrics.Series
}

// TestbedInfluxSpec sizes the §IV-C influx: the SolarRPC burst arrives at
// a load the fabric can actually serve once retuned — an overloaded burst
// grows queues monotonically no matter the parameters, leaving nothing
// for any scheme to win.
func TestbedInfluxSpec() InfluxSpec {
	spec := DefaultInfluxSpec()
	spec.BurstLoad = 0.35
	return spec
}

// Fig14 runs alltoall background traffic with a SolarRPC burst: static
// arms in plain simulation, Paraleon behind the TCP control plane.
func Fig14(scale Scale, spec InfluxSpec) (*Fig14Result, error) {
	res := &Fig14Result{
		Spec: spec,
		TP:   map[string]*metrics.Series{},
		RTT:  map[string]*metrics.Series{},
	}
	install := func(n *sim.Network) error {
		hosts := n.Topo.Hosts()
		_, err := workload.InstallInflux(n, workload.InfluxConfig{
			Background: workload.AlltoallConfig{
				Workers:      hosts[:spec.Workers],
				MessageBytes: spec.Message,
				OffTime:      5 * eventsim.Millisecond,
			},
			Burst: workload.PoissonConfig{
				Hosts:    hosts,
				CDF:      workload.SolarRPC(),
				Load:     spec.BurstLoad,
				Start:    spec.BurstAt,
				Duration: spec.BurstLen,
			},
		})
		return err
	}
	statics := []Scheme{DefaultScheme(), ExpertScheme()}
	cfgs := make([]RunConfig, 0, len(statics))
	for _, sc := range statics {
		cfgs = append(cfgs, RunConfig{
			Net:      scale.Net,
			Scheme:   sc,
			Interval: scale.Interval,
			Duration: spec.Horizon,
			Workload: install,
		})
	}
	results, err := RunAll(cfgs, scale.parallel())
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		tp, rtt := r.TP, r.RTT
		res.TP[statics[i].Name], res.RTT[statics[i].Name] = &tp, &rtt
		res.Order = append(res.Order, statics[i].Name)
	}
	srvCfg := ctrlrpc.DefaultServerConfig()
	srvCfg.SA = tuner.ShortSAConfig()
	tb, err := RunTestbed(TestbedConfig{
		Scale:    scale,
		Server:   srvCfg,
		Duration: spec.Horizon,
		Workload: install,
	})
	if err != nil {
		return nil, err
	}
	res.TP["paraleon"], res.RTT["paraleon"] = &tb.TP, &tb.RTT
	res.Order = append(res.Order, "paraleon")
	return res, nil
}

// Fprint renders burst-phase means.
func (r *Fig14Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Fig 14: testbed influx (SolarRPC burst at %v for %v)\n", r.Spec.BurstAt, r.Spec.BurstLen)
	fmt.Fprintf(w, "  %-10s %22s %22s\n", "scheme", "TP during burst", "RTTnorm during burst")
	for _, name := range r.Order {
		from, to := r.Spec.BurstAt, r.Spec.BurstAt+r.Spec.BurstLen
		fmt.Fprintf(w, "  %-10s %22.3f %22.3f\n", name,
			r.TP[name].MeanOver(from, to), r.RTT[name].MeanOver(from, to))
	}
}

// --- Table IV: system overheads ---

// Table4Result reports the control plane's measured overheads.
type Table4Result struct {
	// Data transfer per monitor interval.
	SwitchToControllerBytes int
	ControllerToFabricBytes int
	AgentTotalBytes         int64
	// Controller compute per tick.
	ProcessingPerTick time.Duration
	// Agent memory: sketch + tracker footprint estimate.
	AgentMemoryBytes int
	Ticks            int64
}

// Table4 measures overheads from a testbed run.
func Table4(scale Scale, duration eventsim.Time) (*Table4Result, error) {
	srvCfg := ctrlrpc.DefaultServerConfig()
	srvCfg.SA = tuner.ShortSAConfig()
	tb, err := RunTestbed(TestbedConfig{
		Scale:    scale,
		Server:   srvCfg,
		Duration: duration,
		Workload: func(n *sim.Network) error {
			_, err := workload.InstallPoisson(n, workload.PoissonConfig{
				CDF: workload.FBHadoop(), Load: 0.3,
			})
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	st := tb.Server
	res := &Table4Result{
		SwitchToControllerBytes: tb.ReportBytes,
		ControllerToFabricBytes: tb.ParamsBytes,
		AgentTotalBytes:         tb.AgentBytesOut,
		Ticks:                   st.Ticks,
	}
	if st.Ticks > 0 {
		res.ProcessingPerTick = st.Processing / time.Duration(st.Ticks)
	}
	// Sketch: 512 heavy buckets (~32 B each) + 4×2048 light counters
	// (8 B each), plus tracker entries.
	res.AgentMemoryBytes = 512*32 + 4*2048*8
	return res, nil
}

// Fprint renders the overhead table.
func (r *Table4Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Table IV: Paraleon system overheads (measured)")
	fmt.Fprintf(w, "  switch→controller per interval: %d B\n", r.SwitchToControllerBytes)
	fmt.Fprintf(w, "  controller→fabric per interval: %d B\n", r.ControllerToFabricBytes)
	fmt.Fprintf(w, "  controller compute per tick:    %v\n", r.ProcessingPerTick)
	fmt.Fprintf(w, "  agent memory (sketch+window):   %d B\n", r.AgentMemoryBytes)
	fmt.Fprintf(w, "  intervals processed:            %d\n", r.Ticks)
}
