package harness

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ctrlrpc"
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// chaosSink counts fault activity and forwards it to the run's event
// log, the chaos telemetry family, and the flight recorder (where a
// fault trips an anomaly snapshot).
type chaosSink struct {
	log              *trace.Recorder
	tm               *telemetry.ChaosMetrics
	flight           *series.Recorder
	now              func() eventsim.Time
	faults, recovers int
}

func (s *chaosSink) Fault(fault, target string) {
	s.faults++
	s.tm.Faults.Inc()
	s.log.Fault(0, fault, target)
	if s.flight != nil {
		s.flight.Trip(int64(s.now()), "chaos_fault", fault+" "+target)
	}
}

func (s *chaosSink) Recover(fault, target string) {
	s.recovers++
	s.tm.Recovers.Inc()
	s.log.Recover(0, fault, target)
}

// chaosRig is what every in-simulation chaos run builds around its
// network: the event log, the fault sink, the flight recorder, and one
// agent per ToR behind a FlakySource so a scenario can crash it.
type chaosRig struct {
	n *sim.Network
	// sysCfg is the caller's system with the rig's registry, interval,
	// agents, event log and flight recorder.
	sysCfg core.SystemConfig
	log    *trace.Recorder
	sink   *chaosSink
	flight *series.Recorder
	flaky  []*chaos.FlakySource
}

// newChaosRig builds the network on default parameters and the rig
// around it. traceTo, when set, receives the event log as JSON Lines;
// blackbox, when set, turns on the flight recorder named by meta, whose
// artifact carries the log's tail.
func newChaosRig(scale Scale, sysCfg core.SystemConfig, traceTo, blackbox io.Writer, meta series.Meta) (*chaosRig, error) {
	interval := scale.Interval
	if interval <= 0 {
		interval = eventsim.Millisecond
	}
	netCfg := scale.Net
	netCfg.Params = dcqcn.DefaultParams()
	n, err := sim.New(netCfg)
	if err != nil {
		return nil, err
	}
	r := &chaosRig{n: n}
	if traceTo != nil || blackbox != nil {
		r.log = trace.New(func() int64 { return int64(n.Eng.Now()) }, traceTo, blackbox != nil)
	}
	reg := sysCfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	r.sink = &chaosSink{log: r.log, tm: telemetry.NewChaosMetrics(reg), now: n.Eng.Now}
	if blackbox != nil {
		meta.IntervalNs = int64(interval)
		r.flight = series.NewRecorder(meta)
		r.flight.Log = r.log
		r.sink.flight = r.flight
		// Flow completion times feed the registry histogram the artifact
		// embeds; the hook is composable observation only.
		fct := telemetry.NewSimMetrics(reg).FCTMs
		n.AddFlowCompleteHook(func(fr sim.FlowRecord) {
			fct.Observe(float64(fr.FCT()) / 1e6)
		})
	}
	sysCfg.Telemetry, sysCfg.Interval, sysCfg.Trace, sysCfg.Flight = reg, interval, r.log, r.flight
	sysCfg.Sources = nil
	sketchTM := telemetry.NewSketchMetrics(reg)
	for i, tor := range n.Topo.ToRs() {
		a := monitor.NewSwitchAgent(sysCfg.Agent, uint64(i+1))
		a.TM = sketchTM
		a.Attach(n.Switch(tor))
		f := chaos.NewFlakySource(a)
		r.flaky = append(r.flaky, f)
		sysCfg.Sources = append(sysCfg.Sources, f)
	}
	r.sysCfg = sysCfg
	return r, nil
}

// attach deploys Paraleon on the rig's agents, with the controller's and
// the system's degradation hooks feeding the sink and its sessions traced
// as spans that link their dispatches and rollbacks.
func (r *chaosRig) attach() (*core.System, error) {
	sys, err := core.Attach(r.n, r.sysCfg)
	if err != nil {
		return nil, err
	}
	sys.Controller.OnFault = func(fault string, agent int) { r.sink.Fault(fault, chaosTarget(agent)) }
	sys.Controller.OnRecover = func(fault string, agent int) { r.sink.Recover(fault, chaosTarget(agent)) }
	if r.flight != nil {
		m := r.flight.Meta()
		m.Tuner = sys.Tuner.Name()
		r.flight.SetMeta(m)
	}
	return sys, nil
}

// tick closes one interval of sys and logs its sample.
func (r *chaosRig) tick(sys *core.System) loop.RuntimeSample {
	sys.TickOnce()
	r.log.Sample(0, sys.LastSample)
	return sys.LastSample
}

// utility is Equation (1) of s under the system's weights.
func (r *chaosRig) utility(s loop.RuntimeSample) float64 {
	w := r.sysCfg.Weights
	if w.Validate() != nil {
		w = tuner.DefaultWeights()
	}
	return tuner.Utility(s, w)
}

// finish flushes the JSON Lines trace and writes the flight-recorder
// artifact to blackbox. It returns the number of trace events written.
func (r *chaosRig) finish(blackbox io.Writer) (int, error) {
	if err := r.log.Flush(); err != nil {
		return 0, fmt.Errorf("chaos trace: %w", err)
	}
	events := 0
	if r.log != nil {
		events = r.log.Events
	}
	if r.flight != nil {
		now := int64(r.n.Eng.Now())
		if err := r.n.CheckPoolInvariant(); err != nil {
			r.flight.Trip(now, "pool_invariant", err.Error())
		}
		if err := r.flight.WriteArtifact(blackbox, now, r.sysCfg.Telemetry); err != nil {
			return 0, fmt.Errorf("chaos blackbox: %w", err)
		}
	}
	return events, nil
}

// chaosTarget renders a controller fault callback's agent index.
func chaosTarget(agent int) string {
	if agent < 0 {
		return "controller"
	}
	return fmt.Sprintf("agent %d", agent)
}

// DefaultChaosSystemConfig is the Paraleon deployment chaos runs use:
// the standard system with the compressed SA schedule.
func DefaultChaosSystemConfig() core.SystemConfig {
	cfg := core.DefaultSystemConfig()
	cfg.SA = tuner.ShortSAConfig()
	return cfg
}

// ChaosRunConfig executes a Paraleon arm with a fault scenario injected.
type ChaosRunConfig struct {
	Scale     Scale
	SystemCfg core.SystemConfig

	// Scenario is the fault plan; ScenarioFn, when set, builds it from
	// the freshly constructed network (experiments that need to name
	// concrete links) and takes precedence.
	Scenario   chaos.Scenario
	ScenarioFn func(n *sim.Network) chaos.Scenario

	Duration eventsim.Time
	Workload func(n *sim.Network) error

	// TraceTo, when non-nil, receives the run's JSON Lines event trace
	// (samples, dispatches, faults, recoveries, rollbacks). With a fixed
	// scenario seed the trace is byte-identical across runs.
	TraceTo io.Writer

	// Blackbox, when non-nil, attaches the flight recorder and receives
	// the run's black-box artifact (internal/telemetry/series) when the
	// run ends: the sampled trajectory, anomaly snapshots around every
	// rollback/fault/freeze, the event log's tail, and registry histogram
	// quantiles. With a fixed scenario seed the artifact is byte-identical
	// across runs (give SystemCfg.Telemetry a fresh registry if the
	// process-wide default would mix runs). Experiment names the run in
	// the artifact's meta.
	Blackbox   io.Writer
	Experiment string
	// ScaleLabel names the fabric scale in the artifact meta ("quick",
	// "medium", "paper"); optional.
	ScaleLabel string
}

// ChaosResult is a chaos run's outcome: the usual series plus the
// degradation ledger.
type ChaosResult struct {
	Net     *sim.Network
	Sources []*chaos.FlakySource

	TP, RTT, PFC, Utility *series.Series

	// Faults / Recovers count injected-fault and recovery events
	// (including controller-detected ones like eviction and quorum loss).
	Faults, Recovers int
	// FrozenIntervals, Evictions, Readmits, Rollbacks, Dispatches, and
	// Triggers summarize how the control loop rode the faults out.
	FrozenIntervals, Evictions, Readmits int
	Rollbacks, Dispatches, Triggers      int
	// TraceEvents counts records written to TraceTo.
	TraceEvents int
}

// RunChaos executes one Paraleon run under fault injection: agents are
// wrapped in chaos.FlakySources so the scenario can crash them, the
// injector schedules the data-plane faults, and the controller/system
// degradation hooks feed the same sink (and trace) as the injector.
func RunChaos(cfg ChaosRunConfig) (*ChaosResult, error) {
	if cfg.SystemCfg.Interval <= 0 && cfg.SystemCfg.Theta == 0 {
		deg := cfg.SystemCfg.Degrade
		cfg.SystemCfg = DefaultChaosSystemConfig()
		cfg.SystemCfg.Degrade = deg
	}
	rig, err := newChaosRig(cfg.Scale, cfg.SystemCfg, cfg.TraceTo, cfg.Blackbox, series.Meta{
		Experiment: cfg.Experiment,
		Scale:      cfg.ScaleLabel,
		HorizonNs:  int64(cfg.Duration),
	})
	if err != nil {
		return nil, err
	}
	n := rig.n
	scenario := cfg.Scenario
	if cfg.ScenarioFn != nil {
		scenario = cfg.ScenarioFn(n)
	}
	if rig.flight != nil {
		m := rig.flight.Meta()
		m.Seed = scenario.Seed
		rig.flight.SetMeta(m)
	}
	sys, err := rig.attach()
	if err != nil {
		return nil, err
	}
	// The injector schedules engine events, so it installs after
	// core.Attach, where the recorded goldens put it.
	if err := chaos.NewInjector(n, rig.flaky, rig.sink).Install(scenario); err != nil {
		return nil, err
	}
	sys.StartProbingOnly()
	if cfg.Workload != nil {
		if err := cfg.Workload(n); err != nil {
			return nil, err
		}
	}

	res := &ChaosResult{Net: n, Sources: rig.flaky}
	interval := rig.sysCfg.Interval
	ticks := int(cfg.Duration / interval)
	res.TP, res.RTT, res.PFC, res.Utility = runtimeSeries(ticks)
	for i := 1; i <= ticks; i++ {
		n.Run(eventsim.Time(i) * interval)
		now := int64(n.Eng.Now())
		sample := rig.tick(sys)
		res.TP.Append(now, sample.OTP)
		res.RTT.Append(now, sample.ORTT)
		res.PFC.Append(now, sample.OPFC)
		res.Utility.Append(now, rig.utility(sample))
	}
	res.Faults, res.Recovers = rig.sink.faults, rig.sink.recovers
	res.FrozenIntervals = sys.FrozenIntervals
	res.Evictions = sys.Controller.Evictions
	res.Readmits = sys.Controller.Readmits
	res.Rollbacks = sys.Rollbacks
	res.Dispatches = sys.Dispatches
	res.Triggers = sys.Controller.Triggers
	if res.TraceEvents, err = rig.finish(cfg.Blackbox); err != nil {
		return nil, err
	}
	return res, nil
}

// fabricLink returns one ToR↔Leaf link's endpoints (the first found).
func fabricLink(n *sim.Network) (a, b topology.NodeID, err error) {
	for i := range n.Topo.Links {
		l := &n.Topo.Links[i]
		ka, kb := n.Topo.Nodes[l.A].Kind, n.Topo.Nodes[l.B].Kind
		if (ka == topology.ToRSwitch && kb == topology.LeafSwitch) ||
			(ka == topology.LeafSwitch && kb == topology.ToRSwitch) {
			return l.A, l.B, nil
		}
	}
	return 0, 0, fmt.Errorf("chaos: topology has no ToR-leaf link")
}

// ChaosLinkFlapConfig is the chaos-linkflap run: a sustained cross-rack
// alltoall while one fabric uplink flaps. The flap shifts the observed
// traffic pattern, (re)starting a tuning session whose candidate
// parameters are then measured through the outage — exactly the
// situation rollback exists for: utility regresses persistently, the
// system reverts to the last-known-good vector and aborts the search.
// Callers adjust the configuration (a flight recorder, a fresh registry,
// another strategy) before RunChaos executes it.
func ChaosLinkFlapConfig(scale Scale, horizon eventsim.Time, seed int64, traceTo io.Writer) ChaosRunConfig {
	sysCfg := DefaultChaosSystemConfig()
	sysCfg.Degrade = core.DegradeConfig{RollbackWindow: 3, RollbackMargin: 0.05}
	return ChaosRunConfig{
		Scale:      scale,
		SystemCfg:  sysCfg,
		Duration:   horizon,
		TraceTo:    traceTo,
		Experiment: "chaos-linkflap",
		ScenarioFn: func(n *sim.Network) chaos.Scenario {
			a, b, err := fabricLink(n)
			if err != nil {
				return chaos.Scenario{Seed: seed}
			}
			return chaos.Scenario{
				Seed: seed,
				Links: []chaos.LinkFault{{
					A: a, B: b,
					At:      horizon / 4,
					DownFor: 3 * eventsim.Millisecond,
					Flaps:   3,
					Every:   8 * eventsim.Millisecond,
				}},
			}
		},
		Workload: crossRackAlltoall,
	}
}

// ChaosAgentCrashConfig is the chaos-agentcrash run: one of the two rack
// agents crashes mid-run (losing its sketch state) and restarts later.
// StaleAfter is set beyond the outage so the membership holds and the
// sub-quorum freeze spans the entire outage; tuning resumes the interval
// the agent returns. Fully in-simulation, so a fixed seed yields a
// byte-identical trace.
func ChaosAgentCrashConfig(scale Scale, horizon eventsim.Time, seed int64, traceTo io.Writer) ChaosRunConfig {
	sysCfg := DefaultChaosSystemConfig()
	sysCfg.Degrade = core.DegradeConfig{
		// Hold membership across the outage: with 2 racks, 1/2 present
		// vs QuorumFrac 0.6 freezes; eviction would instead shrink the
		// membership to 1/1 and unfreeze half-blind.
		StaleAfter: 1 << 20,
		QuorumFrac: 0.6,
	}
	return ChaosRunConfig{
		Scale:      scale,
		SystemCfg:  sysCfg,
		Duration:   horizon,
		TraceTo:    traceTo,
		Experiment: "chaos-agentcrash",
		Scenario: chaos.Scenario{
			Seed: seed,
			Agents: []chaos.AgentFault{{
				Agent:     0,
				CrashAt:   horizon * 3 / 10,
				RestartAt: horizon * 6 / 10,
			}},
		},
		Workload: crossRackAlltoall,
	}
}

// ChaosPartitionResult summarizes a control-plane partition run.
type ChaosPartitionResult struct {
	// Ticks is how many monitor intervals ran; TickErrors and
	// ReportErrors count calls that failed even after redial.
	Ticks, TickErrors, ReportErrors int
	// Reconnects sums agent and driver redials; ServerRestarts counts
	// controller kills.
	Reconnects     int
	ServerRestarts int
	// Drops, Dups, and Truncs count injected transport faults.
	Drops, Dups, Truncs int
	// Dispatches counts parameter applications that made it through.
	Dispatches int

	TP *series.Series
}

// ChaosCtrlPartition is the chaos-ctrlpartition experiment: the testbed
// control plane (real TCP loopback) under transport faults and a
// controller kill+restart. Agents use reconnecting clients whose dialer
// wraps every connection in a FaultyConn; halfway through, the
// controller process is killed and a fresh one binds the same address,
// losing all aggregation state. The run demonstrates that the loop
// degrades (some intervals lose reports) but never wedges.
//
// The control plane runs on wall-clock TCP, so unlike the in-simulation
// experiments the fault *pattern* is seeded but the interleaving is not
// byte-deterministic.
func ChaosCtrlPartition(scale Scale, duration eventsim.Time, seed int64) (*ChaosPartitionResult, error) {
	interval := scale.Interval
	if interval <= 0 {
		interval = eventsim.Millisecond
	}
	srvCfg := ctrlrpc.DefaultServerConfig()
	srvCfg.SA = tuner.ShortSAConfig()

	netCfg := scale.Net
	netCfg.Params = srvCfg.Base
	n, err := sim.New(netCfg)
	if err != nil {
		return nil, err
	}
	srv, err := ctrlrpc.Serve("127.0.0.1:0", srvCfg)
	if err != nil {
		return nil, err
	}
	defer func() { srv.Close() }()
	addr := srv.Addr()

	faults := chaos.ConnFaults{
		DropProb:    0.05,
		DupProb:     0.02,
		TruncProb:   0.02,
		DropTimeout: 25 * time.Millisecond,
	}
	var dialSeq int64
	var conns []*chaos.FaultyConn
	faultyDial := func(addr string) (*ctrlrpc.Client, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		dialSeq++
		f := faults
		f.Seed = seed + dialSeq
		fc := f.Wrap(conn)
		conns = append(conns, fc)
		return ctrlrpc.NewClient(fc), nil
	}

	rpcTM := telemetry.NewRPCMetrics(telemetry.Default())
	sketchTM := telemetry.NewSketchMetrics(telemetry.Default())
	views := rackViews(n)
	agents := make([]*monitor.SwitchAgent, len(views))
	clients := make([]*ctrlrpc.ReconnClient, len(views))
	for i, v := range views {
		agents[i] = monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), uint64(i+1))
		agents[i].TM = sketchTM
		agents[i].Attach(n.Switch(v.tor))
		rc, err := ctrlrpc.DialReconnectingWith(addr, 10, 2*time.Millisecond, 20*time.Millisecond, faultyDial)
		if err != nil {
			return nil, err
		}
		rc.TM = rpcTM
		rc.SeedBackoff(seed + int64(i))
		defer rc.Close()
		clients[i] = rc
	}
	// The tick driver gets clean connections: its job is to show the
	// endpoint kill/restart recovery, not to fight frame faults too.
	driver, err := ctrlrpc.DialReconnectingWith(addr, 10, 2*time.Millisecond, 20*time.Millisecond, nil)
	if err != nil {
		return nil, err
	}
	driver.TM = rpcTM
	driver.SeedBackoff(seed - 1)
	defer driver.Close()

	for _, h := range n.Hosts {
		h.StartProbing(interval / 4)
	}
	if _, err := workload.InstallPoisson(n, workload.PoissonConfig{
		CDF: workload.FBHadoop(), Load: 0.3,
	}); err != nil {
		return nil, err
	}

	ticks := int(duration / interval)
	res := &ChaosPartitionResult{}
	res.TP, _, _, _ = runtimeSeries(ticks)
	restartAt := ticks / 2
	for seq := 1; seq <= ticks; seq++ {
		if seq == restartAt {
			// Kill the controller and bring a fresh one up on the same
			// address: established connections break, aggregation state
			// is lost, and every client must redial.
			srv.Close()
			s2, err := ctrlrpc.Serve(addr, srvCfg)
			if err != nil {
				return nil, fmt.Errorf("chaos: controller restart: %w", err)
			}
			srv = s2
			res.ServerRestarts++
		}
		n.Run(eventsim.Time(seq) * interval)
		now := n.Eng.Now()
		var tpSum float64
		var tpLinks int32
		for i, v := range views {
			r := rackReport(n, v, agents[i], i, seq, interval)
			if err := clients[i].SendReport(r); err != nil {
				res.ReportErrors++ // degraded interval, not fatal
			}
			tpSum += r.UtilSum
			tpLinks += r.ActiveLinks
		}
		tick, err := driver.Tick(uint64(seq), time.Duration(interval))
		if err != nil {
			res.TickErrors++
		} else if tick.Changed {
			n.ApplyParams(tick.Params)
			res.Dispatches++
		}
		tp := 0.0
		if tpLinks > 0 {
			tp = tpSum / float64(tpLinks)
		}
		res.TP.Append(int64(now), tp)
		res.Ticks++
	}
	for _, c := range clients {
		res.Reconnects += c.Reconnects
	}
	res.Reconnects += driver.Reconnects
	for _, fc := range conns {
		res.Drops += fc.Drops
		res.Dups += fc.Dups
		res.Truncs += fc.Truncs
	}
	return res, nil
}
