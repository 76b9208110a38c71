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
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// chaosSink counts fault activity and forwards it to an optional trace
// recorder, the chaos telemetry family, and the flight recorder (where
// a fault trips an anomaly snapshot and a recovery lands in the event
// window).
type chaosSink struct {
	rec              *trace.Recorder
	tm               *telemetry.ChaosMetrics
	flight           *series.Recorder
	now              func() eventsim.Time
	faults, recovers int
}

func (s *chaosSink) Fault(fault, target string) {
	s.faults++
	if s.tm != nil {
		s.tm.Faults.Inc()
	}
	if s.rec != nil {
		s.rec.Fault(fault, target)
	}
	if s.flight != nil {
		s.flight.Trip(int64(s.now()), "chaos_fault", fault+" "+target)
	}
}

func (s *chaosSink) Recover(fault, target string) {
	s.recovers++
	if s.tm != nil {
		s.tm.Recovers.Inc()
	}
	if s.rec != nil {
		s.rec.Recover(fault, target)
	}
	if s.flight != nil {
		s.flight.Event(int64(s.now()), "chaos_recover", fault+" "+target)
	}
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
	// rollback/fault/freeze, and registry histogram quantiles. With a
	// fixed scenario seed the artifact is byte-identical across runs
	// (give SystemCfg.Telemetry a fresh registry if the process-wide
	// default would mix runs). Experiment names the run in the
	// artifact's meta.
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

	TP, RTT, PFC, Utility metrics.Series

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

// Fprint renders the degradation ledger.
func (r *ChaosResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "  mean TP=%.3f RTTnorm=%.3f utility=%.3f\n",
		metrics.Mean(r.TP.Values), metrics.Mean(r.RTT.Values), metrics.Mean(r.Utility.Values))
	fmt.Fprintf(w, "  faults=%d recoveries=%d\n", r.Faults, r.Recovers)
	fmt.Fprintf(w, "  frozen intervals=%d evictions=%d readmits=%d\n",
		r.FrozenIntervals, r.Evictions, r.Readmits)
	fmt.Fprintf(w, "  triggers=%d dispatches=%d rollbacks=%d\n",
		r.Triggers, r.Dispatches, r.Rollbacks)
	if r.TraceEvents > 0 {
		fmt.Fprintf(w, "  trace events=%d\n", r.TraceEvents)
	}
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
	interval := cfg.Scale.Interval
	if interval <= 0 {
		interval = eventsim.Millisecond
	}

	netCfg := cfg.Scale.Net
	netCfg.Params = dcqcn.DefaultParams()
	n, err := sim.New(netCfg)
	if err != nil {
		return nil, err
	}

	var rec *trace.Recorder
	if cfg.TraceTo != nil {
		rec = trace.NewRecorder(n.Eng, cfg.TraceTo)
	}
	reg := cfg.SystemCfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	cm := telemetry.NewChaosMetrics(reg)
	sink := &chaosSink{rec: rec, tm: cm, now: n.Eng.Now}

	// Every agent rides behind a FlakySource so scenarios can kill it.
	sysCfg := cfg.SystemCfg
	sysCfg.Telemetry = reg
	sysCfg.Interval = interval

	// Scenario construction (not installation — the injector schedules
	// engine events and must keep its position below core.Attach for the
	// recorded goldens) happens early so the flight recorder can stamp
	// the scenario seed into its artifact meta.
	scenario := cfg.Scenario
	if cfg.ScenarioFn != nil {
		scenario = cfg.ScenarioFn(n)
	}

	var flight *series.Recorder
	if cfg.Blackbox != nil {
		flight = series.NewRecorder(series.Meta{
			Experiment: cfg.Experiment,
			Seed:       scenario.Seed,
			Scale:      cfg.ScaleLabel,
			IntervalNs: int64(interval),
			HorizonNs:  int64(cfg.Duration),
		})
		sysCfg.Flight = flight
		sink.flight = flight
		// Flow completion times feed the registry histogram the artifact
		// embeds; the hook is composable observation only.
		fct := telemetry.NewSimMetrics(reg).FCTMs
		n.AddFlowCompleteHook(func(fr sim.FlowRecord) {
			fct.Observe(float64(fr.FCT()) / 1e6)
		})
	}
	var flaky []*chaos.FlakySource
	var sources []loop.ReportSource
	sketchTM := telemetry.NewSketchMetrics(reg)
	for i, tor := range n.Topo.ToRs() {
		a := monitor.NewSwitchAgent(sysCfg.Agent, uint64(i+1))
		a.TM = sketchTM
		a.Attach(n.Switch(tor))
		f := chaos.NewFlakySource(a)
		flaky = append(flaky, f)
		sources = append(sources, f)
	}
	sysCfg.Sources = sources
	sys, err := core.Attach(n, sysCfg)
	if err != nil {
		return nil, err
	}
	sys.Controller.OnFault = func(fault string, agent int) { sink.Fault(fault, chaosTarget(agent)) }
	sys.Controller.OnRecover = func(fault string, agent int) { sink.Recover(fault, chaosTarget(agent)) }
	sys.OnRollback = func(dcqcn.Params) { cm.Rollbacks.Inc() }
	if rec != nil {
		// Span-linked trace: the System opens an sa_session span per
		// trigger and links its dispatches/rollbacks into it.
		sys.Trace = rec
	}
	if flight != nil {
		m := flight.Meta()
		m.Tuner = sys.Tuner.Name()
		flight.SetMeta(m)
	}

	inj := chaos.NewInjector(n, flaky, sink)
	if err := inj.Install(scenario); err != nil {
		return nil, err
	}

	weights := sysCfg.Weights
	if weights.Validate() != nil {
		weights = tuner.DefaultWeights()
	}

	sys.StartProbingOnly()
	if cfg.Workload != nil {
		if err := cfg.Workload(n); err != nil {
			return nil, err
		}
	}

	res := &ChaosResult{Net: n, Sources: flaky}
	ticks := int(cfg.Duration / interval)
	for i := 1; i <= ticks; i++ {
		n.Run(eventsim.Time(i) * interval)
		now := n.Eng.Now()
		sys.TickOnce()
		sample := sys.LastSample
		res.TP.Append(now, sample.OTP)
		res.RTT.Append(now, sample.ORTT)
		res.PFC.Append(now, sample.OPFC)
		res.Utility.Append(now, tuner.Utility(sample, weights))
		if rec != nil {
			rec.Sample(sample)
		}
	}

	res.Faults = sink.faults
	res.Recovers = sink.recovers
	res.FrozenIntervals = sys.FrozenIntervals
	res.Evictions = sys.Controller.Evictions
	res.Readmits = sys.Controller.Readmits
	res.Rollbacks = sys.Rollbacks
	res.Dispatches = sys.Dispatches
	res.Triggers = sys.Controller.Triggers
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return nil, fmt.Errorf("chaos trace: %w", err)
		}
		res.TraceEvents = rec.Events
	}
	if flight != nil {
		if err := n.CheckPoolInvariant(); err != nil {
			flight.Trip(int64(n.Eng.Now()), "pool_invariant", err.Error())
		}
		if err := flight.WriteArtifact(cfg.Blackbox, int64(n.Eng.Now()), reg); err != nil {
			return nil, fmt.Errorf("chaos blackbox: %w", err)
		}
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

// ChaosLinkFlap is the chaos-linkflap experiment: a sustained cross-rack
// alltoall while one fabric uplink flaps. The flap shifts the observed
// traffic pattern, (re)starting a tuning session whose candidate
// parameters are then measured through the outage — exactly the
// situation rollback exists for: utility regresses persistently, the
// system reverts to the last-known-good vector and aborts the search.
func ChaosLinkFlap(scale Scale, horizon eventsim.Time, seed int64, traceTo io.Writer) (*ChaosResult, error) {
	return RunChaos(ChaosLinkFlapConfig(scale, horizon, seed, traceTo))
}

// ChaosLinkFlapConfig builds the chaos-linkflap run configuration, so
// callers (the CLI's -blackbox flag, the determinism tests) can adjust
// the run — attach a flight recorder, swap the registry — before
// RunChaos executes it.
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
		Workload: func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			w := 6
			if w > len(hosts) {
				w = len(hosts)
			}
			_, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
				Workers:      hosts[:w],
				MessageBytes: 1 << 20,
				OffTime:      eventsim.Millisecond,
			})
			return err
		},
	}
}

// ChaosAgentCrash is the chaos-agentcrash experiment: one of the two
// rack agents crashes mid-run (losing its sketch state) and restarts
// later. StaleAfter is set beyond the outage so the membership holds and
// the sub-quorum freeze spans the entire outage; tuning resumes the
// interval the agent returns. Fully in-simulation, so a fixed seed
// yields a byte-identical trace.
func ChaosAgentCrash(scale Scale, horizon eventsim.Time, seed int64, traceTo io.Writer) (*ChaosResult, error) {
	return RunChaos(ChaosAgentCrashConfig(scale, horizon, seed, traceTo))
}

// ChaosAgentCrashConfig builds the chaos-agentcrash run configuration
// (see ChaosLinkFlapConfig for why it is exported separately).
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
		Workload: func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			w := 6
			if w > len(hosts) {
				w = len(hosts)
			}
			_, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
				Workers:      hosts[:w],
				MessageBytes: 1 << 20,
				OffTime:      eventsim.Millisecond,
			})
			return err
		},
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

	TP metrics.Series
}

// Fprint renders the partition ledger.
func (r *ChaosPartitionResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "  intervals=%d mean TP=%.3f dispatches=%d\n",
		r.Ticks, metrics.Mean(r.TP.Values), r.Dispatches)
	fmt.Fprintf(w, "  injected: drops=%d dups=%d truncs=%d server restarts=%d\n",
		r.Drops, r.Dups, r.Truncs, r.ServerRestarts)
	fmt.Fprintf(w, "  recovered: reconnects=%d; lost: report errors=%d tick errors=%d\n",
		r.Reconnects, r.ReportErrors, r.TickErrors)
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

	res := &ChaosPartitionResult{}
	ticks := int(duration / interval)
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
		res.TP.Append(now, tp)
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
