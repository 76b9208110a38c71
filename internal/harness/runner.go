// Package harness runs the paper's experiments. Run builds a network,
// installs a tuning scheme and a workload, and drives the monitor-interval
// loop while recording time series. Experiments is the experiment table:
// every figure, table, ablation and chaos run as a set of arms, which
// RunExperiment runs at every seed through one worker pool and gathers
// into a printable Table.
package harness

import (
	"fmt"
	"io"
	"math"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/netdev"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/topology"
	"repro/internal/tuner"
)

// Scale fixes the fabric and cadence an experiment runs at. The paper's
// NS-3 setup is PaperScale; QuickScale shrinks the fabric so every
// experiment runs in seconds on one core while preserving the 4:1
// over-subscription that creates the contention under study.
type Scale struct {
	Net      sim.Config
	Interval eventsim.Time
}

// QuickScale is the default reproduction fabric: 2 racks × 4 hosts at
// 10 Gbps, 4:1 over-subscribed, λ_MI = 1 ms.
func QuickScale() Scale {
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: 2, NumLeaf: 1, HostsPerToR: 4,
		HostLinkBps: 10e9, FabricLinkBps: 10e9,
		PropDelay: 2 * eventsim.Microsecond,
	}
	return Scale{Net: cfg, Interval: eventsim.Millisecond}
}

// MediumScale is a 4-rack fabric for the macro experiments.
func MediumScale() Scale {
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: 4, NumLeaf: 2, HostsPerToR: 4,
		HostLinkBps: 10e9, FabricLinkBps: 20e9,
		PropDelay: 2 * eventsim.Microsecond,
	}
	return Scale{Net: cfg, Interval: eventsim.Millisecond}
}

// PaperScale is the §IV-B topology: 8 ToRs, 4 leaves, 128 hosts, 100 Gbps.
func PaperScale() Scale {
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.PaperClosConfig()
	return Scale{Net: cfg, Interval: eventsim.Millisecond}
}

// Scales are the fabric scales by the name the CLIs' -scale flag takes.
var Scales = map[string]func() Scale{"quick": QuickScale, "medium": MediumScale, "paper": PaperScale}

// Config is an arm of scheme sc on the scale's fabric and cadence, loaded
// by wl for dur.
func (s Scale) Config(sc Scheme, dur eventsim.Time, wl func(*sim.Network) error) RunConfig {
	return RunConfig{Net: s.Net, Scheme: sc, Interval: s.Interval, Duration: dur, Workload: wl}
}

// SchemeKind enumerates the tuning/monitoring schemes under comparison.
type SchemeKind int

const (
	// KindStatic applies fixed parameters (default, expert, pretrained).
	KindStatic SchemeKind = iota
	// KindParaleon is the full system; variants differ via SystemCfg.
	KindParaleon
	// KindACC is the per-switch RL ECN baseline.
	KindACC
	// KindDCQCNPlus is the incast-adaptive baseline.
	KindDCQCNPlus
)

// Scheme describes one arm of an experiment.
type Scheme struct {
	Kind SchemeKind
	Name string
	// Static is the fixed setting for KindStatic (and the initial
	// setting for every other kind).
	Static dcqcn.Params
	// SystemCfg configures KindParaleon.
	SystemCfg core.SystemConfig
	// FSDMode selects the Paraleon controller's FSD inputs.
	FSDMode FSDMode
	// TriggerAtStart force-starts a tuning session on the first
	// interval (used when the FSD source cannot trigger, e.g. NoFSD).
	TriggerAtStart bool
}

// FSDMode selects what feeds the controller's flow-size distribution.
type FSDMode int

const (
	// FSDParaleon uses sketch agents with insert-once + ternary states.
	FSDParaleon FSDMode = iota
	// FSDNaiveElastic uses raw Elastic Sketch agents.
	FSDNaiveElastic
	// FSDNetFlow uses 1:100-sampled, second-granularity agents.
	FSDNetFlow
	// FSDNone gives the tuner no distribution (the No-FSD arm).
	FSDNone
	// FSDRNIC measures at host RNICs via per-QP counters (the §V
	// "no programmable switches" extension).
	FSDRNIC
)

// DefaultScheme is the NVIDIA static setting.
func DefaultScheme() Scheme {
	return Scheme{Kind: KindStatic, Name: "default", Static: dcqcn.DefaultParams()}
}

// ExpertScheme is the Table I static setting.
func ExpertScheme() Scheme {
	return Scheme{Kind: KindStatic, Name: "expert", Static: dcqcn.ExpertParams()}
}

// StaticScheme applies an arbitrary fixed setting (pretrained arms).
func StaticScheme(name string, p dcqcn.Params) Scheme {
	return Scheme{Kind: KindStatic, Name: name, Static: p}
}

// ParaleonScheme is the full system. It uses the compressed SA schedule
// (tuner.ShortSAConfig) so tuning settles within the short horizons of
// reproduction runs; Fig 12 swaps the Table III schedule in.
func ParaleonScheme() Scheme {
	sysCfg := core.DefaultSystemConfig()
	sysCfg.SA = tuner.ShortSAConfig()
	return Scheme{
		Kind:      KindParaleon,
		Name:      "paraleon",
		Static:    dcqcn.DefaultParams(),
		SystemCfg: sysCfg,
		FSDMode:   FSDParaleon,
	}
}

// ACCScheme is the RL ECN baseline.
func ACCScheme() Scheme {
	return Scheme{Kind: KindACC, Name: "acc", Static: dcqcn.DefaultParams()}
}

// DCQCNPlusScheme is the incast-adaptive baseline.
func DCQCNPlusScheme() Scheme {
	return Scheme{Kind: KindDCQCNPlus, Name: "dcqcn+", Static: dcqcn.DefaultParams()}
}

// RunConfig is one experiment arm's execution plan.
type RunConfig struct {
	Net    sim.Config
	Scheme Scheme
	// Interval is the sampling/monitor interval λ_MI.
	Interval eventsim.Time
	// Duration runs the simulation to this virtual time; with DrainAfter
	// the run continues (without sampling) until every started flow has a
	// completion record or MaxTime is hit.
	Duration   eventsim.Time
	DrainAfter bool
	MaxTime    eventsim.Time
	// Workload installs traffic on the fresh network.
	Workload func(n *sim.Network) error
	// TrackAccuracy attaches ground-truth oracles to the ToR agents'
	// taps and scores the scheme's FSD each interval. Only a Paraleon
	// scheme has agents, so for any other it records nothing.
	TrackAccuracy bool

	// Faults, when set, builds the run's fault schedule from the fresh
	// network. Every ToR agent then reports through a chaos.FlakySource,
	// the schedule is installed after the scheme and before probing
	// starts, and a failed Wire call degrades its interval instead of
	// failing the run. A controller the schedule kills stays down for two
	// intervals; then a fresh one attaches on the same dispatch fabric
	// (and WAL, if Scheme.SystemCfg.Dispatch has one).
	Faults func(n *sim.Network) chaos.Scenario
	// Wire, when set, runs a Paraleon scheme's control plane over ctrlrpc
	// instead of in-process.
	Wire *Wire
	// Trace receives the in-process loop's event log as JSON Lines;
	// Blackbox attaches the flight recorder and receives its artifact,
	// which names the run by Scheme.Name and ScaleLabel. Both optional.
	Trace, Blackbox io.Writer
	ScaleLabel      string
	// End, when set, runs after the last interval and the drain, before
	// the run's invariants are checked and its trace and artifact are
	// written. sys is the in-process controller the run ended with.
	End func(n *sim.Network, sys *core.System) error
}

// FixedFaults is a fault schedule that does not depend on the network.
func FixedFaults(sc chaos.Scenario) func(*sim.Network) chaos.Scenario {
	return func(*sim.Network) chaos.Scenario { return sc }
}

// Result is everything one run produced.
type Result struct {
	SchemeName string
	Net        *sim.Network
	// Sys is the in-process controller the run ended with (nil unless
	// the scheme is Paraleon without Wire).
	Sys *core.System

	// TP/RTT/PFC are per-interval normalized runtime metrics; Utility is
	// Equation (1) under the scheme's weights (default weights for
	// schemes without a tuner). Each holds every interval's sample.
	TP, RTT, PFC, Utility *series.Series
	// Accuracy is the per-interval FSD accuracy vs ground truth.
	Accuracy *series.Series

	// Triggers/Dispatches/Rounds summarize tuner activity over every
	// controller of the run (Paraleon arms only; a Wire run counts only
	// Dispatches).
	Triggers, Dispatches, Rounds int

	// Faults / Recovers count injected-fault and recovery events
	// (including controller-detected ones like eviction and quorum
	// loss); Kills counts controllers the schedule killed; TraceEvents
	// counts the event log's records.
	Faults, Recovers, Kills, TraceEvents int
	// Wire is a Wire run's control-plane accounting.
	Wire WireStats

	// Incomplete counts flows that were started and had no completion
	// record when the run ended. Non-zero after a DrainAfter run means
	// MaxTime cut the drain; the FCT summary is then missing its worst
	// tails and must say so.
	Incomplete int
}

// addSystem adds one controller's tuner activity.
func (r *Result) addSystem(sys *core.System) {
	r.Triggers += sys.Controller.Triggers
	r.Dispatches += sys.Dispatches
	r.Rounds += sys.Tuner.Stats().Sessions
}

// MeanAccuracy averages the accuracy series (NaN if empty).
func (r *Result) MeanAccuracy() float64 { return metrics.Mean(r.Accuracy.Values()) }

// Summary computes the run's FCT summary.
func (r *Result) Summary() metrics.FCTSummary {
	return metrics.Summarize(r.Net, r.Net.Completed)
}

// Run executes one experiment arm.
func Run(cfg RunConfig) (*Result, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = eventsim.Millisecond
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = cfg.Duration * 4
		if cfg.MaxTime < cfg.Duration+eventsim.Second {
			cfg.MaxTime = cfg.Duration + eventsim.Second
		}
	}
	netCfg := cfg.Net
	netCfg.Params = cfg.Scheme.Static
	n, err := sim.New(netCfg)
	if err != nil {
		return nil, err
	}
	reg := cfg.Scheme.SystemCfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	ticks := int(cfg.Duration / cfg.Interval)
	// Each series is sized to hold one sample per tick: none downsamples,
	// so the figure tables average every raw sample.
	res := &Result{
		SchemeName: cfg.Scheme.Name, Net: n,
		TP: series.New("tp", "frac", ticks), RTT: series.New("rttnorm", "frac", ticks),
		PFC: series.New("opfc", "frac", ticks), Utility: series.New("utility", "score", ticks),
		Accuracy: series.New("accuracy", "frac", ticks),
	}
	var scenario chaos.Scenario
	if cfg.Faults != nil {
		scenario = cfg.Faults(n)
	}
	obs := newObservers(n, reg, cfg, scenario.Seed)

	// Ground-truth oracles (optional).
	var truth *loop.Controller
	var oracles []*monitor.Oracle
	if cfg.TrackAccuracy {
		var sources []loop.ReportSource
		for _, tor := range n.Topo.ToRs() {
			o := monitor.NewOracle(n.Topo, tor)
			oracles = append(oracles, o)
			sources = append(sources, o)
		}
		truth = loop.NewController(0.01, sources...)
	}

	// Scheme installation. tick closes interval seq of the scheme's
	// control plane and returns its runtime sample.
	var tick func(seq int) (loop.RuntimeSample, error)
	var flaky []*chaos.FlakySource
	kill := func() {}
	weights := cfg.Scheme.SystemCfg.Weights
	switch cfg.Scheme.Kind {
	case KindParaleon:
		sources := buildSources(n, cfg.Scheme, cfg.Interval, oracles, telemetry.NewSketchMetrics(reg))
		if cfg.Faults != nil {
			for i, s := range sources {
				f := chaos.NewFlakySource(s)
				flaky = append(flaky, f)
				sources[i] = f
			}
		}
		if cfg.Wire != nil {
			wire, err := dialWire(n, cfg, sources, scenario, reg, res)
			if err != nil {
				return nil, err
			}
			defer wire.close() // fills res.Wire
			tick = wire.tick
			break
		}
		sysCfg := cfg.Scheme.SystemCfg
		sysCfg.Interval, sysCfg.Sources, sysCfg.Telemetry = cfg.Interval, sources, reg
		sysCfg.Trace, sysCfg.Flight = obs.log, obs.flight
		if res.Sys, err = obs.attach(n, sysCfg); err != nil {
			return nil, err
		}
		dead, killed, killedBy := 0, false, ""
		kill = func() { killed, killedBy = true, obs.lastFault; res.Kills++ }
		tick = func(seq int) (loop.RuntimeSample, error) {
			sys := res.Sys
			if killed {
				if dead == 0 {
					dead = seq
				}
				if seq-dead < 2 {
					return sys.LastSample, nil // no controller: the sample goes stale
				}
				// A fresh controller: new tuner, new monitor controller,
				// empty aggregation state. Attach replays the WAL and
				// launches the recovery restore before the first tick.
				res.addSystem(sys)
				sysCfg.Dispatch.Fabric = sys.Dispatch.Fabric()
				if sys, err = obs.attach(n, sysCfg); err != nil {
					return loop.RuntimeSample{}, fmt.Errorf("harness: controller restart: %w", err)
				}
				obs.Recover("controller_kill", killedBy)
				res.Sys, killed, dead = sys, false, 0
			}
			sys.TickOnce()
			obs.log.Sample(0, sys.LastSample)
			return sys.LastSample, nil
		}
	case KindACC:
		baselines.InstallACC(n, baselines.DefaultACCConfig()).Start()
	case KindDCQCNPlus:
		baselines.InstallDCQCNPlus(n, baselines.DefaultDCQCNPlusConfig()).Start()
	case KindStatic:
	default:
		return nil, fmt.Errorf("harness: unknown scheme kind %d", cfg.Scheme.Kind)
	}
	if weights.Validate() != nil {
		weights = tuner.DefaultWeights()
	}

	// The fault schedule schedules engine events, so it installs after
	// core.Attach, where the recorded goldens put it.
	if cfg.Faults != nil {
		inj := chaos.NewInjector(n, flaky, obs)
		if res.Sys != nil {
			inj.BindDispatch(res.Sys.Dispatch, kill)
		}
		if err := inj.Install(scenario); err != nil {
			return nil, err
		}
	}
	if res.Sys != nil {
		res.Sys.StartProbingOnly()
	} else {
		// Every host probes RTT; the baselines sample the fabric through
		// the same collector.
		collector := monitor.NewRuntimeCollector(n)
		collector.StartProbing(cfg.Interval / 4)
		if tick == nil {
			tick = func(int) (loop.RuntimeSample, error) { return collector.Sample(cfg.Interval), nil }
		}
	}

	if err := cfg.Workload(n); err != nil {
		return nil, err
	}

	if cfg.Scheme.TriggerAtStart && res.Sys != nil {
		n.Eng.Schedule(cfg.Interval+1, func() { res.Sys.TriggerNow() })
	}

	// One handler closes every monitor interval, at the end of its engine
	// instant, and records it while inside the horizon. It stops the
	// engine at the horizon or, with DrainAfter, once every started flow
	// has a completion record (probe timers keep the engine busy) or
	// MaxTime is reached. The loop ticks through the drain: as mice finish
	// and elephants take dominance the tuner must be able to swing
	// throughput-friendly (the §IV-B1 narrative).
	done := func(seq int) bool {
		return seq >= ticks && (!cfg.DrainAfter || n.Eng.Now() >= cfg.MaxTime || n.IncompleteFlows() == 0)
	}
	seq := 0
	var closeInterval eventsim.Handler
	closeInterval = func() {
		seq++
		now := n.Eng.Now()
		var sample loop.RuntimeSample
		if sample, err = tick(seq); err != nil {
			n.Eng.Stop()
			return
		}
		if seq <= ticks {
			res.TP.Append(int64(now), sample.OTP)
			res.RTT.Append(int64(now), sample.ORTT)
			res.PFC.Append(int64(now), sample.OPFC)
			res.Utility.Append(int64(now), tuner.Utility(sample, weights))
		}
		if truth != nil {
			if tr := truth.Tick(); seq <= ticks && tr.TotalBytes > 0 {
				var est loop.FSD
				if res.Sys != nil {
					est = res.Sys.Controller.Current
				}
				res.Accuracy.Append(int64(now), monitor.Accuracy(est, tr))
			}
		}
		if done(seq) {
			n.Eng.Stop()
			return
		}
		n.Eng.AtInstantEnd(now+cfg.Interval, closeInterval)
	}
	if !done(0) {
		n.Eng.AtInstantEnd(cfg.Interval, closeInterval)
		n.Run(math.MaxInt64)
		if err != nil {
			return nil, err
		}
	}
	if cfg.End != nil {
		if err := cfg.End(n, res.Sys); err != nil {
			return nil, err
		}
	}
	res.Incomplete = n.IncompleteFlows()
	if res.Sys != nil {
		res.addSystem(res.Sys)
	}
	res.Faults, res.Recovers = obs.faults, obs.recovers
	publishEngine(reg, n)
	if res.TraceEvents, err = obs.finish(n, cfg.Blackbox, reg); err != nil {
		return nil, err
	}
	return res, nil
}

// publishEngine adds a finished run's engine accounting to reg, which is
// what `paraleon-sim -report` prints.
func publishEngine(reg *telemetry.Registry, n *sim.Network) {
	st, wall := n.EngineStats()
	tm := telemetry.NewEngineMetrics(reg)
	tm.Events.Add(int64(st.Processed))
	tm.Relinks.Add(int64(st.Relinks))
	tm.WallNs.Add(wall.Nanoseconds())
	tm.VirtualNs.Add(int64(n.Eng.Now()))
	tm.PeakPending.SetMax(float64(st.PeakPending))
	tx, timers := n.PortTotals()
	tm.Transmissions.Add(tx)
	tm.TxTimers.Add(timers)
	pkts, bytes := n.PacketsAllocated()
	tm.PacketsAllocated.SetMax(float64(pkts))
	tm.PacketBytes.SetMax(float64(bytes))
}

// buildSources wires the FSD inputs for a Paraleon-kind scheme, composing
// taps with the oracles when accuracy tracking is on. Sketch agents
// report their interval activity to sketchTM.
func buildSources(n *sim.Network, s Scheme, interval eventsim.Time, oracles []*monitor.Oracle, sketchTM *telemetry.SketchMetrics) []loop.ReportSource {
	sources := []loop.ReportSource{}
	for i, tor := range n.Topo.ToRs() {
		var taps []func(*netdev.Packet, eventsim.Time)
		if oracles != nil {
			taps = append(taps, oracles[i].OnPacket)
		}
		switch s.FSDMode {
		case FSDParaleon, FSDNaiveElastic:
			cfg := monitor.ParaleonAgentConfig()
			if s.FSDMode == FSDNaiveElastic {
				cfg = monitor.NaiveElasticConfig()
			}
			a := monitor.NewSwitchAgent(cfg, uint64(i+1))
			a.TM = sketchTM
			taps = append(taps, a.OnPacket)
			sources = append(sources, a)
		case FSDNetFlow:
			nf := baselines.DefaultNetFlowConfig()
			nf.MonitorInterval = interval
			a := baselines.NewNetFlowAgent(nf, n.Topo, tor)
			taps = append(taps, a.OnPacket)
			sources = append(sources, a)
		case FSDRNIC:
			var hosts []*rnic.Host
			for _, hn := range n.Topo.Hosts() {
				if n.Topo.ToROf(hn) == tor {
					hosts = append(hosts, n.Host(hn))
				}
			}
			sources = append(sources, monitor.NewRNICAgent(hosts))
		}
		if len(taps) > 0 {
			monitor.TapAll(n.Switch(tor), taps...)
		}
	}
	return sources
}
