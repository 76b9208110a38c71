// Package harness runs the paper's experiments. Run builds a network,
// installs a tuning scheme and a workload, and drives the monitor-interval
// loop while recording time series. Experiments is the experiment table:
// every figure, table, ablation and chaos run as a set of arms, which
// RunExperiment runs at every seed through one worker pool and gathers
// into a printable Table.
package harness

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/telemetry"
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
	// ACCCfg / DPlusCfg configure the corresponding baselines.
	ACCCfg   baselines.ACCConfig
	DPlusCfg baselines.DCQCNPlusConfig
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
	return Scheme{
		Kind:   KindACC,
		Name:   "acc",
		Static: dcqcn.DefaultParams(),
		ACCCfg: baselines.DefaultACCConfig(),
	}
}

// DCQCNPlusScheme is the incast-adaptive baseline.
func DCQCNPlusScheme() Scheme {
	return Scheme{
		Kind:     KindDCQCNPlus,
		Name:     "dcqcn+",
		Static:   dcqcn.DefaultParams(),
		DPlusCfg: baselines.DefaultDCQCNPlusConfig(),
	}
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
	// TrackAccuracy attaches ground-truth oracles and scores the
	// scheme's FSD each interval (only meaningful when the scheme has an
	// FSD estimate).
	TrackAccuracy bool
}

// Result is everything one run produced.
type Result struct {
	SchemeName string
	Net        *sim.Network

	// TP/RTT/PFC are per-interval normalized runtime metrics; Utility is
	// Equation (1) under the scheme's weights (default weights for
	// schemes without a tuner).
	TP, RTT, PFC, Utility metrics.Series
	// Accuracy is the per-interval FSD accuracy vs ground truth.
	Accuracy metrics.Series

	// Triggers/Dispatches/Rounds summarize tuner activity (Paraleon
	// arms only).
	Triggers, Dispatches, Rounds int
	// UtilTrace is the tuner's best-so-far trace (Fig 12).
	UtilTrace []float64

	// Incomplete counts flows that were started and had no completion
	// record when the run ended. Non-zero after a DrainAfter run means
	// MaxTime cut the drain; the FCT summary is then missing its worst
	// tails and must say so.
	Incomplete int
}

// MeanAccuracy averages the accuracy series (NaN if empty).
func (r *Result) MeanAccuracy() float64 { return metrics.Mean(r.Accuracy.Values) }

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
	res := &Result{SchemeName: cfg.Scheme.Name, Net: n}

	// Ground-truth oracles (optional).
	var truth *loop.Controller
	var oracles []*monitor.Oracle
	if cfg.TrackAccuracy {
		var sources []loop.ReportSource
		for _, tor := range n.Topo.ToRs() {
			o := monitor.NewOracle(n.Topo, tor, 1<<20, n.FlowSize)
			oracles = append(oracles, o)
			sources = append(sources, o)
		}
		truth = loop.NewController(0.01, sources...)
	}

	// Scheme installation.
	var sys *core.System
	var collector *monitor.RuntimeCollector
	weights := tuner.DefaultWeights()
	switch cfg.Scheme.Kind {
	case KindParaleon:
		sysCfg := cfg.Scheme.SystemCfg
		sysCfg.Interval = cfg.Interval
		sysCfg.Sources = buildSources(n, cfg.Scheme, cfg.Interval, oracles)
		sys, err = core.Attach(n, sysCfg)
		if err != nil {
			return nil, err
		}
		weights = sysCfg.Weights
		if weights.Validate() != nil {
			weights = tuner.DefaultWeights()
		}
		sys.StartProbingOnly()
	case KindACC:
		acc := baselines.InstallACC(n, cfg.Scheme.ACCCfg)
		acc.Start()
		collector = monitor.NewRuntimeCollector(n)
		collector.StartProbing(cfg.Interval / 4)
	case KindDCQCNPlus:
		dp := baselines.InstallDCQCNPlus(n, cfg.Scheme.DPlusCfg)
		dp.Start()
		collector = monitor.NewRuntimeCollector(n)
		collector.StartProbing(cfg.Interval / 4)
	case KindStatic:
		collector = monitor.NewRuntimeCollector(n)
		collector.StartProbing(cfg.Interval / 4)
	default:
		return nil, fmt.Errorf("harness: unknown scheme kind %d", cfg.Scheme.Kind)
	}

	// For oracle taps on non-Paraleon schemes the oracle needs to see
	// packets: attach oracle taps where no agent tap exists.
	if cfg.TrackAccuracy && cfg.Scheme.Kind != KindParaleon {
		for i, tor := range n.Topo.ToRs() {
			monitor.TapAll(n.Switch(tor), oracles[i].OnPacket)
		}
	}

	if err := cfg.Workload(n); err != nil {
		return nil, err
	}

	if cfg.Scheme.TriggerAtStart && sys != nil {
		n.Eng.Schedule(cfg.Interval+1, func() { sys.TriggerNow() })
	}

	// The measurement loop.
	ticks := int(cfg.Duration / cfg.Interval)
	for i := 1; i <= ticks; i++ {
		n.Run(eventsim.Time(i) * cfg.Interval)
		now := n.Eng.Now()
		var sample loop.RuntimeSample
		if sys != nil {
			sys.TickOnce()
			sample = sys.LastSample
		} else {
			sample = collector.Sample(cfg.Interval)
		}
		res.TP.Append(now, sample.OTP)
		res.RTT.Append(now, sample.ORTT)
		res.PFC.Append(now, sample.OPFC)
		res.Utility.Append(now, tuner.Utility(sample, weights))
		if truth != nil {
			tr := truth.Tick()
			if tr.TotalBytes > 0 {
				var est loop.FSD
				if sys != nil {
					est = sys.Controller.Current
				}
				res.Accuracy.Append(now, monitor.Accuracy(est, tr))
			}
		}
	}
	if cfg.DrainAfter {
		// Keep the closed loop alive while the tail drains: as mice
		// finish and elephants take dominance the tuner must be able to
		// swing throughput-friendly (the §IV-B1 narrative).
		// The loop ends on the receivers' view (see IncompleteFlows).
		for n.Eng.Now() < cfg.MaxTime && n.IncompleteFlows() > 0 {
			n.Run(n.Eng.Now() + cfg.Interval)
			if sys != nil {
				sys.TickOnce()
			} else if collector != nil {
				collector.Sample(cfg.Interval)
			}
			if truth != nil {
				truth.Tick()
			}
		}
	}
	res.Incomplete = n.IncompleteFlows()

	if sys != nil {
		res.Triggers = sys.Controller.Triggers
		res.Dispatches = sys.Dispatches
		res.Rounds = sys.Tuner.Stats().Sessions
		res.UtilTrace = append(res.UtilTrace, sys.Tuner.BestTrace()...)
	}
	publishEngine(cfg.Scheme.SystemCfg.Telemetry, n)
	return res, nil
}

// publishEngine adds a finished run's engine accounting to reg (nil means
// telemetry.Default()), which is what `paraleon-sim -report` prints.
func publishEngine(reg *telemetry.Registry, n *sim.Network) {
	if reg == nil {
		reg = telemetry.Default()
	}
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
}

// buildSources wires the FSD inputs for a Paraleon-kind scheme, composing
// taps with the oracles when accuracy tracking is on.
func buildSources(n *sim.Network, s Scheme, interval eventsim.Time, oracles []*monitor.Oracle) []loop.ReportSource {
	var sources []loop.ReportSource
	tors := n.Topo.ToRs()
	for i, tor := range tors {
		switch s.FSDMode {
		case FSDParaleon, FSDNaiveElastic:
			cfg := monitor.ParaleonAgentConfig()
			if s.FSDMode == FSDNaiveElastic {
				cfg = monitor.NaiveElasticConfig()
			}
			a := monitor.NewSwitchAgent(cfg, uint64(i+1))
			if oracles != nil {
				monitor.TapAll(n.Switch(tor), oracles[i].OnPacket, a.OnPacket)
			} else {
				a.Attach(n.Switch(tor))
			}
			sources = append(sources, a)
		case FSDNetFlow:
			nf := baselines.DefaultNetFlowConfig()
			nf.MonitorInterval = interval
			a := baselines.NewNetFlowAgent(nf, n.Topo, tor)
			if oracles != nil {
				monitor.TapAll(n.Switch(tor), oracles[i].OnPacket, a.OnPacket)
			} else {
				a.Attach(n.Switch(tor))
			}
			sources = append(sources, a)
		case FSDRNIC:
			var hosts []*rnic.Host
			for _, hn := range n.Topo.Hosts() {
				if n.Topo.ToROf(hn) == tor {
					hosts = append(hosts, n.Host(hn))
				}
			}
			sources = append(sources, monitor.NewRNICAgent(monitor.DefaultTrackerConfig(), hosts))
			if oracles != nil {
				monitor.TapAll(n.Switch(tor), oracles[i].OnPacket)
			}
		case FSDNone:
			if oracles != nil {
				monitor.TapAll(n.Switch(tor), oracles[i].OnPacket)
			}
		}
	}
	if s.FSDMode == FSDNone {
		return []loop.ReportSource{}
	}
	return sources
}
