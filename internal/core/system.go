// Package core wires Paraleon's closed control loop together on a
// simulated network: agents measure, the controller and the decision
// step of internal/loop (the ones the ctrlrpc daemon runs too) aggregate,
// trigger and drive a search strategy from internal/tuner, and the
// proposed DCQCN vectors go to every RNIC and switch through the staged
// dispatch pipeline. The utility function (Equation 1), the
// simulated-annealing search of Algorithm 1 and its configuration live
// in internal/tuner.
package core

import (
	"fmt"

	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// SystemConfig wires a full Paraleon deployment onto a simulated network.
type SystemConfig struct {
	// Interval is the monitor interval λ_MI (Table III: 1 ms).
	Interval eventsim.Time
	// Theta is the KL trigger threshold (0.01).
	Theta float64
	// Weights parameterize the utility function.
	Weights tuner.Weights
	// Tuner selects the search strategy by name ("sa",
	// "multiecn", "bandit"; see internal/tuner). Empty falls back to the
	// network's sim.Config.Tuner, then to "sa" — the default, whose
	// behaviour is byte-identical to the pre-pluggable loop.
	Tuner string
	// SA parameterizes the "sa" search strategy.
	SA tuner.SAConfig
	// Bandit and MultiECN parameterize the respective strategies; zero
	// values mean their defaults. MultiECN.Agents defaults to the
	// deployment's scope size (one agent per ToR).
	Bandit   tuner.BanditConfig
	MultiECN tuner.MultiECNConfig
	// Seed fixes the tuner's mutation randomness.
	Seed int64
	// Sources, when non-nil, replaces the Paraleon sketch agents
	// (monitor.ParaleonAgentConfig) as the controller's FSD inputs
	// (NetFlow baseline, no-FSD ablation). The caller is responsible
	// for any tap wiring they need.
	Sources []loop.ReportSource
	// Scope, when non-nil, restricts the deployment to the racks under
	// these ToRs: agents attach only there, runtime metrics cover only
	// that scope, and dispatches go only to those devices (§V
	// multi-cluster mode; see AttachPartitioned).
	Scope []topology.NodeID
	// Degrade bounds the loop's behaviour under faults (agent crashes,
	// link outages injected by internal/chaos). The zero value keeps the
	// pre-fault-tolerance behaviour: controller defaults for staleness
	// and quorum, rollback disabled.
	Degrade DegradeConfig
	// Telemetry selects the metrics registry the deployment instruments
	// itself against; nil means telemetry.Default(), so every run a
	// binary performs lands in its -telemetry-addr / -report surface.
	Telemetry *telemetry.Registry
	// Dispatch configures the pipeline every push goes through (guard,
	// write-ahead log, epoch protocol); the zero value journals nothing
	// and dispatches over a fresh fabric.
	Dispatch dispatch.Config
	// Flight, when non-nil, attaches the virtual-time flight recorder:
	// the loop samples its health signals (and a bounded per-ToR fabric
	// view) into the recorder each interval and trips anomaly snapshots
	// on rollbacks, quorum freezes, FSD degradation,
	// and guard-reject bursts. Sampling is read-only and allocation-free;
	// nil (the default) changes nothing.
	Flight *series.Recorder
	// Trace, when non-nil, is the run's event log. A span opens at each
	// tuning trigger, every dispatch of the session carries its ID, and
	// the span closes when the session settles or aborts; the dispatch
	// pipeline writes its reject notes into the same log.
	Trace *trace.Recorder
}

// DegradeConfig is the graceful-degradation policy of a deployment.
type DegradeConfig struct {
	// StaleAfter / QuorumFrac configure agent eviction and the tuning
	// freeze (see loop.Controller); zero values use its defaults.
	StaleAfter int
	QuorumFrac float64
	// RollbackWindow, when > 0, enables parameter rollback: if the
	// EWMA-smoothed measured utility stays more than RollbackMargin
	// below the last-known-good utility for RollbackWindow consecutive
	// live intervals while parameters differ from the last-known-good
	// vector, the system re-dispatches that vector and aborts the
	// active tuning session. Rollback is off by default because an SA
	// session legitimately explores downhill; enable it (with a margin
	// above exploration noise) where faults are expected.
	RollbackWindow int
	RollbackMargin float64
}

// DefaultSystemConfig mirrors Table III.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Interval: eventsim.Millisecond,
		Theta:    0.01,
		Weights:  tuner.DefaultWeights(),
		SA:       tuner.DefaultSAConfig(),
		Seed:     1,
	}
}

// System is the event-driven closed loop of Fig 1: agents measure, the
// controller aggregates and triggers, the tuner searches, and new DCQCN
// parameters are dispatched to every RNIC and switch.
type System struct {
	Net *sim.Network
	// Tuner is the search strategy. The decision step holds it from
	// Attach on, so assigning it afterwards does not change what runs.
	Tuner      tuner.Tuner
	Controller *loop.Controller
	Collector  *monitor.RuntimeCollector
	Agents     []*monitor.SwitchAgent

	interval eventsim.Time
	weights  tuner.Weights
	// running is whether the loop ticks; armed is whether a tick is armed.
	running, armed bool
	// torScope is the resolved ToR list (scope, or every ToR): agent i of
	// a per-switch strategy owns torScope[i].
	torScope []topology.NodeID
	// step is the decision shared with the daemon; its proposals reach
	// the fabric through Dispatch.
	step *loop.Step
	// GuardRejects is how many proposals, fabric-wide or per-switch, the
	// pipeline's guard had refused when the last tick ended.
	GuardRejects int

	// Dispatches counts parameter updates pushed to the network;
	// LastSample is the most recent runtime measurement.
	Dispatches int
	LastSample loop.RuntimeSample

	// Dispatch is the dispatch pipeline every parameter push goes
	// through. Its guard bounds-checks every proposal and per-switch
	// override, so no strategy can push an out-of-spec or misordered
	// (Kmin >= Kmax) vector onto the fabric; its Live() is the vector
	// the loop last dispatched.
	Dispatch *dispatch.Pipeline

	// Graceful degradation (see DegradeConfig).
	degrade  DegradeConfig
	utilEWMA float64
	haveEWMA bool
	lastGood dcqcn.Params
	goodUtil float64
	haveGood bool
	regress  int
	// Rollbacks counts reversions to the last-known-good vector;
	// FrozenIntervals counts intervals held because quorum was lost.
	Rollbacks       int
	FrozenIntervals int
	// OnDispatch, if set, observes parameter pushes.
	OnDispatch func(p dcqcn.Params)
	// trace is the run's event log (SystemConfig.Trace; may be nil).
	trace *trace.Recorder

	// Telemetry instrumentation (resolved from SystemConfig.Telemetry).
	status *telemetry.StatusCell[LoopStatus]
	TM     *telemetry.TunerMetrics
	vtime  *telemetry.Gauge

	// flight, when non-nil, samples the loop into the configured flight
	// recorder each interval (SystemConfig.Flight).
	flight *flightSampler

	sessionSpan uint64
}

// LoopStatus is the /debug/status snapshot of one control loop,
// published to the telemetry registry every monitor interval.
type LoopStatus struct {
	VirtualTimeNs int64        `json:"virtual_time_ns"`
	Params        dcqcn.Params `json:"params"`
	Tuner         string       `json:"tuner"`
	Frozen        bool         `json:"frozen"`
	Degraded      bool         `json:"degraded"`
	PresentAgents int          `json:"present_agents"`
	Triggers      int          `json:"triggers"`
	LastKL        float64      `json:"last_kl"`
	TunerActive   bool         `json:"tuner_active"`
	Temperature   float64      `json:"temperature"`
	BestUtility   float64      `json:"best_utility"`
	Iterations    int          `json:"iterations"`
	Sessions      int          `json:"sessions"`
	Aborts        int          `json:"aborts"`
	Dispatches    int          `json:"dispatches"`
	Rollbacks     int          `json:"rollbacks"`
	DispatchEpoch uint64       `json:"dispatch_epoch,omitempty"`
}

// Attach builds a Paraleon deployment on net. The search starts from the
// network's current parameter setting.
func Attach(net *sim.Network, cfg SystemConfig) (*System, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("core: non-positive monitor interval")
	}
	// Scope resolves before the tuner is built: a per-switch strategy
	// sizes its agent set to the deployment's ToR count.
	scope := cfg.Scope
	if scope == nil {
		scope = net.Topo.ToRs()
	}
	strategy := cfg.Tuner
	if strategy == "" {
		strategy = net.Config().Tuner
	}
	mcfg := cfg.MultiECN
	if mcfg.Agents == 0 {
		mcfg.Agents = len(scope)
	}
	tun, err := tuner.New(strategy, tuner.Config{
		Weights:  cfg.Weights,
		Base:     *net.RNICParams(),
		SA:       cfg.SA,
		Bandit:   cfg.Bandit,
		MultiECN: mcfg,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &System{
		Net:      net,
		Tuner:    tun,
		interval: cfg.Interval,
		weights:  cfg.Weights,
		degrade:  cfg.Degrade,
		trace:    cfg.Trace,
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	s.status = telemetry.NewStatusCell[LoopStatus](reg, "control_loop")
	s.TM = telemetry.NewTunerMetrics(reg)
	s.Tuner.SetMetrics(s.TM)
	s.vtime = telemetry.VirtualTime(reg)

	s.torScope = scope
	sources := cfg.Sources
	if sources == nil {
		sketchTM := telemetry.NewSketchMetrics(reg)
		for i, tor := range scope {
			a := monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), uint64(cfg.Seed)+uint64(i)+1)
			a.TM = sketchTM
			a.Attach(net.Switch(tor))
			s.Agents = append(s.Agents, a)
			sources = append(sources, a)
		}
	}
	s.Controller = loop.NewController(cfg.Theta, sources...)
	s.Controller.StaleAfter = cfg.Degrade.StaleAfter
	s.Controller.QuorumFrac = cfg.Degrade.QuorumFrac
	s.Controller.TM = telemetry.NewMonitorMetrics(reg)
	s.Collector = monitor.NewScopedRuntimeCollector(net, scope)
	if err := s.attachDispatch(cfg, scope, reg); err != nil {
		return nil, err
	}
	s.wireStep()
	if cfg.Flight != nil {
		s.flight = newFlightSampler(cfg.Flight, s)
	}
	return s, nil
}

// attachDispatch builds the dispatch pipeline over the scope ToRs:
// device i of the fabric is scope[i]. The fabric and WAL come from the
// config when the caller needs them to survive controller restarts (the
// crash-recovery experiment); otherwise both are fresh.
func (s *System) attachDispatch(cfg SystemConfig, scope []topology.NodeID, reg *telemetry.Registry) error {
	fab := cfg.Dispatch.Fabric
	if fab == nil {
		fab = dispatch.NewFabric(len(scope))
	}
	if len(fab.Devices) != len(scope) {
		return fmt.Errorf("core: dispatch fabric has %d devices, scope has %d ToRs", len(fab.Devices), len(scope))
	}
	net, full := s.Net, cfg.Scope == nil
	apply := func(devs []int, p dcqcn.Params) {
		if full && len(devs) == len(scope) {
			// Fabric-wide on an unscoped deployment: cover the leaf and
			// spine switches too.
			net.ApplyParams(p)
			return
		}
		tors := make([]topology.NodeID, len(devs))
		for i, d := range devs {
			tors[i] = scope[d]
		}
		net.ApplyParamsToCluster(tors, p)
	}
	s.Dispatch = dispatch.New(cfg.Dispatch, net.Eng, fab, apply, reg)
	s.Dispatch.Trace = s.trace
	return s.Dispatch.Resume(*net.RNICParams(), net.Eng.Now())
}

// wireStep builds the decision step over s.Tuner and s.Dispatch and
// hooks the loop's trace, dispatch and settle bookkeeping onto it.
func (s *System) wireStep() {
	s.step = loop.NewStep(s.Controller, s.Tuner, s.Dispatch, s.Net.Eng.Now, s.TM)
	s.step.OnSession = s.traceSession
	s.step.OnDispatch = s.dispatched
	s.step.OnSettle = s.settled
}

// traceSession opens the trace span of a session about to start.
func (s *System) traceSession(fsd loop.FSD) {
	if s.Tuner.Active() {
		// Restarted mid-session (TriggerNow): close the old span.
		s.trace.SpanEnd(s.sessionSpan)
	}
	// "sa_session" for the default strategy, matching the historical
	// trace vocabulary (and the recorded goldens) byte-for-byte.
	s.sessionSpan = s.trace.SpanStart(s.Tuner.Name()+"_session", 0)
	s.trace.Trigger(s.sessionSpan, fsd)
}

// dispatched overlays a per-switch strategy's local proposals on the
// fabric-wide vector the step committed, and records the dispatch.
func (s *System) dispatched(p dcqcn.Params) {
	now := s.Net.Eng.Now()
	if ps, ok := s.Tuner.(tuner.PerSwitch); ok {
		s.applyLocalProposals(ps, now)
	}
	s.Dispatches++
	if s.OnDispatch != nil {
		s.OnDispatch(p)
	}
	s.trace.Dispatch(s.sessionSpan, p)
}

// settled closes the trace span of a session that decided its final
// proposal.
func (s *System) settled() {
	s.trace.SpanEnd(s.sessionSpan)
	s.sessionSpan = 0
}

// AttachPartitioned deploys one independent Paraleon instance per cluster
// (a cluster being a group of ToRs with their racks), each tuning its own
// devices with heterogeneous parameters — the §V answer to extreme-scale
// RDMA clouds where one homogeneous setting cannot fit every cluster.
// Seeds are derived per cluster so their searches differ.
func AttachPartitioned(net *sim.Network, cfg SystemConfig, clusters [][]topology.NodeID) ([]*System, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("core: no clusters given")
	}
	systems := make([]*System, 0, len(clusters))
	for i, tors := range clusters {
		if len(tors) == 0 {
			return nil, fmt.Errorf("core: cluster %d is empty", i)
		}
		ccfg := cfg
		ccfg.Scope = tors
		ccfg.Seed = cfg.Seed + int64(i)*1001
		sys, err := Attach(net, ccfg)
		if err != nil {
			return nil, err
		}
		systems = append(systems, sys)
	}
	return systems, nil
}

// Start arms probing and the recurring monitor-interval tick, which
// closes each interval at the end of its engine instant, where
// harness.Run closes its intervals too.
func (s *System) Start() {
	if s.running {
		return
	}
	s.running = true
	s.Collector.StartProbing(s.interval / 4)
	if !s.armed {
		s.armTick()
	}
}

// Stop halts the loop: the armed tick fires without ticking or re-arming
// (probing stays armed on hosts with active flows).
func (s *System) Stop() { s.running = false }

// TriggerNow force-starts a tuning session with the current FSD,
// regardless of the KL trigger (used by the no-FSD ablation and by
// pretraining runs).
func (s *System) TriggerNow() { s.step.Trigger(s.Controller.Current) }

func (s *System) armTick() {
	s.armed = true
	s.Net.Eng.AtInstantEnd(s.Net.Eng.Now()+s.interval, func() {
		s.armed = false
		if s.running {
			s.tick()
			s.armTick()
		}
	})
}

// TickOnce closes one monitor interval now. A driver that closes
// intervals on its own clock (harness.Run) uses it instead of Start.
func (s *System) TickOnce() { s.tick() }

// StartProbingOnly arms RTT probing without the recurring tick, for
// TickOnce-driven deployments.
func (s *System) StartProbingOnly() { s.Collector.StartProbing(s.interval / 4) }

// tick is one monitor interval: aggregate FSD (possibly triggering),
// sample runtime metrics, advance the SA search, dispatch.
func (s *System) tick() {
	fsd := s.Controller.Tick()
	sample := s.Collector.Sample(s.interval)
	s.LastSample = sample
	util := tuner.Utility(sample, s.weights)
	now := s.Net.Eng.Now()
	s.vtime.Set(float64(now))
	if s.flight != nil {
		s.flight.sample(s, now, sample, util)
	}
	defer s.publishStatus(now)
	// Quorum lost: the measurement substrate itself is broken, so any
	// feedback this interval is suspect. Hold parameters steady (do not
	// step the search or dispatch) until enough agents report again or
	// the dead ones are evicted from the membership.
	if s.Controller.Frozen {
		s.FrozenIntervals++
		s.regress = 0
		return
	}
	// Traffic-free intervals (OFF gaps) carry no tuning feedback: the
	// idle network's perfect RTT/PFC readings would poison the search.
	// Hold the search until traffic returns. (The no-FSD ablation has no
	// sources, so its empty distribution cannot mean idleness.) The raw
	// single-interval snapshot decides idleness; fsd itself is smoothed.
	if len(s.Controller.Agents) > 0 && s.Controller.Raw.TotalBytes == 0 {
		return
	}
	if s.checkRollback(util) {
		return
	}
	// Per-switch strategies see this interval's per-agent reports before
	// they step; agent i's slice is the report from torScope[i]'s switch.
	if ps, ok := s.Tuner.(tuner.PerSwitch); ok {
		ps.ObserveLocals(s.Controller.Locals)
	}
	s.step.Decide(sample, fsd)
}

// applyLocalProposals overlays a per-switch strategy's local ECN
// proposals on top of the fabric-wide dispatch: agent i's (Kmin, Kmax,
// Pmax) goes to torScope[i]'s switch, after the same guard check every
// fabric-wide proposal passes (the trio substituted into the live
// vector, so bounds and Kmin<Kmax ordering hold per switch).
func (s *System) applyLocalProposals(ps tuner.PerSwitch, now eventsim.Time) {
	live := s.Dispatch.Live()
	for _, pr := range ps.LocalProposals() {
		if pr.Agent < 0 || pr.Agent >= len(s.torScope) {
			continue
		}
		cand := live
		cand.KminBytes, cand.KmaxBytes, cand.PMax = pr.KminBytes, pr.KmaxBytes, pr.PMax
		if r, _ := s.Dispatch.Guard().Admit(&cand, &live, now); r == dispatch.RejectNone {
			s.Net.ApplySwitchECN(s.torScope[pr.Agent], pr.KminBytes, pr.KmaxBytes, pr.PMax)
			ps.AgentCommitted(pr.Agent)
		}
	}
}

// publishStatus overwrites the loop's status cell, which the
// /debug/status endpoint and -report summaries read. Scrapes copy the
// cell under its lock rather than reading the System, which keeps the
// single-threaded simulation state off concurrent scrape goroutines.
func (s *System) publishStatus(now eventsim.Time) {
	var temp float64
	if td, ok := s.Tuner.(tuner.Temperatured); ok {
		temp = td.Temperature()
	}
	st := s.Tuner.Stats()
	s.GuardRejects = s.Dispatch.Guard().Rejects()
	s.status.Set(LoopStatus{
		VirtualTimeNs: int64(now),
		Params:        s.Dispatch.Live(),
		Tuner:         s.Tuner.Name(),
		Frozen:        s.Controller.Frozen,
		Degraded:      s.Controller.Degraded,
		PresentAgents: s.Controller.PresentAgents,
		Triggers:      s.Controller.Triggers,
		LastKL:        s.Controller.LastKL,
		TunerActive:   s.Tuner.Active(),
		Temperature:   temp,
		BestUtility:   s.Tuner.BestUtility(),
		Iterations:    st.Steps,
		Sessions:      st.Sessions,
		Aborts:        st.Aborts,
		Dispatches:    s.Dispatches,
		Rollbacks:     s.Rollbacks,
		DispatchEpoch: s.Dispatch.Epoch(),
	})
}

// checkRollback maintains the last-known-good (parameter vector, EWMA
// utility) pair and reverts to it when the measured utility regresses
// persistently under the current vector. It reports true when a rollback
// happened this interval (the tuner was aborted; skip stepping it).
//
// The regression test cannot distinguish "bad parameters" from "healthy
// parameters measured through a fault" — and does not need to: in both
// cases the last vector known to deliver is the safe setting to hold
// while the search restarts on post-fault feedback.
func (s *System) checkRollback(util float64) bool {
	if !s.haveEWMA {
		s.utilEWMA = util
		s.haveEWMA = true
	} else {
		s.utilEWMA = 0.3*util + 0.7*s.utilEWMA
	}
	if s.degrade.RollbackWindow <= 0 {
		return false
	}
	if !s.haveGood || s.utilEWMA >= s.goodUtil {
		// The live vector is performing at least as well as anything
		// before it: it is the new last-known-good.
		s.lastGood = s.Dispatch.Live()
		s.goodUtil = s.utilEWMA
		s.haveGood = true
		s.regress = 0
		return false
	}
	if s.utilEWMA >= s.goodUtil-s.degrade.RollbackMargin {
		s.regress = 0
		return false
	}
	s.regress++
	if s.regress < s.degrade.RollbackWindow || s.Dispatch.Live() == s.lastGood {
		return false
	}
	s.Dispatch.Restore(s.lastGood, s.Net.Eng.Now())
	s.Tuner.Commit(s.lastGood)
	wasActive := s.Tuner.Active()
	s.Tuner.Abort()
	s.Rollbacks++
	s.TM.Rollbacks.Inc()
	s.flight.trip(int64(s.Net.Eng.Now()),
		"rollback", fmt.Sprintf("ewma %.3f below good %.3f", s.utilEWMA, s.goodUtil))
	s.regress = 0
	// The regression has tainted the baseline too: re-anchor the good
	// utility at the current level so a persistent fault does not fire
	// an endless rollback storm against an unreachable pre-fault bar.
	s.goodUtil = s.utilEWMA
	s.trace.Rollback(s.sessionSpan, s.lastGood)
	if wasActive {
		s.trace.SpanEnd(s.sessionSpan)
		s.sessionSpan = 0
	}
	return true
}

// Pretrain runs the closed loop against whatever workload the caller has
// scheduled, for the given virtual duration, and returns the best
// parameters found — the "Pretrained" static settings of Fig 9.
func Pretrain(net *sim.Network, cfg SystemConfig, until eventsim.Time) (dcqcn.Params, error) {
	s, err := Attach(net, cfg)
	if err != nil {
		return dcqcn.Params{}, err
	}
	s.Start()
	net.Run(until)
	s.Stop()
	return s.Tuner.Best(), nil
}
