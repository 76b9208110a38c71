package harness

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/topology"
	"repro/internal/trace"
)

// observers are what a run records beside its series: the event log and
// the flight recorder (each nil unless asked for) and, under a fault
// schedule, the fault counts. They are the schedule's chaos.Sink: a
// fault goes to the event log, the chaos telemetry family, and the
// flight recorder, where it trips an anomaly snapshot.
type observers struct {
	log    *trace.Recorder
	flight *series.Recorder
	tm     *telemetry.ChaosMetrics
	now    func() eventsim.Time
	// lastFault is the target of the latest fault.
	lastFault        string
	faults, recovers int
}

// newObservers builds the observers cfg asks for around n. The flight
// recorder's artifact carries the event log's tail and the flow
// completion times in reg.
func newObservers(n *sim.Network, reg *telemetry.Registry, cfg RunConfig, seed int64) *observers {
	o := &observers{now: n.Eng.Now}
	if cfg.Trace != nil || cfg.Blackbox != nil {
		o.log = trace.New(func() int64 { return int64(n.Eng.Now()) }, cfg.Trace, cfg.Blackbox != nil)
	}
	if cfg.Faults != nil {
		o.tm = telemetry.NewChaosMetrics(reg)
	}
	if cfg.Blackbox != nil {
		o.flight = series.NewRecorder(series.Meta{
			Experiment: cfg.Scheme.Name,
			Scale:      cfg.ScaleLabel,
			Seed:       seed,
			HorizonNs:  int64(cfg.Duration),
			IntervalNs: int64(cfg.Interval),
		})
		o.flight.Log = o.log
		// Flow completion times feed the registry histogram the artifact
		// embeds; the hook is composable observation only.
		fct := telemetry.NewSimMetrics(reg).FCTMs
		n.AddFlowCompleteHook(func(fr sim.FlowRecord) {
			fct.Observe(float64(fr.FCT()) / 1e6)
		})
	}
	return o
}

func (o *observers) Fault(fault, target string) {
	o.faults++
	o.lastFault = target
	o.tm.Faults.Inc()
	o.log.Fault(0, fault, target)
	if o.flight != nil {
		o.flight.Trip(int64(o.now()), "chaos_fault", fault+" "+target)
	}
}

func (o *observers) Recover(fault, target string) {
	o.recovers++
	o.tm.Recovers.Inc()
	o.log.Recover(0, fault, target)
}

// attach deploys Paraleon on n; under a fault schedule the controller's
// degradation hooks report as faults.
func (o *observers) attach(n *sim.Network, cfg core.SystemConfig) (*core.System, error) {
	sys, err := core.Attach(n, cfg)
	if err != nil {
		return nil, err
	}
	if o.tm != nil {
		target := func(agent int) string {
			if agent < 0 {
				return "controller"
			}
			return fmt.Sprintf("agent %d", agent)
		}
		sys.Controller.OnFault = func(fault string, agent int) { o.Fault(fault, target(agent)) }
		sys.Controller.OnRecover = func(fault string, agent int) { o.Recover(fault, target(agent)) }
	}
	if o.flight != nil {
		m := o.flight.Meta()
		m.Tuner = sys.Tuner.Name()
		o.flight.SetMeta(m)
	}
	return sys, nil
}

// finish flushes the event log and checks what a PFC fabric promises: no
// switch dropped a packet, and the packet pool accounts for every packet
// (sim.Network.CheckPoolInvariant). It writes the flight-recorder
// artifact to blackbox, with an anomaly if the check failed, and returns
// the number of events logged and the check's error.
func (o *observers) finish(n *sim.Network, blackbox io.Writer, reg *telemetry.Registry) (int, error) {
	if err := o.log.Flush(); err != nil {
		return 0, fmt.Errorf("harness: trace: %w", err)
	}
	var drops int64
	for _, sw := range n.Switches {
		drops += sw.Stats.Drops
	}
	err := n.CheckPoolInvariant()
	if drops > 0 {
		err = fmt.Errorf("harness: %d packets dropped on a lossless fabric", drops)
	}
	if o.flight != nil {
		now := int64(n.Eng.Now())
		if err != nil {
			o.flight.Trip(now, "lossless", err.Error())
		}
		if werr := o.flight.WriteArtifact(blackbox, now, reg); werr != nil {
			return 0, fmt.Errorf("harness: blackbox: %w", werr)
		}
	}
	if o.log == nil {
		return 0, err
	}
	return o.log.Events, err
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

// chaosConfig is the in-simulation chaos run called name: Paraleon with the
// compressed SA schedule and degradation handling deg, on a sustained
// cross-rack alltoall for horizon, its event log going to traceTo.
func chaosConfig(name string, scale Scale, horizon eventsim.Time, traceTo io.Writer, deg core.DegradeConfig) RunConfig {
	sc := ParaleonScheme()
	sc.Name = name
	sc.SystemCfg.Degrade = deg
	cfg := scale.Config(sc, horizon, crossRackAlltoall)
	cfg.Trace = traceTo
	return cfg
}

// ChaosLinkFlapConfig is the chaos-linkflap run: a sustained cross-rack
// alltoall while one fabric uplink flaps. The flap shifts the observed
// traffic pattern, (re)starting a tuning session whose candidate
// parameters are then measured through the outage — exactly the
// situation rollback exists for: utility regresses persistently, the
// system reverts to the last-known-good vector and aborts the search.
// Callers adjust the configuration (a flight recorder, a fresh registry,
// another strategy) before Run executes it.
func ChaosLinkFlapConfig(scale Scale, horizon eventsim.Time, seed int64, traceTo io.Writer) RunConfig {
	cfg := chaosConfig("chaos-linkflap", scale, horizon, traceTo, core.DegradeConfig{RollbackWindow: 3, RollbackMargin: 0.05})
	cfg.Faults = func(n *sim.Network) chaos.Scenario {
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
	}
	return cfg
}

// ChaosAgentCrashConfig is the chaos-agentcrash run: one of the two rack
// agents crashes mid-run (losing its sketch state) and restarts later.
// StaleAfter is set beyond the outage so the membership holds and the
// sub-quorum freeze spans the entire outage; tuning resumes the interval
// the agent returns. Fully in-simulation, so a fixed seed yields a
// byte-identical trace.
func ChaosAgentCrashConfig(scale Scale, horizon eventsim.Time, seed int64, traceTo io.Writer) RunConfig {
	cfg := chaosConfig("chaos-agentcrash", scale, horizon, traceTo, core.DegradeConfig{
		// Hold membership across the outage: with 2 racks, 1/2 present
		// vs QuorumFrac 0.6 freezes; eviction would instead shrink the
		// membership to 1/1 and unfreeze half-blind.
		StaleAfter: 1 << 20,
		QuorumFrac: 0.6,
	})
	cfg.Faults = FixedFaults(chaos.Scenario{
		Seed: seed,
		Agents: []chaos.AgentFault{{
			Agent:     0,
			CrashAt:   horizon * 3 / 10,
			RestartAt: horizon * 6 / 10,
		}},
	})
	return cfg
}

// ChaosCtrlPartitionConfig is the chaos-ctrlpartition run: the testbed
// control plane (real TCP loopback) under transport faults and a
// controller kill+restart, loaded by FB_Hadoop at 30%. Agents redial
// through connections that drop, duplicate and truncate frames; halfway
// through, the controller is killed and a fresh one binds the same
// address, losing all aggregation state. The run demonstrates that the
// loop degrades (some calls are lost) but never wedges.
//
// The control plane runs on wall-clock TCP, so unlike the in-simulation
// experiments the fault *pattern* is seeded but the interleaving is not
// byte-deterministic.
func ChaosCtrlPartitionConfig(scale Scale, horizon eventsim.Time, seed int64) RunConfig {
	cfg := testbedConfig(scale, horizon, fbPoisson(0.3, 0))
	cfg.Scheme.Name = "chaos-ctrlpartition"
	cfg.Wire.RestartAt = int(horizon/cmp.Or(scale.Interval, eventsim.Millisecond)) / 2
	cfg.Faults = FixedFaults(chaos.Scenario{Seed: seed, Conn: chaos.ConnFaults{
		DropProb:    0.05,
		DupProb:     0.02,
		TruncProb:   0.02,
		DropTimeout: 25 * time.Millisecond,
	}})
	return cfg
}

// ChaosDispatchConfig is the chaos-dispatch run: the controller is
// killed between two dispatches, at half the horizon, and a fresh one
// is brought up two intervals later sharing only the write-ahead log and
// the fabric — the journal because it is durable, the fabric because
// device epochs are switch state and switches do not die with the
// controller. The restarted controller replays the journal and resumes
// on the last vector any device was sent, numbering its epochs above
// every one a device saw: the run fails if its live vector is not the
// fabric's, or if any device refused an epoch as stale or duplicate.
//
// The run ends with a deliberately out-of-bounds vector submitted to
// the recovered pipeline: the guard must reject it with the fabric
// untouched, visible in the dispatch telemetry family, which the run
// keeps in a registry of its own.
//
// Fully in-simulation (MemWAL), so a fixed seed yields a byte-identical
// trace. A flight recorder's artifact spans both controller
// incarnations.
func ChaosDispatchConfig(scale Scale, horizon eventsim.Time, seed int64, traceTo io.Writer) RunConfig {
	cfg := chaosConfig("chaos-dispatch", scale, horizon, traceTo, core.DegradeConfig{})
	cfg.Scheme.SystemCfg.Telemetry = telemetry.NewRegistry()
	cfg.Scheme.SystemCfg.Dispatch = dispatch.Config{WAL: &dispatch.MemWAL{}}
	cfg.Faults = FixedFaults(chaos.Scenario{Seed: seed, KillAt: horizon / 2})
	cfg.End = func(n *sim.Network, sys *core.System) error {
		fab, live := sys.Dispatch.Fabric(), sys.Dispatch.Live()
		for i, d := range fab.Devices {
			if d.Params != live {
				return fmt.Errorf("chaos-dispatch: device %d runs %016x, the restarted controller's live vector is %016x",
					i, d.Hash, dispatch.VectorHash(&live))
			}
			if d.Stale+d.Dups > 0 {
				return fmt.Errorf("chaos-dispatch: device %d refused %d epochs as stale and %d as duplicate", i, d.Stale, d.Dups)
			}
		}

		// Guardrail probe: an out-of-bounds vector against the recovered
		// pipeline must bounce off admission with the fabric untouched.
		epochsBefore := fmt.Sprintf("%v", fab.Epochs())
		bad := *n.RNICParams()
		bad.PMax = 2.0
		if ok, reason := sys.Dispatch.Submit(bad, n.Eng.Now()); ok {
			return fmt.Errorf("chaos-dispatch: guard admitted PMax=2.0")
		} else if reason != dispatch.RejectBounds {
			return fmt.Errorf("chaos-dispatch: PMax=2.0 rejected as %v, want bounds", reason)
		}
		if after := fmt.Sprintf("%v", fab.Epochs()); after != epochsBefore {
			return fmt.Errorf("chaos-dispatch: rejected dispatch moved the fabric: %s -> %s", epochsBefore, after)
		}
		return nil
	}
	return cfg
}
