package harness

import (
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/trace"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// ChaosDispatchResult summarizes the dispatch crash-recovery run.
type ChaosDispatchResult struct {
	// Faults / Recovers count injected faults and recoveries; Kills is
	// the controller kills among them.
	Faults, Recovers, Kills int
	// Plans / Commits / Aborts aggregate rollout-plan outcomes across
	// both controller incarnations.
	Plans, Commits, Aborts int
	// WALRecords is the journal length at the end of the run; Replayed
	// is how many records the restarted controller folded.
	WALRecords, Replayed int
	// GuardRejects counts admission refusals (including the forced
	// out-of-bounds probe at the end of the run).
	GuardRejects int
	// Epoch and CommittedEpoch are the final controller epochs;
	// Converged reports whether every fabric device ended on one
	// (epoch, vector-hash) — the experiment's reason to exist.
	Epoch, CommittedEpoch uint64
	Converged             bool
	// Dispatches sums parameter pushes across both incarnations.
	Dispatches int

	TP, Utility metrics.Series
	TraceEvents int
}

// Fprint renders the crash-recovery ledger.
func (r *ChaosDispatchResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "  mean TP=%.3f utility=%.3f\n",
		metrics.Mean(r.TP.Values), metrics.Mean(r.Utility.Values))
	fmt.Fprintf(w, "  faults=%d recoveries=%d controller kills=%d\n", r.Faults, r.Recovers, r.Kills)
	fmt.Fprintf(w, "  plans=%d commits=%d aborts=%d dispatches=%d guard rejects=%d\n",
		r.Plans, r.Commits, r.Aborts, r.Dispatches, r.GuardRejects)
	fmt.Fprintf(w, "  wal records=%d replayed=%d\n", r.WALRecords, r.Replayed)
	fmt.Fprintf(w, "  epoch=%d committed=%d fabric converged=%v\n",
		r.Epoch, r.CommittedEpoch, r.Converged)
	if r.TraceEvents > 0 {
		fmt.Fprintf(w, "  trace events=%d\n", r.TraceEvents)
	}
}

// ChaosDispatchCrash is the chaos-dispatch experiment: the staged
// rollout pipeline is driven into a canary plan, the controller is
// killed the moment the plan enters its settle window (after the canary
// epoch reached a subset of devices, before promotion), and a fresh
// controller is brought up two intervals later sharing only the intent
// WAL and the fabric. The restarted controller must replay the journal,
// abort the orphaned plan, and restore every touched device under one
// fresh epoch — the fabric converges to exactly one (epoch, hash)
// instead of forking between canary and stale vectors.
//
// The run ends with a deliberately out-of-bounds vector submitted to
// the recovered pipeline: the guard must reject it with the fabric
// untouched, visible in the dispatch telemetry family.
//
// Fully in-simulation (MemWAL, simulated ACK latency), so a fixed seed
// yields a byte-identical trace.
func ChaosDispatchCrash(scale Scale, horizon eventsim.Time, seed int64, traceTo io.Writer) (*ChaosDispatchResult, error) {
	return chaosDispatchCrash(scale, horizon, seed, traceTo, nil)
}

// ChaosDispatchCrashBlackbox is ChaosDispatchCrash with a flight
// recorder attached; blackbox receives the run's artifact, spanning
// both controller incarnations (the replay-driven plan abort trips an
// anomaly snapshot).
func ChaosDispatchCrashBlackbox(scale Scale, horizon eventsim.Time, seed int64, traceTo, blackbox io.Writer) (*ChaosDispatchResult, error) {
	return chaosDispatchCrash(scale, horizon, seed, traceTo, blackbox)
}

func chaosDispatchCrash(scale Scale, horizon eventsim.Time, seed int64, traceTo, blackbox io.Writer) (*ChaosDispatchResult, error) {
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

	var rec *trace.Recorder
	if traceTo != nil {
		rec = trace.NewRecorder(n.Eng, traceTo)
	}
	reg := telemetry.NewRegistry()
	cm := telemetry.NewChaosMetrics(reg)
	sink := &chaosSink{rec: rec, tm: cm, now: n.Eng.Now}

	var flight *series.Recorder
	if blackbox != nil {
		flight = series.NewRecorder(series.Meta{
			Experiment: "chaos-dispatch",
			Seed:       seed,
			IntervalNs: int64(interval),
			HorizonNs:  int64(horizon),
		})
		sink.flight = flight
		fct := telemetry.NewSimMetrics(reg).FCTMs
		n.AddFlowCompleteHook(func(fr sim.FlowRecord) {
			fct.Observe(float64(fr.FCT()) / 1e6)
		})
	}

	// The WAL and fabric are the only state shared across the controller
	// kill: the journal because it is durable, the fabric because device
	// epochs are switch state and switches do not die with the
	// controller.
	wal := &dispatch.MemWAL{}
	fab := dispatch.NewFabric(len(n.Topo.ToRs()))

	sysCfg := DefaultChaosSystemConfig()
	sysCfg.Telemetry = reg
	sysCfg.Interval = interval
	sysCfg.Dispatch = dispatch.Config{
		Enabled:         true,
		Canary:          1,
		SettleIntervals: 3,
		WAL:             wal,
		Fabric:          fab,
	}
	if rec != nil {
		sysCfg.Dispatch.Trace = rec
	}
	// Both controller incarnations sample into the one flight recorder,
	// so the artifact spans the kill and the replay-driven recovery.
	sysCfg.Flight = flight

	var flaky []*chaos.FlakySource
	var sources []monitor.ReportSource
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

	attach := func() (*core.System, error) {
		sys, err := core.Attach(n, sysCfg)
		if err != nil {
			return nil, err
		}
		sys.Controller.OnFault = func(fault string, agent int) { sink.Fault(fault, chaosTarget(agent)) }
		sys.Controller.OnRecover = func(fault string, agent int) { sink.Recover(fault, chaosTarget(agent)) }
		if rec != nil {
			sys.Trace = rec
		}
		return sys, nil
	}
	sys, err := attach()
	if err != nil {
		return nil, err
	}

	// The kill takes effect at the next interval boundary: the hook fires
	// mid-event-window (the pipeline enters settle when the canary ACK
	// quorum lands), and from then on the dead controller is never ticked
	// again until its replacement attaches.
	killed := false
	res := &ChaosDispatchResult{}
	inj := chaos.NewInjector(n, flaky, sink)
	inj.BindDispatch(sys.Dispatch, func() {
		killed = true
		res.Kills++
	})
	if err := inj.Install(chaos.Scenario{
		Seed:     seed,
		Dispatch: []chaos.DispatchFault{{KillAtPhase: "settle"}},
	}); err != nil {
		return nil, err
	}

	weights := sysCfg.Weights
	if weights.Validate() != nil {
		weights = tuner.DefaultWeights()
	}

	sys.StartProbingOnly()
	hosts := n.Topo.Hosts()
	w := 6
	if w > len(hosts) {
		w = len(hosts)
	}
	if _, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
		Workers:      hosts[:w],
		MessageBytes: 1 << 20,
		OffTime:      eventsim.Millisecond,
	}); err != nil {
		return nil, err
	}

	const deadIntervals = 2
	deadSince := -1
	var prevIncarnation *dispatch.Pipeline
	ticks := int(horizon / interval)
	for i := 1; i <= ticks; i++ {
		n.Run(eventsim.Time(i) * interval)
		if killed && deadSince < 0 {
			deadSince = i
			prevIncarnation = sys.Dispatch
			res.Plans += sys.Dispatch.Plans
			res.Commits += sys.Dispatch.Commits
			res.Aborts += sys.Dispatch.Aborts
			res.Dispatches += sys.Dispatches
		}
		if deadSince >= 0 && sys.Dispatch == prevIncarnation {
			if i-deadSince < deadIntervals {
				// Controller down: no ticks, stale sample in the series.
				res.TP.Append(n.Eng.Now(), sys.LastSample.OTP)
				res.Utility.Append(n.Eng.Now(), tuner.Utility(sys.LastSample, weights))
				continue
			}
			// Restart: a fresh System (new tuner, new monitor controller,
			// empty aggregation state) sharing only the WAL and fabric.
			// Attach replays the journal and launches the recovery
			// restore before the first tick.
			sys, err = attach()
			if err != nil {
				return nil, fmt.Errorf("chaos-dispatch: controller restart: %w", err)
			}
			sink.Recover("controller_kill", "phase settle")
		}
		sys.TickOnce()
		sample := sys.LastSample
		res.TP.Append(n.Eng.Now(), sample.OTP)
		res.Utility.Append(n.Eng.Now(), tuner.Utility(sample, weights))
		if rec != nil {
			rec.Sample(sample)
		}
	}
	// Let any in-flight recovery or promotion ACK waves finish.
	n.Run(eventsim.Time(ticks)*interval + 10*eventsim.Millisecond)

	// Guardrail probe: an out-of-bounds vector against the recovered
	// pipeline must bounce off admission with the fabric untouched.
	epochsBefore := fmt.Sprintf("%v", fab.Epochs())
	bad := *n.RNICParams()
	bad.PMax = 2.0
	if ok, reason := sys.Dispatch.SubmitFinal(bad, 0, n.Eng.Now()); ok {
		return nil, fmt.Errorf("chaos-dispatch: guard admitted PMax=2.0")
	} else if reason != dispatch.RejectBounds {
		return nil, fmt.Errorf("chaos-dispatch: PMax=2.0 rejected as %v, want bounds", reason)
	}
	if after := fmt.Sprintf("%v", fab.Epochs()); after != epochsBefore {
		return nil, fmt.Errorf("chaos-dispatch: rejected dispatch moved the fabric: %s -> %s", epochsBefore, after)
	}

	res.Faults = sink.faults
	res.Recovers = sink.recovers
	res.Plans += sys.Dispatch.Plans
	res.Commits += sys.Dispatch.Commits
	res.Aborts += sys.Dispatch.Aborts
	res.Dispatches += sys.Dispatches
	res.GuardRejects = sys.Dispatch.Guard().Rejects()
	res.WALRecords = wal.Len()
	res.Replayed = sys.Dispatch.WALReplayed()
	res.Epoch = sys.Dispatch.Epoch()
	res.CommittedEpoch = sys.Dispatch.CommittedEpoch()
	res.Converged = fab.Converged()
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return nil, fmt.Errorf("chaos-dispatch trace: %w", err)
		}
		res.TraceEvents = rec.Events
	}
	if flight != nil {
		m := flight.Meta()
		m.Tuner = sys.Tuner.Name()
		flight.SetMeta(m)
		if err := n.CheckPoolInvariant(); err != nil {
			flight.Trip(int64(n.Eng.Now()), "pool_invariant", err.Error())
		}
		if err := flight.WriteArtifact(blackbox, int64(n.Eng.Now()), reg); err != nil {
			return nil, fmt.Errorf("chaos-dispatch blackbox: %w", err)
		}
	}
	return res, nil
}
