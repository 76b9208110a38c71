package harness

import (
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
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
// yields a byte-identical trace. A non-nil blackbox attaches a flight
// recorder and receives its artifact, spanning both controller
// incarnations (the replay-driven plan abort trips an anomaly snapshot).
func ChaosDispatchCrash(scale Scale, horizon eventsim.Time, seed int64, traceTo, blackbox io.Writer) (*ChaosDispatchResult, error) {
	// The WAL and fabric are the only state shared across the controller
	// kill: the journal because it is durable, the fabric because device
	// epochs are switch state and switches do not die with the
	// controller.
	wal := &dispatch.MemWAL{}
	sysCfg := DefaultChaosSystemConfig()
	sysCfg.Telemetry = telemetry.NewRegistry()
	sysCfg.Dispatch = dispatch.Config{Enabled: true, Canary: 1, SettleIntervals: 3, WAL: wal}
	// Both controller incarnations sample into the rig's one flight
	// recorder, so the artifact spans the kill and the replay-driven
	// recovery.
	rig, err := newChaosRig(scale, sysCfg, traceTo, blackbox, series.Meta{
		Experiment: "chaos-dispatch", Seed: seed, HorizonNs: int64(horizon),
	})
	if err != nil {
		return nil, err
	}
	n := rig.n
	fab := dispatch.NewFabric(len(n.Topo.ToRs()))
	rig.sysCfg.Dispatch.Fabric = fab
	if rig.rec != nil {
		rig.sysCfg.Dispatch.Trace = rig.rec
	}
	sys, err := rig.attach()
	if err != nil {
		return nil, err
	}

	// The kill takes effect at the next interval boundary: the hook fires
	// mid-event-window (the pipeline enters settle when the canary ACK
	// quorum lands), and from then on the dead controller is never ticked
	// again until its replacement attaches.
	killed := false
	res := &ChaosDispatchResult{}
	inj := chaos.NewInjector(n, rig.flaky, rig.sink)
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
	sys.StartProbingOnly()
	if err := crossRackAlltoall(n); err != nil {
		return nil, err
	}

	const deadIntervals = 2
	deadSince := -1
	var prevIncarnation *dispatch.Pipeline
	interval := rig.sysCfg.Interval
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
				res.Utility.Append(n.Eng.Now(), rig.utility(sys.LastSample))
				continue
			}
			// Restart: a fresh System (new tuner, new monitor controller,
			// empty aggregation state) sharing only the WAL and fabric.
			// Attach replays the journal and launches the recovery
			// restore before the first tick.
			sys, err = rig.attach()
			if err != nil {
				return nil, fmt.Errorf("chaos-dispatch: controller restart: %w", err)
			}
			rig.sink.Recover("controller_kill", "phase settle")
		}
		sample := rig.tick(sys)
		res.TP.Append(n.Eng.Now(), sample.OTP)
		res.Utility.Append(n.Eng.Now(), rig.utility(sample))
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

	res.Faults, res.Recovers = rig.sink.faults, rig.sink.recovers
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
	if res.TraceEvents, err = rig.finish(blackbox); err != nil {
		return nil, err
	}
	return res, nil
}
