package core

import (
	"fmt"
	"math"

	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/netdev"
	"repro/internal/telemetry/series"
	"repro/internal/tuner"
)

// flightSampler feeds a flight recorder from the control loop: once per
// monitor interval it appends the loop's health signals and a bounded
// set of per-ToR fabric signals into the recorder's series, and trips
// anomaly snapshots on the transitions worth a postmortem (rollbacks
// trip from their own code path; this sampler owns the delta/transition
// triggers).
//
// Everything here is read-only with respect to the simulation — no
// engine events, no randomness, no take-style counter resets — so an
// attached recorder leaves the event log and goldens untouched. Every
// handle (series, switches) is resolved at construction; sample() is
// allocation-free.
type flightSampler struct {
	rec *series.Recorder

	// Control-loop series.
	otp, ortt, opfc   *series.Series
	utility, utilEWMA *series.Series
	kl                *series.Series
	fsdFlows, fsdMB   *series.Series
	temperature       *series.Series
	bestUtility       *series.Series
	regret            *series.Series
	epoch             *series.Series

	// Per-ToR fabric series (bounded to maxFlightToRs switches).
	switches  []*netdev.Switch
	queue     []*series.Series
	markRate  []*series.Series
	pauseFrac []*series.Series
	prevMark  []int64
	prevTx    []int64
	prevPause []eventsim.Time

	interval eventsim.Time

	// Transition / delta state for anomaly triggers.
	prevGuardRejects int
	wasFrozen        bool
	wasDegraded      bool
}

// maxFlightToRs bounds how many scope ToRs get per-switch series; the
// first ones in scope order are recorded (deterministic), the rest are
// covered by the loop-level aggregates.
const maxFlightToRs = 4

// guardRejectBurst is the per-interval guard-reject delta that trips a
// "guard_reject_burst" anomaly: a strategy hammering the admission
// guard is misbehaving even though each reject alone is routine.
const guardRejectBurst = 3

// newFlightSampler resolves series handles and switch pointers for the
// deployment's scope. Called from Attach when SystemConfig.Flight is
// set.
func newFlightSampler(rec *series.Recorder, s *System) *flightSampler {
	set := rec.Set
	f := &flightSampler{
		rec:         rec,
		otp:         set.Series("otp", "frac"),
		ortt:        set.Series("ortt", "frac"),
		opfc:        set.Series("opfc", "frac"),
		utility:     set.Series("utility", "score"),
		utilEWMA:    set.Series("util_ewma", "score"),
		kl:          set.Series("monitor_kl", "nats"),
		fsdFlows:    set.Series("fsd_flows", "flows"),
		fsdMB:       set.Series("fsd_megabytes", "MB"),
		temperature: set.Series("tuner_temperature", ""),
		bestUtility: set.Series("tuner_best_utility", "score"),
		regret:      set.Series("tuner_regret", "score"),
		epoch:       set.Series("dispatch_epoch", ""),
		interval:    s.interval,
	}
	n := len(s.torScope)
	if n > maxFlightToRs {
		n = maxFlightToRs
	}
	for _, tor := range s.torScope[:n] {
		sw := s.Net.Switch(tor)
		if sw == nil {
			continue
		}
		f.switches = append(f.switches, sw)
		f.queue = append(f.queue, set.Series(fmt.Sprintf("queue_bytes_tor%d", tor), "bytes"))
		f.markRate = append(f.markRate, set.Series(fmt.Sprintf("ecn_mark_rate_tor%d", tor), "frac"))
		f.pauseFrac = append(f.pauseFrac, set.Series(fmt.Sprintf("pfc_pause_frac_tor%d", tor), "frac"))
	}
	f.prevMark = make([]int64, len(f.switches))
	f.prevTx = make([]int64, len(f.switches))
	f.prevPause = make([]eventsim.Time, len(f.switches))
	return f
}

// sample records one monitor interval. It runs on every tick — frozen
// and idle intervals included, which is exactly when a postmortem needs
// the trajectory — and must stay allocation-free.
func (f *flightSampler) sample(s *System, now eventsim.Time, sample loop.RuntimeSample, util float64) {
	t := int64(now)
	f.otp.Append(t, sample.OTP)
	f.ortt.Append(t, sample.ORTT)
	f.opfc.Append(t, sample.OPFC)
	f.utility.Append(t, util)
	f.utilEWMA.Append(t, s.utilEWMA)
	f.kl.Append(t, s.Controller.LastKL)
	f.fsdFlows.Append(t, float64(s.Controller.Current.Flows))
	f.fsdMB.Append(t, s.Controller.Current.TotalBytes/1e6)
	if td, ok := s.Tuner.(tuner.Temperatured); ok {
		f.temperature.Append(t, td.Temperature())
	}
	// BestUtility is -Inf until a session measures something, and JSON
	// cannot carry non-finite values; skip samples until it is real.
	if best := s.Tuner.BestUtility(); !math.IsInf(best, 0) && !math.IsNaN(best) {
		f.bestUtility.Append(t, best)
	}
	f.regret.Append(t, s.TM.Regret.Value())
	f.epoch.Append(t, float64(s.Dispatch.Epoch()))

	for i, sw := range f.switches {
		f.queue[i].Append(t, float64(sw.BufferUsed()))
		var marked, tx int64
		for p := 0; p < sw.NumPorts(); p++ {
			st := &sw.Port(p).Stats
			marked += st.ECNMarked
			tx += st.TxPackets
		}
		rate := 0.0
		if dTx := tx - f.prevTx[i]; dTx > 0 {
			rate = float64(marked-f.prevMark[i]) / float64(dTx)
		}
		f.markRate[i].Append(t, rate)
		f.prevMark[i], f.prevTx[i] = marked, tx

		paused := sw.TotalPausedTime()
		frac := 0.0
		if denom := f.interval * eventsim.Time(sw.NumPorts()); denom > 0 {
			frac = float64(paused-f.prevPause[i]) / float64(denom)
		}
		f.pauseFrac[i].Append(t, frac)
		f.prevPause[i] = paused
	}

	f.checkTransitions(s, t)
}

// trip records an anomaly in the flight recorder, if one is attached.
func (f *flightSampler) trip(t int64, kind, detail string) {
	if f != nil {
		f.rec.Trip(t, kind, detail)
	}
}

// checkTransitions trips the sampler-owned anomaly triggers: quorum
// freezes, FSD degradation, and guard-reject bursts. Trips are rare and
// may allocate (detail strings).
func (f *flightSampler) checkTransitions(s *System, t int64) {
	if d := s.GuardRejects - f.prevGuardRejects; d >= guardRejectBurst {
		f.rec.Trip(t, "guard_reject_burst", fmt.Sprintf("%d rejects in one interval", d))
	}
	f.prevGuardRejects = s.GuardRejects

	frozen := s.Controller.Frozen
	if frozen && !f.wasFrozen {
		f.rec.Trip(t, "quorum_freeze", fmt.Sprintf("present=%d", s.Controller.PresentAgents))
	}
	f.wasFrozen = frozen

	degraded := s.Controller.Degraded
	if degraded && !f.wasDegraded {
		f.rec.Trip(t, "fsd_degraded", fmt.Sprintf("present=%d", s.Controller.PresentAgents))
	}
	f.wasDegraded = degraded
}
