package dcqcn

import (
	"repro/internal/eventsim"
)

// RP is the Reaction Point state machine for one QP: the sender-side AIMD
// loop of DCQCN. Of DCQCN's two recurring timers, only the rate-increase
// timer is an engine event, and only while the QP sends below line rate: a
// QP at line rate parks it, and the next cut restarts it. Parking changes
// nothing a caller can see, because at line rate an increase is a no-op
// (rc and rt stay clamped) and the next cut resets the stage counters the
// fires would have bumped; only the Increases counter stops counting those
// clamped fires.
//
// The alpha-decay timer is not an event at all. The RP keeps the time of
// its next fire, alphaAt, and before anything reads or changes alpha
// (OnCNP, Alpha, Stop, CatchUp) applies every fire at or before now, each
// as the timer would have. A fire at a CNP's own nanosecond therefore
// counts as before that CNP. The timer agreed whenever it was armed before
// the CNP's delivery event, that is whenever the CNP's last-hop flight is
// shorter than alpha_update_interval (Specs() allows 1 µs, Table III runs
// 55 µs).
//
// Parameters are read through a func so that a centralized tuner can swap
// the live Params without touching every QP: the next timer or CNP simply
// observes the new values. A fire reads G and alpha_update_interval when it
// is applied, so whoever changes either under a running RP calls CatchUp
// first (rnic.Host.SetParams does, for every QP of the host); a fire at
// the change's own nanosecond then runs on the old values, as it does
// when the change comes at the end of that engine instant.
type RP struct {
	eng    *eventsim.Engine
	params func() *Params

	lineRateBps float64

	rc, rt float64 // current and target rate, bps
	alpha  float64

	// The stage counters restart at every cut. Below line rate a QP
	// climbs back within far fewer than 2^31 stages, and at line rate an
	// increase is a no-op whichever branch it takes, so 32 bits hold
	// them and keep an RP in two cache lines (TestRPIs128Bytes).
	byteCounter     int64 // bytes toward the next byte-counter stage
	bcStage, tStage int32 // byte-counter and timer stages since last cut
	hyperCount      int   // consecutive hyper-increase events

	everCut           bool
	cnpSinceAlpha     bool
	increasedSinceCut bool
	running           bool

	lastCut eventsim.Time
	// alphaAt is the next fire of the alpha-decay grid while running.
	alphaAt eventsim.Time

	// timerFn is the persistent increase-timer handler, built once in NewRP
	// so each re-arm schedules without allocating a closure. timerEv is
	// stale while the timer is parked.
	timerFn eventsim.Handler
	timerEv eventsim.EventID

	// Cuts and Increases count rate-decrease and rate-increase events;
	// exported for tests and overhead accounting.
	Cuts, Increases int
}

// alphaSnapFloor is the decay threshold below which alpha snaps to
// exactly 0. The snap is float-exact for every observable computation:
// below 1e-21, alpha is under half an ulp of any tunable G (Specs() floors
// g at 1/1024, ulp(2^-10)/2 ≈ 1.1e-19), so the CNP update
// (1-G)*alpha + G rounds to the same double either way, and the cut
// factor 1 - alpha/2 rounds to exactly 1.0. Snapping therefore changes
// no trace — it only gives "fully decayed" a representable fixed point
// past which the decay grid can jump.
const alphaSnapFloor = 1e-21

// NewRP returns a reaction point sending at line rate with alpha seeded
// from the current parameters. params must never return nil.
func NewRP(eng *eventsim.Engine, params func() *Params, lineRateBps float64) *RP {
	p := params()
	rp := &RP{
		eng:         eng,
		params:      params,
		lineRateBps: lineRateBps,
		rc:          lineRateBps,
		rt:          lineRateBps,
		alpha:       p.InitialAlpha,
	}
	rp.timerFn = func() {
		if !rp.running {
			return
		}
		rp.tStage++
		rp.increaseEvent()
		if !rp.atLineRate() {
			rp.armIncreaseTimer()
		}
	}
	return rp
}

// Rate reports the current sending rate in bps.
func (rp *RP) Rate() float64 { return rp.rc }

// TargetRate reports the target rate in bps.
func (rp *RP) TargetRate() float64 { return rp.rt }

// Alpha reports the congestion estimate, decayed up to now.
func (rp *RP) Alpha() float64 {
	rp.CatchUp()
	return rp.alpha
}

// Running reports whether the RP is started.
func (rp *RP) Running() bool { return rp.running }

func (rp *RP) atLineRate() bool { return rp.rc >= rp.lineRateBps && rp.rt >= rp.lineRateBps }

// Start starts the alpha-decay grid one alpha_update_interval from now and,
// below line rate, the increase timer. It is idempotent.
func (rp *RP) Start() {
	if rp.running {
		return
	}
	rp.running = true
	rp.alphaAt = rp.eng.Now() + rp.params().AlphaUpdateInterval
	if !rp.atLineRate() {
		rp.armIncreaseTimer()
	}
}

// Stop applies the alpha decay due by now and cancels the increase timer;
// the QP went idle or its flow finished.
func (rp *RP) Stop() {
	if !rp.running {
		return
	}
	rp.CatchUp()
	rp.running = false
	rp.eng.Cancel(rp.timerEv)
}

// CatchUp applies every alpha-decay fire at or before now, in order, as
// the recurring timer did: decay by G unless a CNP came since the previous
// fire, snap below alphaSnapFloor to 0, next fire one
// alpha_update_interval later. Callers that change G or
// alpha_update_interval under a running RP call it first. It inlines: a
// CNP between two grid points costs one comparison.
func (rp *RP) CatchUp() {
	if rp.running && rp.alphaAt <= rp.eng.Now() {
		rp.decayTo(rp.eng.Now())
	}
}

// decayTo applies the grid points up to now, the first of them due. Once
// alpha is 0 the remaining points are no-ops and the grid jumps past them.
func (rp *RP) decayTo(now eventsim.Time) {
	p := rp.params()
	for rp.alphaAt <= now {
		if !rp.cnpSinceAlpha {
			rp.alpha *= 1 - p.G
			if rp.alpha < alphaSnapFloor {
				rp.alpha = 0
			}
		}
		rp.cnpSinceAlpha = false
		if rp.alpha == 0 {
			rp.alphaAt += ((now-rp.alphaAt)/p.AlphaUpdateInterval + 1) * p.AlphaUpdateInterval
			return
		}
		rp.alphaAt += p.AlphaUpdateInterval
	}
}

// armIncreaseTimer rearms through the timing wheel: on the fire path (and
// after a park) the old id is stale and this schedules afresh; on the
// OnCNP restart path the live timer is rescheduled in place.
func (rp *RP) armIncreaseTimer() {
	rp.timerEv = rp.eng.RearmAfter(rp.timerEv, rp.params().RPGTimeReset, rp.timerFn)
}

// OnCNP handles a congestion notification from the NP. The alpha estimate
// rises immediately; the multiplicative cut is throttled by
// rate_reduce_monitor_period.
func (rp *RP) OnCNP() {
	rp.CatchUp()
	p := rp.params()
	rp.cnpSinceAlpha = true
	rp.alpha = (1-p.G)*rp.alpha + p.G
	now := rp.eng.Now()
	if rp.everCut && now-rp.lastCut < p.RateReduceMonitorPeriod {
		return
	}
	// Cut. clamp_tgt_rate pulls the target down every time; otherwise the
	// target only resets if the rate has climbed since the last cut, so a
	// stable flow can spring back to its old target quickly.
	if p.ClampTgtRate || rp.increasedSinceCut {
		rp.rt = rp.rc
	}
	rp.rc = max(p.MinRateBps, rp.rc*(1-rp.alpha/2))
	rp.lastCut = now
	rp.everCut = true
	rp.increasedSinceCut = false
	rp.bcStage, rp.tStage = 0, 0
	rp.byteCounter = 0
	rp.hyperCount = 0
	rp.Cuts++
	// The DCQCN increase timer restarts on a cut: one reschedule-in-place,
	// or a fresh schedule when it was parked at line rate.
	if rp.running {
		rp.armIncreaseTimer()
	}
}

// OnBytesSent credits transmitted bytes toward byte-counter stages. The
// caller invokes it per packet.
func (rp *RP) OnBytesSent(n int64) {
	p := rp.params()
	rp.byteCounter += n
	for rp.byteCounter >= p.RPGByteReset {
		rp.byteCounter -= p.RPGByteReset
		rp.bcStage++
		rp.increaseEvent()
	}
}

// increaseEvent applies one DCQCN rate-increase step: fast recovery while
// both stage counters are below F, hyper increase once both are at or
// beyond F, additive increase otherwise.
func (rp *RP) increaseEvent() {
	p := rp.params()
	f := int32(p.RPGThreshold)
	switch {
	case rp.bcStage < f && rp.tStage < f:
		// Fast recovery: halve toward the target.
	case rp.bcStage >= f && rp.tStage >= f:
		rp.hyperCount++
		rp.rt += float64(rp.hyperCount) * p.HAIRateBps
	default:
		rp.rt += p.AIRateBps
	}
	if rp.rt > rp.lineRateBps {
		rp.rt = rp.lineRateBps
	}
	rp.rc = (rp.rc + rp.rt) / 2
	if rp.rc > rp.lineRateBps {
		rp.rc = rp.lineRateBps
	}
	if rp.rc < p.MinRateBps {
		rp.rc = p.MinRateBps
	}
	rp.increasedSinceCut = true
	rp.Increases++
}
