package dcqcn

import (
	"math"

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
// The increase timer's due time, incAt, lives apart from the engine event
// that wakes it. A cut restarts the timer by moving incAt one
// rpg_time_reset past the cut and asks the engine nothing, unless the
// timer was parked or the new due is earlier than incAt (rpg_time_reset
// was retuned down); then it re-arms the event. Under sustained throttling
// the event thus fires early, before incAt, and re-arms once for incAt.
// The fire at incAt is DCQCN's to the nanosecond, but its place among the
// events of that nanosecond can differ: an eager restart files the event
// at the last cut, this one where it last fired early, so it runs after,
// not before, an event scheduled for that nanosecond between the cut and
// the early fire. (After two cuts in one nanosecond, possible with
// rate_reduce_monitor_period 0, it keeps the place the first cut gave it.)
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
// The RP reads its parameters through the pointer it was built with, so a
// write through that pointer reaches it at the next timer, CNP or byte
// credit, and SetParams points it at another vector. A fire reads G and
// alpha_update_interval when it is applied, so whoever changes either
// under a running RP, by writing or by re-pointing, calls CatchUp first
// (rnic.Host.SetParams does, for every QP of the host); a fire at the
// change's own nanosecond then runs on the old values, as it does when the
// change comes at the end of that engine instant.
type RP struct {
	eng    *eventsim.Engine
	params *Params

	lineRateBps float64

	rc, rt float64 // current and target rate, bps
	alpha  float64

	// The stage counters restart at every cut. Below line rate a QP
	// climbs back within far fewer than 2^31 stages, and at line rate an
	// increase is a no-op whichever branch it takes, so 32 bits hold
	// them and keep an RP in two cache lines (TestRPIs128Bytes).
	// hyperCount saturates at MaxInt32 instead of wrapping: by then
	// hyperCount·hai_rate is past any line rate up to 2^31 × 10 Mbps
	// (Specs() floors hai_rate at 10 Mbps), so rt clamps and saturating
	// is bit-identical to counting on.
	byteCounter     int64 // bytes toward the next byte-counter stage
	bcStage, tStage int32 // byte-counter and timer stages since last cut
	hyperCount      int32 // consecutive hyper-increase events

	everCut           bool
	cnpSinceAlpha     bool
	increasedSinceCut bool
	running           bool

	lastCut eventsim.Time
	// alphaAt is the next fire of the alpha-decay grid while running.
	alphaAt eventsim.Time
	// incAt is the increase timer's due time, 0 while it is parked; an
	// armed due is never 0, since Validate rejects rpg_time_reset ≤ 0.
	// While armed, timerEv is filed at or before incAt.
	incAt eventsim.Time

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
// from the parameters params returns. It calls params once and keeps the
// vector it returns, which must not be nil.
func NewRP(eng *eventsim.Engine, params func() *Params, lineRateBps float64) *RP {
	p := params()
	rp := &RP{
		eng:         eng,
		params:      p,
		lineRateBps: lineRateBps,
		rc:          lineRateBps,
		rt:          lineRateBps,
		alpha:       p.InitialAlpha,
	}
	rp.timerFn = func() {
		if !rp.running {
			return
		}
		if rp.eng.Now() < rp.incAt {
			// Cuts moved the due time since this event was filed.
			rp.timerEv = rp.eng.Schedule(rp.incAt, rp.timerFn)
			return
		}
		rp.incAt = 0
		p := rp.params
		rp.tStage++
		rp.increaseEvent(p)
		if !rp.atLineRate() {
			rp.armIncreaseTimer(p)
		}
	}
	return rp
}

// Rate reports the current sending rate in bps.
func (rp *RP) Rate() float64 { return rp.rc }

// Alpha reports the congestion estimate, decayed up to now.
func (rp *RP) Alpha() float64 {
	rp.CatchUp()
	return rp.alpha
}

func (rp *RP) atLineRate() bool { return rp.rc >= rp.lineRateBps && rp.rt >= rp.lineRateBps }

// Start starts the alpha-decay grid one alpha_update_interval from now and,
// below line rate, the increase timer. It is idempotent.
func (rp *RP) Start() {
	if rp.running {
		return
	}
	rp.running = true
	rp.alphaAt = rp.eng.Now() + rp.params.AlphaUpdateInterval
	if !rp.atLineRate() {
		rp.armIncreaseTimer(rp.params)
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
	rp.incAt = 0
	rp.eng.Cancel(rp.timerEv)
}

// SetParams points the RP at p, which must not be nil. Whoever re-points a
// running RP onto a vector with another G or alpha_update_interval calls
// CatchUp first. An armed increase timer keeps its due time, as it does
// when rpg_time_reset is written in place.
func (rp *RP) SetParams(p *Params) { rp.params = p }

// CatchUp applies every alpha-decay fire at or before now, in order, as
// the recurring timer did: decay by G unless a CNP came since the previous
// fire, snap below alphaSnapFloor to 0, next fire one
// alpha_update_interval later. Callers that change G or
// alpha_update_interval under a running RP call it first. It inlines: a
// CNP between two grid points costs one comparison.
func (rp *RP) CatchUp() {
	if rp.running && rp.alphaAt <= rp.eng.Now() {
		rp.decayTo(rp.params, rp.eng.Now())
	}
}

// decayTo applies the grid points up to now, the first of them due. Once
// alpha is 0 the remaining points are no-ops and the grid jumps past them.
func (rp *RP) decayTo(p *Params, now eventsim.Time) {
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

// armIncreaseTimer sets the due time one rpg_time_reset from now and files
// the event for it: on the fire path (and after a park) the old id is stale
// and this schedules afresh; on OnCNP's re-arm path, a due earlier than the
// live event's, the live event is rescheduled in place.
func (rp *RP) armIncreaseTimer(p *Params) {
	rp.incAt = rp.eng.Now() + p.RPGTimeReset
	rp.timerEv = rp.eng.RearmAt(rp.timerEv, rp.incAt, rp.timerFn)
}

// OnCNP handles a congestion notification from the NP. The alpha estimate
// rises immediately; the multiplicative cut is throttled by
// rate_reduce_monitor_period.
func (rp *RP) OnCNP() {
	p := rp.params
	now := rp.eng.Now()
	if rp.running && rp.alphaAt <= now {
		rp.decayTo(p, now)
	}
	rp.cnpSinceAlpha = true
	rp.alpha = (1-p.G)*rp.alpha + p.G
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
	// The DCQCN increase timer restarts on a cut. While it is armed and the
	// new due is no earlier, only incAt moves, and the event, filed at or
	// before the old due, re-arms for it when it fires early. A parked
	// timer is armed, and a due earlier than incAt reschedules the live
	// event in place.
	if rp.running {
		if due := now + p.RPGTimeReset; rp.incAt != 0 && due >= rp.incAt {
			rp.incAt = due
		} else {
			rp.armIncreaseTimer(p)
		}
	}
}

// OnBytesSent credits transmitted bytes toward byte-counter stages. The
// caller invokes it per packet.
func (rp *RP) OnBytesSent(n int64) {
	p := rp.params
	rp.byteCounter += n
	for rp.byteCounter >= p.RPGByteReset {
		rp.byteCounter -= p.RPGByteReset
		rp.bcStage++
		rp.increaseEvent(p)
	}
}

// increaseEvent applies one DCQCN rate-increase step: fast recovery while
// both stage counters are below F, hyper increase once both are at or
// beyond F, additive increase otherwise.
func (rp *RP) increaseEvent(p *Params) {
	f := int32(p.RPGThreshold)
	switch {
	case rp.bcStage < f && rp.tStage < f:
		// Fast recovery: halve toward the target.
	case rp.bcStage >= f && rp.tStage >= f:
		if rp.hyperCount < math.MaxInt32 {
			rp.hyperCount++
		}
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
