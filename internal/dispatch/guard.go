// Package dispatch is the staged, guardrailed, crash-recoverable
// parameter-rollout pipeline between the tuner and the fabric.
//
// A tuned DCQCN vector is the most dangerous artifact the control loop
// produces: one bad setting, pushed fabric-wide, collapses throughput
// everywhere at once. This package makes the push the *safest* part of
// the loop instead of the most fragile:
//
//   - admission guardrails validate every candidate before it leaves the
//     controller (per-parameter bounds, Kmin<Kmax ordering, bounded
//     relative step against the live vector, dispatch-frequency rate
//     limits) — rejects are counted and traced, never silently dropped;
//   - session-settling dispatches become multi-phase canary plans: apply
//     to a deterministic canary subset, hold a settle window watching
//     health signals, then promote fabric-wide or abort-and-restore;
//   - an epoch commit protocol makes applies idempotent: every dispatch
//     carries a monotonically increasing epoch, devices ACK
//     (epoch, vector-hash), phases commit only once every awaited
//     device has ACKed within bounded retries, and stale or duplicate
//     applies are rejected idempotently so reordered and retried frames
//     are safe;
//   - a write-ahead intent log journals intent → phase transitions →
//     commit/abort, so a controller restarted mid-rollout replays the
//     log and converges the fabric to exactly one epoch instead of
//     forking its state.
package dispatch

import (
	"fmt"
	"math"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/splitmix"
)

// RejectReason classifies why the guard refused a candidate vector.
// Reasons are small ints (not errors) so the admission check stays
// allocation-free on the dispatch hot path.
type RejectReason int

const (
	// RejectNone means the candidate was admitted.
	RejectNone RejectReason = iota
	// RejectBounds: a parameter is outside its Spec [Min, Max] range.
	RejectBounds
	// RejectOrder: the ECN thresholds violate Kmin < Kmax.
	RejectOrder
	// RejectStep: a parameter moved more than MaxRelStep relative to the
	// live vector in one dispatch.
	RejectStep
	// RejectRate: the dispatch arrived sooner than MinGap after the
	// previous admitted one.
	RejectRate
	// RejectInFlight: a rollout plan is already in flight; concurrent
	// plans would interleave epochs on the same devices.
	RejectInFlight

	numRejectReasons
)

// String names the reason for traces and status snapshots.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "admitted"
	case RejectBounds:
		return "bounds"
	case RejectOrder:
		return "ecn_order"
	case RejectStep:
		return "rel_step"
	case RejectRate:
		return "rate_limit"
	case RejectInFlight:
		return "plan_in_flight"
	default:
		return "unknown"
	}
}

// GuardConfig bounds what the admission guard lets through. The
// per-parameter Spec bounds and the Kmin<Kmax ordering check are always
// on; the zero value disables only the step and rate limits.
type GuardConfig struct {
	// MaxRelStep bounds how far any single parameter may move in one
	// dispatch, as a fraction of the live value (PET-style bounded ECN
	// steps, generalized to the whole vector). 0 disables the check.
	MaxRelStep float64
	// MinGap is the minimum virtual time between two admitted
	// dispatches. 0 disables the rate limit.
	MinGap eventsim.Time
}

// Guard validates candidate vectors against the live fabric setting.
// Admit is allocation-free: the Specs table is resolved once at
// construction and verdicts are (reason, spec index) pairs, with the
// human-readable rendering split into Explain off the hot path.
type Guard struct {
	cfg   GuardConfig
	specs []dcqcn.Spec

	lastAt   eventsim.Time
	haveLast bool

	// Admitted counts admissions; Rejected counts refusals by reason.
	Admitted int
	Rejected [numRejectReasons]int
}

// NewGuard builds a guard with the given limits.
func NewGuard(cfg GuardConfig) *Guard {
	return &Guard{cfg: cfg, specs: dcqcn.Specs()}
}

// Admit validates candidate against the live vector at virtual time now.
// It returns (RejectNone, -1) on admission — recording now for the rate
// limit — or the reason plus the offending Specs index (-1 when the
// reason has no single parameter).
func (g *Guard) Admit(candidate, live *dcqcn.Params, now eventsim.Time) (RejectReason, int) {
	if g.cfg.MinGap > 0 && g.haveLast && now-g.lastAt < g.cfg.MinGap {
		g.Rejected[RejectRate]++
		return RejectRate, -1
	}
	for i := range g.specs {
		sp := &g.specs[i]
		v := sp.Get(candidate)
		if v < sp.Min || v > sp.Max {
			g.Rejected[RejectBounds]++
			return RejectBounds, i
		}
		if g.cfg.MaxRelStep > 0 && live != nil {
			lv := sp.Get(live)
			scale := math.Abs(lv)
			if scale == 0 {
				// A parameter whose live value is zero (legal only for
				// floor-at-zero knobs) is measured against its span.
				scale = sp.Max - sp.Min
			}
			if math.Abs(v-lv) > g.cfg.MaxRelStep*scale {
				g.Rejected[RejectStep]++
				return RejectStep, i
			}
		}
	}
	if candidate.KmaxBytes <= candidate.KminBytes {
		g.Rejected[RejectOrder]++
		return RejectOrder, -1
	}
	g.Admitted++
	g.lastAt = now
	g.haveLast = true
	return RejectNone, -1
}

// Explain renders an Admit verdict for logs and traces. It allocates;
// call it only on the reject path.
func (g *Guard) Explain(reason RejectReason, spec int) string {
	if reason == RejectNone {
		return "admitted"
	}
	if spec >= 0 && spec < len(g.specs) {
		return fmt.Sprintf("%s (%s)", reason, g.specs[spec].Name)
	}
	return reason.String()
}

// Rejects returns the total refusal count across all reasons.
func (g *Guard) Rejects() int {
	n := 0
	for _, c := range g.Rejected {
		n += c
	}
	return n
}

// hashMix is the SplitMix64 finalizer, chained per field to fold a
// vector into one 64-bit fingerprint. Not cryptographic — it exists so
// an ACK can name the exact vector it applied and a retried frame with
// a different payload is detectable.
func hashMix(h, v uint64) uint64 {
	return splitmix.Fold(h, v)
}

// VectorHash fingerprints a parameter vector deterministically and
// allocation-free. Devices ACK (epoch, hash); the controller matches the
// hash before counting the ACK.
func VectorHash(p *dcqcn.Params) uint64 {
	h := uint64(0x243f6a8885a308d3) // π, for want of a better constant
	h = hashMix(h, math.Float64bits(p.AIRateBps))
	h = hashMix(h, math.Float64bits(p.HAIRateBps))
	h = hashMix(h, uint64(p.RPGTimeReset))
	h = hashMix(h, uint64(p.RPGByteReset))
	h = hashMix(h, uint64(p.RPGThreshold))
	h = hashMix(h, uint64(p.RateReduceMonitorPeriod))
	h = hashMix(h, math.Float64bits(p.MinRateBps))
	if p.ClampTgtRate {
		h = hashMix(h, 1)
	} else {
		h = hashMix(h, 2)
	}
	h = hashMix(h, math.Float64bits(p.G))
	h = hashMix(h, uint64(p.AlphaUpdateInterval))
	h = hashMix(h, math.Float64bits(p.InitialAlpha))
	h = hashMix(h, uint64(p.MinTimeBetweenCNPs))
	h = hashMix(h, uint64(p.KminBytes))
	h = hashMix(h, uint64(p.KmaxBytes))
	h = hashMix(h, math.Float64bits(p.PMax))
	return h
}
