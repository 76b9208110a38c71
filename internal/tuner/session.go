package tuner

import (
	"math"

	"repro/internal/dcqcn"
	"repro/internal/loop"
	"repro/internal/telemetry"
)

// session is the shape every strategy shares, Algorithm 1's outer loop:
// a KL trigger opens it, a warmup interval holds the incumbent, the next
// interval's clean measurement seeds the search, the strategy's own move
// steps until its schedule ends, and the best vector settles. It holds
// the incumbent/best pair, the lifetime counters and their telemetry
// mirrors; a strategy embeds it and calls its helpers in the order its
// search needs, so each strategy's RNG draws stay its own.
type session struct {
	weights Weights

	active  bool
	warmup  bool // discard the first post-trigger sample (ramp bias)
	started bool // the incumbent has been measured and seeded
	iter    int  // search iterations consumed this session

	// live is the vector the fabric runs, as Commit last recorded it;
	// a new session's incumbent.
	live        dcqcn.Params
	current     dcqcn.Params
	currentUtil float64
	best        dcqcn.Params
	bestUtil    float64

	stats Stats
	tm    *telemetry.TunerMetrics
}

// noMetrics is the bundle of a session no registry is attached to, so
// sessions record without checking for one.
var noMetrics = telemetry.NewTunerMetrics(telemetry.NewRegistry())

// newSession validates the weights and the starting vector, the one the
// fabric runs until the first Commit.
func newSession(weights Weights, base dcqcn.Params) (session, error) {
	if err := weights.Validate(); err != nil {
		return session{}, err
	}
	if err := base.Validate(); err != nil {
		return session{}, err
	}
	return session{weights: weights, live: base, current: base, best: base, tm: noMetrics}, nil
}

// Active reports whether a session is in progress.
func (s *session) Active() bool { return s.active }

// Best returns the best parameter setting found so far.
func (s *session) Best() dcqcn.Params { return s.best }

// BestUtility returns Best's utility on the 0–100 scale.
func (s *session) BestUtility() float64 { return s.bestUtil }

// Stats returns the lifetime counters.
func (s *session) Stats() Stats { return s.stats }

// SetMetrics attaches a telemetry bundle (nil detaches).
func (s *session) SetMetrics(tm *telemetry.TunerMetrics) {
	if tm == nil {
		tm = noMetrics
	}
	s.tm = tm
}

// Commit records p as the vector the fabric runs; the next session
// opens on it. Within a session the search assumes its proposals land:
// after a proposal the loop refused, the next sample measures the vector
// the fabric kept, and the search judges it as the candidate's.
func (s *session) Commit(p dcqcn.Params) { s.live = p }

// Abort cancels an in-progress session without settling on its best
// setting. The rollback path uses it: a session whose measurements
// straddle a fault was searching on corrupted feedback, so neither its
// chain nor its best are worth keeping. A later KL trigger starts fresh.
func (s *session) Abort() {
	if !s.active {
		return
	}
	s.active = false
	s.stats.Aborts++
	s.tm.Aborts.Inc()
	s.tm.Active.Set(0)
}

// open is Trigger's reset: a new session on the vector the fabric runs,
// its warmup interval pending.
func (s *session) open() {
	s.active = true
	s.current = s.live
	s.warmup = true
	s.started = false
	s.iter = 0
	s.bestUtil = math.Inf(-1)
	s.currentUtil = math.Inf(-1)
	s.tm.Active.Set(1)
}

// measure counts one iteration and returns sample's utility on the
// 0–100 scale the strategies search on.
func (s *session) measure(sample loop.RuntimeSample) float64 {
	s.stats.Steps++
	s.tm.Iterations.Inc()
	return 100 * Utility(sample, s.weights)
}

// hold ends the warmup interval, which holds the vector the fabric
// runs. The interval in which the trigger fired straddles the traffic
// change (ramp-up, or the old pattern's tail); its measurement would bias
// the incumbent's utility, so the incumbent is held for one more interval
// and the search seeds from the next, clean sample.
func (s *session) hold() dcqcn.Params {
	s.warmup = false
	s.propose()
	return s.current
}

// seed takes the first clean measurement as the incumbent's utility and
// the session's first best.
func (s *session) seed(util float64) {
	s.started = true
	s.currentUtil = util
	s.best, s.bestUtil = s.current, util
}

// judge records the strategy's decision on the candidate measured at
// util: an accepted candidate becomes the incumbent, and the best
// follows the incumbent.
func (s *session) judge(util float64, accept bool, cand dcqcn.Params) {
	if accept {
		s.current = cand
		s.currentUtil = util
		s.stats.Accepts++
		s.tm.Accepts.Inc()
	} else {
		s.stats.Rejects++
		s.tm.Rejects.Inc()
	}
	if s.currentUtil > s.bestUtil {
		s.best = s.current
		s.bestUtil = s.currentUtil
	}
	s.tm.BestUtility.Set(s.bestUtil)
}

// settle ends the session on its best setting and proposes it.
func (s *session) settle() dcqcn.Params {
	s.active = false
	s.stats.Sessions++
	s.tm.Sessions.Inc()
	s.tm.Active.Set(0)
	s.propose()
	return s.best
}

// propose counts a vector handed out for dispatch.
func (s *session) propose() {
	s.stats.Proposals++
	s.tm.Proposals.Inc()
}
