package dispatch

import (
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Phase is the rollout plan state. Exploration dispatches never leave
// PhaseIdle; a session-settling dispatch walks Canary → Settle →
// Promote and back to Idle on commit or abort.
type Phase int

const (
	PhaseIdle Phase = iota
	PhaseCanary
	PhaseSettle
	PhasePromote
)

// String names the phase for WAL records, traces, and chaos hooks.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseCanary:
		return "canary"
	case PhaseSettle:
		return "settle"
	case PhasePromote:
		return "promote"
	default:
		return "unknown"
	}
}

// Config parameterizes a Pipeline. Admission always enforces the spec
// bounds and ECN ordering (GuardConfig{}).
type Config struct {
	// Canary is the canary prefix size in devices (scope ToRs); 0 means 1
	// for a SubmitFinal caller. core.System starts canary plans only when
	// it is > 0.
	Canary int
	// SettleIntervals is how many health ticks the canary must survive
	// before promotion; 0 means 3.
	SettleIntervals int
	// WAL is the intent journal; nil means a fresh MemWAL. Hand the same
	// WAL to a restarted controller to recover an in-flight rollout.
	WAL WAL
	// Fabric is the rollout target set; nil means the owner builds one.
	// Hand the same Fabric to a restarted controller: device epochs are
	// switch state and survive the controller.
	Fabric *Fabric
}

// The rollout's fixed timings and thresholds. A phase commits once
// every awaited device has ACKed.
const (
	// maxPauseFrac aborts the plan when the fabric PFC pause fraction
	// exceeds it during settle.
	maxPauseFrac = 0.5
	// ackDelay is the simulated device ACK latency.
	ackDelay = 20 * eventsim.Microsecond
	// ackDeadline bounds each apply wave's wait for its ACKs.
	ackDeadline = 10 * ackDelay
	// ackRetries is how many re-apply waves follow a missed deadline
	// before the plan aborts.
	ackRetries = 2
)

func (c *Config) canary(n int) int {
	k := c.Canary
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

func (c *Config) settleIntervals() int {
	if c.SettleIntervals <= 0 {
		return 3
	}
	return c.SettleIntervals
}

// Health is the per-interval signal set the settle window watches,
// already instrumented by the monitor/controller stack.
type Health struct {
	// Utility is the EWMA-smoothed utility (tuner.Utility scale). Nothing
	// reads it; it stays only because the benchmark module sets it.
	Utility float64
	// PauseFrac is the fabric PFC pause fraction in [0,1].
	PauseFrac float64
}

// Status is the /debug/status snapshot of the pipeline, published to
// the telemetry registry on every transition and health tick.
type Status struct {
	Phase          string `json:"phase"`
	Epoch          uint64 `json:"epoch"`
	CommittedEpoch uint64 `json:"committed_epoch"`
	Plans          int    `json:"plans"`
	Commits        int    `json:"commits"`
	Aborts         int    `json:"aborts"`
	Admitted       int    `json:"admitted"`
	Rejects        int    `json:"rejects"`
	LastReject     string `json:"last_reject,omitempty"`
	SettleLeft     int    `json:"settle_left"`
	AckWave        int    `json:"ack_wave"`
	WALReplayed    int    `json:"wal_replayed"`
}

// Pipeline is the controller-side rollout driver. It is single-threaded
// by construction — every entry point runs on the simulation's event
// loop (or the daemon's tick goroutine), like the rest of the control
// loop.
type Pipeline struct {
	cfg   Config
	eng   *eventsim.Engine
	fab   *Fabric
	guard *Guard
	wal   WAL
	apply func(devs []int, p dcqcn.Params)

	status *telemetry.StatusCell[Status]
	tm     *telemetry.DispatchMetrics

	// Trace, when non-nil, receives plan/phase spans and reject notes.
	// Set it before Resume so recovery is traced too.
	Trace *trace.Recorder
	// OnAbort fires with the restored vector and the abort reason.
	OnAbort func(restored dcqcn.Params, reason string)

	epoch          uint64
	live           dcqcn.Params // last vector admitted fabric-wide
	committed      dcqcn.Params
	committedEpoch uint64
	haveCommitted  bool

	phase      Phase
	planEpoch  uint64
	target     dcqcn.Params
	targetHash uint64
	prev       dcqcn.Params // restore vector for aborts
	planStart  eventsim.Time
	planSpan   uint64
	phaseSpan  uint64
	recovering bool

	settleLeft int

	await      []int
	acked      []bool
	ackWave    int
	deadlineEv eventsim.EventID
	haveDL     bool

	// ACK fault injection (chaos.DispatchFault).
	ackDrops   []int
	ackDelays  []eventsim.Time
	phaseHooks map[string][]func()

	// Counters mirrored into Status.
	Plans, Commits, Aborts int
	lastReject             string
	walReplayed            int
}

// New builds a pipeline over fab, recovering state from cfg.WAL if it
// holds records. apply pushes a vector to the network devices behind
// the given fabric indices. Call Resume once afterwards with the
// network's live vector to finish recovery (it may dispatch).
func New(cfg Config, eng *eventsim.Engine, fab *Fabric, apply func(devs []int, p dcqcn.Params), reg *telemetry.Registry) *Pipeline {
	if reg == nil {
		reg = telemetry.Default()
	}
	wal := cfg.WAL
	if wal == nil {
		wal = &MemWAL{}
	}
	p := &Pipeline{
		cfg:       cfg,
		eng:       eng,
		fab:       fab,
		guard:     NewGuard(GuardConfig{}),
		wal:       wal,
		apply:     apply,
		status:    telemetry.NewStatusCell[Status](reg, "dispatch"),
		tm:        telemetry.NewDispatchMetrics(reg),
		acked:     make([]bool, len(fab.Devices)),
		ackDrops:  make([]int, len(fab.Devices)),
		ackDelays: make([]eventsim.Time, len(fab.Devices)),
	}
	return p
}

// Fabric returns the rollout target set.
func (p *Pipeline) Fabric() *Fabric { return p.fab }

// Guard returns the admission guard (for tests and status probes).
func (p *Pipeline) Guard() *Guard { return p.guard }

// Epoch returns the last granted epoch number.
func (p *Pipeline) Epoch() uint64 { return p.epoch }

// CommittedEpoch returns the epoch of the last fabric-wide commit.
func (p *Pipeline) CommittedEpoch() uint64 { return p.committedEpoch }

// Live returns the last vector admitted fabric-wide: the committed one, or
// an exploration step dispatched since.
func (p *Pipeline) Live() dcqcn.Params { return p.live }

// Phase returns the current plan phase.
func (p *Pipeline) Phase() Phase { return p.phase }

// InFlight reports whether a rollout plan is active.
func (p *Pipeline) InFlight() bool { return p.phase != PhaseIdle }

// WALReplayed reports how many journal records Resume folded.
func (p *Pipeline) WALReplayed() int { return p.walReplayed }

// Resume replays the WAL and reconciles. A clean log just seeds the
// live/committed vectors from initial. A log with an orphaned in-flight
// rollout — the controller died between phases — aborts the orphan and
// drives an ACK-confirmed restore of the last committed vector to every
// device, so a fabric left half-updated by the crash converges to
// exactly one epoch.
func (p *Pipeline) Resume(initial dcqcn.Params, now eventsim.Time) error {
	rec, err := Recover(p.wal)
	if err != nil {
		return err
	}
	p.tm.WALReplays.Inc()
	p.tm.WALReplayedRec.Add(int64(rec.Replayed))
	p.walReplayed = rec.Replayed
	p.epoch = rec.Epoch
	if rec.Committed != nil {
		p.committed = *rec.Committed
		p.committedEpoch = rec.CommittedEpoch
		p.haveCommitted = true
	} else {
		p.committed = initial
		p.haveCommitted = false
	}
	p.live = p.committed
	if rec.InFlight == nil {
		p.publish()
		return nil
	}
	// Orphaned rollout: the crash caught epoch rec.InFlight.Epoch
	// somewhere between intent and commit. Abort it in the journal,
	// then re-impose the last committed vector on the whole fabric
	// under a fresh epoch, confirmed by every device's ACK.
	if err := p.append(Record{T: int64(now), Kind: KindAbort, Epoch: rec.InFlight.Epoch, Phase: rec.InFlightPhase, Reason: "recovery"}); err != nil {
		return err
	}
	p.Trace.Note(0, "dispatch_recovery epoch=%d phase=%s: aborting orphaned rollout", rec.InFlight.Epoch, rec.InFlightPhase)
	p.recovering = true
	p.planEpoch, _ = p.grantEpoch(now)
	p.target = p.committed
	p.targetHash = VectorHash(&p.target)
	p.prev = p.committed
	p.planStart = now
	p.planSpan = p.Trace.SpanStart("dispatch_recovery", 0)
	p.enterPhase(PhasePromote, now)
	p.startWave(p.allDevices(), now)
	return nil
}

// SubmitExplore guards and applies an exploration dispatch — an SA step
// inside a session. Admitted vectors go fabric-wide immediately under a
// fresh epoch (exploration is transient by design; the canary machinery
// protects only the session-settling dispatch). Returns false with the
// reason when the guard refused, and false with RejectNone when the WAL
// would not journal the epoch.
func (p *Pipeline) SubmitExplore(cand dcqcn.Params, now eventsim.Time) (bool, RejectReason) {
	if p.phase != PhaseIdle {
		p.reject(RejectInFlight, -1)
		return false, RejectInFlight
	}
	if r, spec := p.guard.Admit(&cand, &p.live, now); r != RejectNone {
		p.reject(r, spec)
		return false, r
	}
	p.tm.Admitted.Inc()
	epoch, err := p.grantEpoch(now)
	if err != nil {
		// As in SubmitFinal: an epoch the journal refused must not reach
		// a device, or a restarted controller could issue it again.
		p.lastReject = "wal_error"
		p.publish()
		return false, RejectNone
	}
	p.applyTo(p.allDevices(), epoch, cand)
	p.live = cand
	p.publish()
	return true, RejectNone
}

// SubmitFinal guards a session-settling dispatch and starts its canary
// rollout plan: apply to the canary prefix, hold SettleIntervals health
// ticks, then promote fabric-wide or abort-and-restore. Nothing reads
// baselineUtil; it stays only because the benchmark module passes it.
func (p *Pipeline) SubmitFinal(cand dcqcn.Params, baselineUtil float64, now eventsim.Time) (bool, RejectReason) {
	if p.phase != PhaseIdle {
		p.reject(RejectInFlight, -1)
		return false, RejectInFlight
	}
	if r, spec := p.guard.Admit(&cand, &p.live, now); r != RejectNone {
		p.reject(r, spec)
		return false, r
	}
	p.tm.Admitted.Inc()
	p.Plans++
	p.tm.Plans.Inc()
	p.planEpoch = p.grantEpochQuiet()
	p.target = cand
	p.targetHash = VectorHash(&cand)
	p.prev = p.live
	p.planStart = now
	p.recovering = false
	if err := p.append(Record{T: int64(now), Kind: KindIntent, Epoch: p.planEpoch, Params: &p.target, Hash: p.targetHash, Canary: p.canarySize()}); err != nil {
		// A journal that cannot accept the intent must veto the rollout:
		// dispatching unjournaled epochs would fork state on a crash.
		p.Plans--
		p.lastReject = "wal_error"
		return false, RejectNone
	}
	p.planSpan = p.Trace.SpanStart("dispatch_plan", 0)
	p.Trace.Note(0, "dispatch_plan epoch=%d canary=%d hash=%016x", p.planEpoch, p.canarySize(), p.targetHash)
	p.enterPhase(PhaseCanary, now)
	p.startWave(p.canaryDevices(), now)
	return true, RejectNone
}

// Restore force-applies vec fabric-wide under a fresh epoch and records
// it as committed — the rollback path (core.checkRollback) re-imposing
// the last-known-good vector. An active plan is aborted first. Restore
// is a safety action, so it dispatches even when the WAL refuses its
// records.
func (p *Pipeline) Restore(vec dcqcn.Params, now eventsim.Time) {
	if p.phase != PhaseIdle {
		p.abort("rollback", now)
	}
	epoch, _ := p.grantEpoch(now)
	p.applyTo(p.allDevices(), epoch, vec)
	p.live = vec
	p.committed = vec
	p.committedEpoch = epoch
	p.haveCommitted = true
	p.append(Record{T: int64(now), Kind: KindCommit, Epoch: epoch, Params: &vec, Hash: VectorHash(&vec), Reason: "restore"})
	p.publish()
}

// Tick advances the settle window with this interval's health signals.
// Call it once per monitor interval on live (non-frozen, non-idle)
// ticks only: a frozen fabric's readings are exactly the kind of
// evidence a canary must not be judged on.
func (p *Pipeline) Tick(h Health, now eventsim.Time) {
	if p.phase != PhaseSettle {
		return
	}
	if h.PauseFrac > maxPauseFrac {
		p.abortRestore("health_pfc", now)
		return
	}
	p.settleLeft--
	if p.settleLeft > 0 {
		p.publish()
		return
	}
	// Canary survived the settle window: promote fabric-wide.
	p.tm.SettleMs.Observe(float64(now-p.planStart) / 1e6)
	p.enterPhase(PhasePromote, now)
	p.startWave(p.allDevices(), now)
}

// FaultAcks arms ACK fault injection on one device: drop its next
// `drop` ACKs and delay the rest by `delay` (chaos.DispatchFault).
func (p *Pipeline) FaultAcks(device, drop int, delay eventsim.Time) {
	if device < 0 || device >= len(p.fab.Devices) {
		return
	}
	p.ackDrops[device] += drop
	p.ackDelays[device] = delay
}

// OnPhaseEnter registers fn to run when the pipeline enters the named
// phase ("canary", "settle", "promote", "idle") — the chaos hook that
// kills a controller at a named phase.
func (p *Pipeline) OnPhaseEnter(phase string, fn func()) {
	if p.phaseHooks == nil {
		p.phaseHooks = make(map[string][]func())
	}
	p.phaseHooks[phase] = append(p.phaseHooks[phase], fn)
}

// --- internals ---

func (p *Pipeline) canarySize() int { return p.cfg.canary(len(p.fab.Devices)) }

func (p *Pipeline) canaryDevices() []int {
	n := p.canarySize()
	devs := make([]int, n)
	for i := range devs {
		devs[i] = i
	}
	return devs
}

func (p *Pipeline) allDevices() []int {
	devs := make([]int, len(p.fab.Devices))
	for i := range devs {
		devs[i] = i
	}
	return devs
}

// grantEpoch issues the next epoch number and journals the grant, so a
// recovered controller never reuses a number some device has seen. The
// error is the journal's: only the safety actions (Restore, abort, the
// recovery restore) dispatch an epoch it refused.
func (p *Pipeline) grantEpoch(now eventsim.Time) (uint64, error) {
	e := p.grantEpochQuiet()
	return e, p.append(Record{T: int64(now), Kind: KindEpoch, Epoch: e})
}

// grantEpochQuiet issues the next epoch without its own journal record,
// for grants that are journaled as part of a larger record (intents).
func (p *Pipeline) grantEpochQuiet() uint64 {
	p.epoch++
	p.tm.Epochs.Inc()
	return p.epoch
}

func (p *Pipeline) append(r Record) error {
	err := p.wal.Append(r)
	if err == nil {
		p.tm.WALRecords.Inc()
	}
	return err
}

func (p *Pipeline) reject(r RejectReason, spec int) {
	p.tm.Rejects.Inc()
	p.lastReject = p.guard.Explain(r, spec)
	p.Trace.Note(0, "dispatch_reject %s", p.lastReject)
	p.publish()
}

// applyTo offers (epoch, vec) to each listed device and pushes the
// vector to the network for those that accepted it as fresh.
func (p *Pipeline) applyTo(devs []int, epoch uint64, vec dcqcn.Params) []Ack {
	acks := make([]Ack, 0, len(devs))
	pushed := make([]int, 0, len(devs))
	for _, i := range devs {
		ack, fresh := p.fab.Devices[i].Apply(epoch, vec)
		ack.Device = i
		acks = append(acks, ack)
		if fresh {
			pushed = append(pushed, i)
		}
	}
	if len(pushed) > 0 && p.apply != nil {
		p.apply(pushed, vec)
	}
	return acks
}

// startWave applies the plan target to devs and schedules their ACK
// deliveries plus the wave deadline. Drops and delays installed by
// FaultAcks apply here.
func (p *Pipeline) startWave(devs []int, now eventsim.Time) {
	p.await = devs
	for i := range p.acked {
		p.acked[i] = false
	}
	p.ackWave = 0
	p.sendWave(devs, now)
}

func (p *Pipeline) sendWave(devs []int, now eventsim.Time) {
	epoch := p.planEpoch
	acks := p.applyTo(devs, epoch, p.target)
	for _, ack := range acks {
		i := ack.Device
		if p.ackDrops[i] > 0 {
			p.ackDrops[i]--
			p.Trace.Note(0, "dispatch_ack_drop device=%d epoch=%d", i, epoch)
			continue
		}
		a := ack
		p.eng.Schedule(now+ackDelay+p.ackDelays[i], func() {
			p.onAck(epoch, a)
		})
	}
	p.armDeadline(now)
}

func (p *Pipeline) armDeadline(now eventsim.Time) {
	p.cancelDeadline()
	epoch := p.planEpoch
	wave := p.ackWave
	p.deadlineEv = p.eng.Schedule(now+ackDeadline, func() {
		p.onDeadline(epoch, wave)
	})
	p.haveDL = true
}

func (p *Pipeline) cancelDeadline() {
	if p.haveDL {
		p.eng.Cancel(p.deadlineEv)
		p.haveDL = false
	}
}

func (p *Pipeline) onAck(epoch uint64, a Ack) {
	if p.phase != PhaseCanary && p.phase != PhasePromote {
		return
	}
	if epoch != p.planEpoch || a.Epoch != p.planEpoch || a.Hash != p.targetHash {
		return
	}
	if !p.acked[a.Device] {
		p.acked[a.Device] = true
		p.tm.Acks.Inc()
	}
	for _, i := range p.await {
		if !p.acked[i] {
			return
		}
	}
	p.cancelDeadline()
	now := p.eng.Now()
	switch p.phase {
	case PhaseCanary:
		p.settleLeft = p.cfg.settleIntervals()
		p.enterPhase(PhaseSettle, now)
		p.publish()
	case PhasePromote:
		p.commit(now)
	}
}

func (p *Pipeline) onDeadline(epoch uint64, wave int) {
	if (p.phase != PhaseCanary && p.phase != PhasePromote) || epoch != p.planEpoch || wave != p.ackWave {
		return
	}
	p.haveDL = false
	if p.ackWave >= ackRetries {
		p.abortRestore("ack_timeout", p.eng.Now())
		return
	}
	p.ackWave++
	p.tm.AckRetries.Inc()
	missing := make([]int, 0, len(p.await))
	for _, i := range p.await {
		if !p.acked[i] {
			missing = append(missing, i)
		}
	}
	p.Trace.Note(0, "dispatch_ack_retry wave=%d epoch=%d missing=%d", p.ackWave, p.planEpoch, len(missing))
	now := p.eng.Now()
	p.sendWave(missing, now)
}

func (p *Pipeline) enterPhase(ph Phase, now eventsim.Time) {
	p.Trace.SpanEnd(p.phaseSpan)
	p.phaseSpan = 0
	if ph != PhaseIdle {
		p.phaseSpan = p.Trace.SpanStart("dispatch_"+ph.String(), p.planSpan)
	}
	p.phase = ph
	p.tm.Phase.Set(float64(ph))
	if ph != PhaseIdle {
		p.append(Record{T: int64(now), Kind: KindPhase, Epoch: p.planEpoch, Phase: ph.String()})
	}
	p.publish()
	for _, fn := range p.phaseHooks[ph.String()] {
		fn()
	}
}

func (p *Pipeline) commit(now eventsim.Time) {
	reason := ""
	if p.recovering {
		reason = "recovery_restore"
	}
	p.append(Record{T: int64(now), Kind: KindCommit, Epoch: p.planEpoch, Params: &p.target, Hash: p.targetHash, Reason: reason})
	p.committed = p.target
	p.committedEpoch = p.planEpoch
	p.haveCommitted = true
	p.live = p.target
	p.Commits++
	p.tm.Commits.Inc()
	p.Trace.Note(0, "dispatch_commit epoch=%d hash=%016x%s", p.planEpoch, p.targetHash, commitSuffix(reason))
	p.endPlan(now)
}

func commitSuffix(reason string) string {
	if reason == "" {
		return ""
	}
	return " reason=" + reason
}

// abortRestore aborts the active plan and re-imposes the pre-plan
// vector on every device the plan touched.
func (p *Pipeline) abortRestore(reason string, now eventsim.Time) {
	restored := p.prev
	p.abort(reason, now)
	if p.OnAbort != nil {
		p.OnAbort(restored, reason)
	}
}

// abort journals the abort and rolls the touched devices back to the
// pre-plan vector under a fresh epoch. It does not fire OnAbort (the
// Restore path aborts without wanting rollback feedback loops). Like
// Restore it is a safety action: it dispatches the restore even when
// the WAL refuses its records.
func (p *Pipeline) abort(reason string, now eventsim.Time) {
	p.append(Record{T: int64(now), Kind: KindAbort, Epoch: p.planEpoch, Phase: p.phase.String(), Reason: reason})
	p.Aborts++
	p.tm.PlanAborts.Inc()
	p.Trace.Note(0, "dispatch_abort epoch=%d phase=%s reason=%s", p.planEpoch, p.phase, reason)
	// Devices that accepted the plan epoch are running the aborted
	// vector; re-impose the pre-plan one under a fresh epoch (fresher
	// than anything dispatched, so every touched device accepts it).
	touched := make([]int, 0, len(p.fab.Devices))
	for i, d := range p.fab.Devices {
		if d.Epoch == p.planEpoch {
			touched = append(touched, i)
		}
	}
	restoreEpoch, _ := p.grantEpoch(now)
	if len(touched) > 0 {
		p.applyTo(touched, restoreEpoch, p.prev)
	}
	p.endPlan(now)
}

func (p *Pipeline) endPlan(now eventsim.Time) {
	p.cancelDeadline()
	p.recovering = false
	p.await = nil
	p.enterPhase(PhaseIdle, now)
	p.Trace.SpanEnd(p.planSpan)
	p.planSpan = 0
}

func (p *Pipeline) publish() {
	p.status.Set(Status{
		Phase:          p.phase.String(),
		Epoch:          p.epoch,
		CommittedEpoch: p.committedEpoch,
		Plans:          p.Plans,
		Commits:        p.Commits,
		Aborts:         p.Aborts,
		Admitted:       p.guard.Admitted,
		Rejects:        p.guard.Rejects(),
		LastReject:     p.lastReject,
		SettleLeft:     p.settleLeft,
		AckWave:        p.ackWave,
		WALReplayed:    p.walReplayed,
	})
}
