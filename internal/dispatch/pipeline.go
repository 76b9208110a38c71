package dispatch

import (
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes a Pipeline.
type Config struct {
	// Guard bounds what admission lets through. The spec bounds and ECN
	// ordering are always enforced; the zero value adds no step or rate
	// limit.
	Guard GuardConfig
	// WAL is the dispatch journal; nil journals nothing. Hand the same
	// WAL and Fabric to a restarted controller: it resumes on the last
	// vector any device was sent, numbering epochs above every one it
	// journaled or a device holds.
	WAL WAL
	// Fabric is the dispatch target set; nil means the owner builds one.
	// Hand the same Fabric to a restarted controller: device epochs are
	// switch state and survive the controller.
	Fabric *Fabric
}

// Health is what Tick takes. Nothing reads it; it stays only because the
// benchmark module passes it (ROADMAP 2(f)).
type Health struct {
	Utility float64
}

// Status is the /debug/status snapshot of the pipeline, published to
// the telemetry registry on every dispatch and refusal.
type Status struct {
	Epoch       uint64 `json:"epoch"`
	Commits     int    `json:"commits"`
	Admitted    int    `json:"admitted"`
	Rejects     int    `json:"rejects"`
	LastReject  string `json:"last_reject,omitempty"`
	WALReplayed int    `json:"wal_replayed"`
}

// Pipeline is the controller-side dispatch path and the decision step's
// loop.Applier in both transports. Every vector takes the same three
// steps: the guard admits it against the live vector, one KindCommit
// record journals it under the next epoch, and that epoch is applied to
// every device. It is not safe for concurrent use: the simulated loop
// calls it on its event loop, and the daemon (ctrlrpc.Server) under
// Server.mu.
type Pipeline struct {
	fab   *Fabric
	guard *Guard
	wal   WAL
	apply func(devs []int, p dcqcn.Params)
	// fresh collects the devices that took the current epoch as fresh.
	fresh []int
	// cand is the vector being guarded and journaled. It lives here, not
	// on Submit's stack, because its address reaches the guard and the
	// WAL record, and a local would escape to the heap on every dispatch.
	cand dcqcn.Params

	status *telemetry.StatusCell[Status]
	tm     *telemetry.DispatchMetrics

	// Trace, when non-nil, receives reject notes.
	Trace *trace.Recorder

	epoch uint64
	live  dcqcn.Params // last vector applied fabric-wide

	// Commits counts the vectors journaled and applied fabric-wide,
	// restores included.
	Commits     int
	lastReject  string
	walReplayed int
}

// New builds a pipeline over fab that journals to cfg.WAL. apply pushes
// a vector to the network devices behind the given fabric indices; it
// must not keep the slice, and may be nil when fab has no devices (the
// daemon's pipeline, whose epochs reach agents in tick answers). Call
// Resume once afterwards to recover the journal. The engine argument is
// unused; it stays only because the benchmark module passes it
// (ROADMAP 2(f)).
func New(cfg Config, _ *eventsim.Engine, fab *Fabric, apply func(devs []int, p dcqcn.Params), reg *telemetry.Registry) *Pipeline {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &Pipeline{
		fab:    fab,
		guard:  NewGuard(cfg.Guard),
		wal:    cfg.WAL,
		apply:  apply,
		fresh:  make([]int, 0, len(fab.Devices)),
		status: telemetry.NewStatusCell[Status](reg, "dispatch"),
		tm:     telemetry.NewDispatchMetrics(reg),
	}
}

// Fabric returns the dispatch target set.
func (p *Pipeline) Fabric() *Fabric { return p.fab }

// Guard returns the admission guard (for tests and status probes).
func (p *Pipeline) Guard() *Guard { return p.guard }

// Epoch returns the last granted epoch number.
func (p *Pipeline) Epoch() uint64 { return p.epoch }

// Live returns the last vector applied fabric-wide.
func (p *Pipeline) Live() dcqcn.Params { return p.live }

// InFlight reports false: a dispatch is whole when Submit returns. It
// stays only because the benchmark module calls it (ROADMAP 2(f)).
func (p *Pipeline) InFlight() bool { return false }

// WALReplayed reports how many journal records Resume read.
func (p *Pipeline) WALReplayed() int { return p.walReplayed }

// LastReject says why the last refused vector did not go out.
func (p *Pipeline) LastReject() string { return p.lastReject }

// Resume replays the journal and reads the fabric. Epoch numbering
// continues above every epoch either holds. The live vector is the last
// one the journal holds, which is the last one any device was sent,
// unless a device runs a newer epoch than the journal holds (a restore
// the journal refused still went out): then it is what that device
// runs. It is initial when neither holds any. Resume dispatches nothing.
// Its time argument is unused; it stays only because the benchmark
// module passes it (ROADMAP 2(f)).
func (p *Pipeline) Resume(initial dcqcn.Params, _ eventsim.Time) error {
	rec, err := Recover(p.wal)
	if err != nil {
		return err
	}
	p.tm.WALReplays.Inc()
	p.tm.WALReplayedRec.Add(int64(rec.Replayed))
	p.walReplayed = rec.Replayed
	p.epoch = rec.Epoch
	p.live = initial
	if rec.Committed != nil {
		p.live = *rec.Committed
	}
	for _, d := range p.fab.Devices {
		if d.Epoch > p.epoch {
			p.epoch, p.live = d.Epoch, d.Params
		}
	}
	p.publish()
	return nil
}

// Submit guards cand against the live vector, journals it, and applies
// it to every device under a fresh epoch. It returns false with the
// reason when the guard refused, and false with RejectNone when the
// journal refused the record: an epoch the journal does not hold must
// reach no device, or a restarted controller could issue it again.
func (p *Pipeline) Submit(cand dcqcn.Params, now eventsim.Time) (bool, RejectReason) {
	p.cand = cand
	if r, spec := p.guard.Admit(&p.cand, &p.live, now); r != RejectNone {
		p.tm.Rejects.Inc()
		p.refuse(p.guard.Explain(r, spec))
		return false, r
	}
	p.tm.Admitted.Inc()
	if err := p.journal("", now); err != nil {
		p.refuse("wal_error: " + err.Error())
		return false, RejectNone
	}
	p.applyAll()
	return true, RejectNone
}

// Apply is Submit for the decision step: it reports whether cand went
// out (loop.Applier).
func (p *Pipeline) Apply(cand dcqcn.Params, now eventsim.Time) bool {
	ok, _ := p.Submit(cand, now)
	return ok
}

// refuse records and traces why a vector did not go out.
func (p *Pipeline) refuse(why string) {
	p.lastReject = why
	p.Trace.Note(0, "dispatch_reject %s", why)
	p.publish()
}

// SubmitFinal is Submit; baselineUtil is unused. It stays only because
// the benchmark module calls it (ROADMAP 2(f)).
func (p *Pipeline) SubmitFinal(cand dcqcn.Params, baselineUtil float64, now eventsim.Time) (bool, RejectReason) {
	return p.Submit(cand, now)
}

// Restore journals vec with Reason "restore" and applies it to every
// device under a fresh epoch, without the guard: it is the rollback path
// (core.checkRollback) re-imposing the last-known-good vector. A safety
// action, it dispatches even when the journal refuses the record.
func (p *Pipeline) Restore(vec dcqcn.Params, now eventsim.Time) {
	p.cand = vec
	_ = p.journal("restore", now) // dispatched whatever the journal says
	p.applyAll()
}

// Tick does nothing. It stays only because the benchmark module calls it
// (ROADMAP 2(f)).
func (p *Pipeline) Tick(Health, eventsim.Time) {}

// journal appends the candidate's commit record under the next epoch.
func (p *Pipeline) journal(reason string, now eventsim.Time) error {
	if p.wal == nil {
		return nil
	}
	err := p.wal.Append(Record{T: int64(now), Kind: KindCommit, Epoch: p.epoch + 1, Params: &p.cand, Hash: VectorHash(&p.cand), Reason: reason})
	if err == nil {
		p.tm.WALRecords.Inc()
	}
	return err
}

// applyAll offers the candidate to every device under the next epoch,
// pushes it to the network for those that took it as fresh, and makes
// it live.
func (p *Pipeline) applyAll() {
	p.epoch++
	p.tm.Epochs.Inc()
	p.fresh = p.fresh[:0]
	for i, d := range p.fab.Devices {
		if d.Apply(p.epoch, p.cand) {
			p.fresh = append(p.fresh, i)
		}
	}
	if len(p.fresh) > 0 && p.apply != nil {
		p.apply(p.fresh, p.cand)
	}
	p.live = p.cand
	p.Commits++
	p.publish()
}

func (p *Pipeline) publish() {
	p.status.Set(Status{
		Epoch:       p.epoch,
		Commits:     p.Commits,
		Admitted:    p.guard.Admitted,
		Rejects:     p.guard.Rejects(),
		LastReject:  p.lastReject,
		WALReplayed: p.walReplayed,
	})
}
