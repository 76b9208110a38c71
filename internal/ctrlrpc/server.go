package ctrlrpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// ServerConfig parameterizes the centralized controller.
type ServerConfig struct {
	// Theta is the KL trigger threshold.
	Theta float64
	// Weights and SA configure the tuner.
	Weights tuner.Weights
	SA      tuner.SAConfig
	// Tuner selects the search strategy by name (see
	// internal/tuner); empty means "sa", preserving the historical
	// behaviour exactly. Bandit parameterizes that strategy when
	// selected; the zero value means its defaults. A per-switch strategy
	// (tuner.PerSwitch) is refused: ParamsMsg carries one fabric-wide
	// vector, so its per-switch proposals could not reach the switches.
	Tuner  string
	Bandit tuner.BanditConfig
	// Base is the initial parameter setting.
	Base dcqcn.Params
	// Seed fixes the tuner's randomness.
	Seed int64
	// Logger receives connection errors; nil silences them.
	Logger *log.Logger
	// Telemetry selects the metrics registry the server instruments
	// itself against; nil means telemetry.Default().
	Telemetry *telemetry.Registry
	// IOTimeout, when > 0, bounds each frame read and each response
	// write on agent connections, so one stalled agent (half-open TCP,
	// wedged peer) cannot pin a handler goroutine forever. 0 disables
	// the deadline, matching the previous behaviour.
	IOTimeout time.Duration
	// Guard bounds what tuner output is allowed onto the wire: Spec
	// bounds and Kmin<Kmax are always enforced; MaxRelStep/MinGap are
	// opt-in. A rejected vector keeps the current one and is counted.
	Guard dispatch.GuardConfig
	// WAL, when non-nil, journals every dispatched epoch so a restarted
	// controller resumes from the last committed vector instead of
	// re-announcing the base setting under already-used epochs. An epoch
	// the WAL cannot journal is not dispatched.
	WAL dispatch.WAL
	// Flight, when non-nil, attaches the flight recorder: each tick the
	// server samples its aggregated health signals into the recorder's
	// series and records dispatches and rejects in an event log it sets
	// as the recorder's Log, whose tail the artifact carries. Both use
	// the tick index as their time axis, since the wall-clock daemon has
	// no virtual clock. The caller owns writing the artifact out
	// (paraleon-controller's -blackbox flag does it on shutdown).
	Flight *series.Recorder
}

// DefaultServerConfig mirrors Table III.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Theta:   0.01,
		Weights: tuner.DefaultWeights(),
		SA:      tuner.DefaultSAConfig(),
		Base:    dcqcn.DefaultParams(),
		Seed:    1,
	}
}

// ServerStats is Table IV's raw material.
type ServerStats struct {
	BytesIn, BytesOut int64
	Reports           int64
	Ticks             int64
	// Triggers counts tuning sessions started.
	Triggers   int64
	Dispatches int64
	// Rejects counts tuner outputs that did not go out: refused by the
	// admission guard, or vetoed by a WAL that could not journal them.
	Rejects int64
	// ApplyAcks counts agent apply acknowledgements.
	ApplyAcks int64
	// Processing is wall-clock time spent in KL computation and SA
	// tuning — the controller CPU overhead. Journal is not in it.
	Processing time.Duration
	// Journal is wall-clock time spent appending dispatched epochs to the
	// WAL, a FileWAL's fsync included.
	Journal time.Duration
}

// Server is the centralized controller: it accepts agent connections,
// collects per-interval reports, and answers each tick with parameters
// decided by the aggregation, KL trigger and decision step the simulated
// loop runs too (internal/loop).
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu      sync.Mutex
	pending []Report
	locals  []loop.Report // tick's per-agent FSDs, reused across ticks
	// ctl and step are the aggregation and decision the simulated loop
	// runs too; the server feeds them pushed reports on its wall clock.
	ctl     *loop.Controller
	step    *loop.Step
	tuner   tuner.Tuner
	current dcqcn.Params
	// proposal receives the tuner's output each tick. It lives here, not
	// on tick's stack, because its address reaches the guard and the WAL
	// record, and a local would escape to the heap on every tick.
	proposal dcqcn.Params
	guard    *dispatch.Guard
	epoch    uint64
	// acks maps an epoch to the set of agents that acknowledged it with
	// a matching vector hash. Only the current epoch's set is kept live.
	acks  map[uint32]bool
	stats ServerStats

	wg     sync.WaitGroup
	conns  map[net.Conn]bool
	closed bool

	status *telemetry.StatusCell[controllerStatus]
	tm     *telemetry.RPCMetrics
	dm     *telemetry.DispatchMetrics
	ttm    *telemetry.TunerMetrics

	// Flight-recorder series handles and event log (nil unless
	// cfg.Flight is set).
	flight                    *series.Recorder
	trace                     *trace.Recorder
	fOTP, fORTT, fOPFC, fUtil *series.Series
	fKL, fBest, fEpoch        *series.Series
}

// controllerStatus is the server's /debug/status section.
type controllerStatus struct {
	Params      dcqcn.Params `json:"params"`
	Ticks       int64        `json:"ticks"`
	Reports     int64        `json:"reports"`
	Triggers    int64        `json:"triggers"`
	Dispatches  int64        `json:"dispatches"`
	Rejects     int64        `json:"rejects"`
	Epoch       uint64       `json:"epoch"`
	EpochAcks   int          `json:"epoch_acks"`
	TunerActive bool         `json:"tuner_active"`
	BestUtility float64      `json:"best_utility"`
}

// Serve starts a controller on addr (e.g. "127.0.0.1:0") and returns once
// it is listening.
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	tun, err := tuner.New(cfg.Tuner, tuner.Config{
		Weights: cfg.Weights,
		Base:    cfg.Base,
		SA:      cfg.SA,
		Bandit:  cfg.Bandit,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if _, ok := tun.(tuner.PerSwitch); ok {
		return nil, fmt.Errorf("ctrlrpc: strategy %q tunes each switch apart, which the daemon cannot dispatch", tun.Name())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, ln: ln, tuner: tun, current: cfg.Base,
		guard: dispatch.NewGuard(cfg.Guard),
		acks:  map[uint32]bool{},
		conns: map[net.Conn]bool{},
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	s.status = telemetry.NewStatusCell[controllerStatus](reg, "controller")
	s.tm = telemetry.NewRPCMetrics(reg)
	s.dm = telemetry.NewDispatchMetrics(reg)
	s.ttm = telemetry.NewTunerMetrics(reg)
	s.tuner.SetMetrics(s.ttm)
	s.ctl = loop.NewController(cfg.Theta)
	s.ctl.TM = telemetry.NewMonitorMetrics(reg)
	s.step = loop.NewStep(s.ctl, tun, wire{s}, wallClock, s.ttm)
	// ServerStats.Triggers counts sessions started, not KL crossings.
	s.step.OnSession = func(loop.FSD) { s.stats.Triggers++ }
	if cfg.Flight != nil {
		s.flight = cfg.Flight
		set := s.flight.Set
		s.fOTP = set.Series("otp", "frac")
		s.fORTT = set.Series("ortt", "frac")
		s.fOPFC = set.Series("opfc", "frac")
		s.fUtil = set.Series("utility", "score")
		s.fKL = set.Series("monitor_kl", "nats")
		s.fBest = set.Series("tuner_best_utility", "score")
		s.fEpoch = set.Series("dispatch_epoch", "")
		m := s.flight.Meta()
		m.Tuner = s.tuner.Name()
		s.flight.SetMeta(m)
		// Events are stamped inside tick, which holds s.mu.
		s.trace = trace.New(func() int64 { return s.stats.Ticks }, nil, true)
		s.flight.Log = s.trace
	}
	if cfg.WAL != nil {
		rec, err := dispatch.Recover(cfg.WAL)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("ctrlrpc: wal replay: %w", err)
		}
		s.epoch = rec.Epoch
		if rec.Committed != nil {
			s.current = *rec.Committed
		}
		s.dm.WALReplays.Inc()
		s.dm.WALReplayedRec.Add(int64(rec.Replayed))
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the controller counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Current returns the parameters the controller currently stands behind.
func (s *Server) Current() dcqcn.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current
}

// Close stops the listener, closes every live connection, and waits for
// the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				s.logf("ctrlrpc: accept: %v", err)
			}
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var rbuf []byte
	for {
		if s.cfg.IOTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
		}
		typ, payload, n, err := readFrame(br, &rbuf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("ctrlrpc: read from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.mu.Lock()
		s.stats.BytesIn += int64(n)
		s.mu.Unlock()
		s.tm.FramesIn.Inc()
		s.tm.BytesIn.Add(int64(n))

		var out int
		if s.cfg.IOTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
		}
		switch typ {
		case TypeReport:
			var r Report
			if err := Decode(payload, &r); err != nil {
				s.logf("ctrlrpc: bad report: %v", err)
				return
			}
			s.mu.Lock()
			s.pending = append(s.pending, r)
			s.stats.Reports++
			s.mu.Unlock()
			s.tm.Reports.Inc()
			out, err = appendFrame(bw, TypeAck, nil)
		case TypeTick:
			var t TickMsg
			if err := Decode(payload, &t); err != nil {
				s.logf("ctrlrpc: bad tick: %v", err)
				return
			}
			resp := s.tick(t)
			out, err = appendFrame(bw, TypeParams, &resp)
		case TypeApplyAck:
			var a AckMsg
			if err := Decode(payload, &a); err != nil {
				s.logf("ctrlrpc: bad apply-ack: %v", err)
				return
			}
			s.applyAck(a)
			out, err = appendFrame(bw, TypeAck, nil)
		default:
			s.logf("ctrlrpc: unknown frame type %d", typ)
			return
		}
		// Replies wait in bw while more frames are already read: a batch
		// of reports and the call behind them are answered in one write.
		if err == nil && br.Buffered() == 0 {
			err = bw.Flush()
		}
		if err != nil {
			s.logf("ctrlrpc: write to %v: %v", conn.RemoteAddr(), err)
			return
		}
		s.mu.Lock()
		s.stats.BytesOut += int64(out)
		s.mu.Unlock()
		s.tm.FramesOut.Inc()
		s.tm.BytesOut.Add(int64(out))
	}
}

// tick is the controller's per-interval brain: it sums the pushed
// reports into the interval's runtime sample, closes the interval on the
// shared controller, and lets the shared step decide on live intervals.
func (s *Server) tick(t TickMsg) ParamsMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	start, journal := time.Now(), s.stats.Journal
	defer func() { s.stats.Processing += time.Since(start) - (s.stats.Journal - journal) }()

	// The whole tick holds s.mu, so no handler appends while reports is
	// read and its backing array can take the next interval's reports.
	reports := s.pending
	s.pending = reports[:0]
	s.stats.Ticks++
	s.tm.Ticks.Inc()
	defer s.publishStatus()

	locals := s.locals[:0]
	var sums loop.RuntimeSums
	for i := range reports {
		locals = append(locals, reports[i].MonitorReport())
		sums.Add(reports[i].RuntimeSums)
	}
	s.locals = locals
	sample := sums.Sample()

	// KL is computed only against traffic an earlier tick absorbed.
	warm := s.ctl.Current.TotalBytes > 0
	epoch, triggers := s.epoch, s.stats.Triggers
	fsd := s.ctl.TickReports(locals)
	// A tick whose aggregate carries no bytes is idle, even with no
	// reports at all: no distribution to compare, no feedback worth
	// feeding the search.
	live := s.ctl.Raw.TotalBytes > 0
	if live {
		s.step.Decide(sample, fsd)
	}
	if s.flight != nil {
		tk := s.stats.Ticks
		if warm && live {
			s.fKL.Append(tk, s.ctl.LastKL)
		}
		s.fOTP.Append(tk, sample.OTP)
		s.fORTT.Append(tk, sample.ORTT)
		s.fOPFC.Append(tk, sample.OPFC)
		s.fUtil.Append(tk, tuner.Utility(sample, s.cfg.Weights))
		// BestUtility is -Inf until a session measures something, and JSON
		// cannot carry non-finite values.
		if best := s.tuner.BestUtility(); !math.IsInf(best, 0) && !math.IsNaN(best) {
			s.fBest.Append(tk, best)
		}
		s.fEpoch.Append(tk, float64(s.epoch))
	}
	return ParamsMsg{
		Epoch: s.epoch, Params: ToWire(s.current),
		Changed: s.epoch != epoch, Triggered: s.stats.Triggers != triggers,
	}
}

// wallClock is the daemon's loop clock.
func wallClock() eventsim.Time { return eventsim.Time(time.Now().UnixNano()) }

// wire is the daemon's apply path: the guard on the wall clock, then the
// WAL, then a fresh epoch the tick answers on the wire. The guard runs
// before the journal, as in Pipeline.SubmitFinal, so an epoch the WAL
// vetoes has already been admitted and opened the guard's MinGap window.
type wire struct{ *Server }

func (w wire) Apply(p dcqcn.Params, _ bool, now eventsim.Time) bool {
	s := w.Server
	s.proposal = p
	if reason, spec := s.guard.Admit(&s.proposal, &s.current, now); reason != dispatch.RejectNone {
		// A vector the guard refuses never reaches the wire: the fabric
		// keeps running s.current under the unchanged epoch.
		s.ttm.GuardRejects.Inc()
		s.reject("guard_reject", s.guard.Explain(reason, spec))
		return false
	}
	if s.cfg.WAL != nil {
		// Journal first, and let a journal that cannot take the epoch veto
		// it, as Pipeline.SubmitFinal does: a restarted daemon recovers
		// only what the WAL holds, and would re-issue an epoch agents
		// already run.
		rec := dispatch.Record{
			T: int64(now), Kind: dispatch.KindCommit,
			Epoch: s.epoch + 1, Params: &s.proposal, Hash: dispatch.VectorHash(&s.proposal),
		}
		start := time.Now()
		err := s.cfg.WAL.Append(rec)
		s.stats.Journal += time.Since(start)
		if err != nil {
			s.reject("wal_error", err.Error())
			return false
		}
		s.dm.WALRecords.Inc()
	}
	s.epoch++
	s.current = s.proposal
	clear(s.acks)
	s.stats.Dispatches++
	s.dm.Epochs.Inc()
	s.trace.Dispatch(0, s.current)
	return true
}

// reject counts a proposal that did not go out and says why.
func (s *Server) reject(kind, why string) {
	s.stats.Rejects++
	s.dm.Rejects.Inc()
	s.trace.Note(0, "%s %s", kind, why)
	s.logf("ctrlrpc: dispatch rejected: %s: %s", kind, why)
}

// publishStatus overwrites the /debug/status "controller" section with
// the state tick leaves behind. The caller holds s.mu.
func (s *Server) publishStatus() {
	s.status.Set(controllerStatus{
		Params:      s.current,
		Ticks:       s.stats.Ticks,
		Reports:     s.stats.Reports,
		Triggers:    s.stats.Triggers,
		Dispatches:  s.stats.Dispatches,
		Rejects:     s.stats.Rejects,
		Epoch:       s.epoch,
		EpochAcks:   len(s.acks),
		TunerActive: s.tuner.Active(),
		BestUtility: s.tuner.BestUtility(),
	})
}

// applyAck records an agent's acknowledgement of the current epoch. An
// ACK for a superseded epoch, or one whose vector hash does not match
// the current vector, is counted but not credited toward the quorum —
// the agent will learn the newer vector on its next tick.
func (s *Server) applyAck(a AckMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ApplyAcks++
	s.dm.Acks.Inc()
	if a.Epoch == s.epoch && a.VectorHash == dispatch.VectorHash(&s.current) {
		s.acks[a.AgentID] = true
	}
}

// Epoch returns the epoch of the currently dispatched vector.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// EpochAcks returns how many distinct agents have acknowledged the
// current epoch with a matching vector hash.
func (s *Server) EpochAcks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.acks)
}

// String describes the server.
func (s *Server) String() string {
	return fmt.Sprintf("ctrlrpc.Server(%s)", s.Addr())
}
