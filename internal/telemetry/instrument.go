package telemetry

// Subsystem metric bundles. Each bundle resolves its families from a
// registry exactly once, so the instrumented components hold direct
// handles and never touch the registry's mutex on their update paths.
// Constructors are get-or-create: many components (parallel experiment
// arms, one agent per ToR) can share one registry and accumulate into
// the same families.

// Metric name constants, exported so tests and scrape checks don't
// drift from the instrumentation.
const (
	// VirtualTimeGauge is the simulator's virtual clock in nanoseconds,
	// published by whichever control loop ticked last.
	VirtualTimeGauge = "paraleon_virtual_time_ns"
)

// SketchMetrics covers the data-plane measurement structure: insert /
// read / reset activity and Ostracism evictions, accumulated at
// interval granularity so the per-packet path stays untouched.
type SketchMetrics struct {
	Inserts    *Counter // sketch insert operations (≈ packets recorded)
	Bytes      *Counter // bytes credited to flows
	Evictions  *Counter // Ostracism replacements
	Reads      *Counter // interval-end heavy-part reads
	Resets     *Counter // interval-end resets
	Skipped    *Counter // packets declined by the insert-once rule
	HeavyFlows *Gauge   // heavy-part residents at the last read
}

// NewSketchMetrics resolves the sketch family set from r.
func NewSketchMetrics(r *Registry) *SketchMetrics {
	return &SketchMetrics{
		Inserts:    r.Counter("paraleon_sketch_inserts_total", "Sketch insert operations across all agents."),
		Bytes:      r.Counter("paraleon_sketch_bytes_total", "Bytes inserted into sketches across all agents."),
		Evictions:  r.Counter("paraleon_sketch_evictions_total", "Ostracism evictions from sketch heavy parts."),
		Reads:      r.Counter("paraleon_sketch_reads_total", "Interval-end sketch reads."),
		Resets:     r.Counter("paraleon_sketch_resets_total", "Interval-end sketch resets."),
		Skipped:    r.Counter("paraleon_sketch_skipped_total", "Packets skipped by the TOS insert-once rule."),
		HeavyFlows: r.Gauge("paraleon_sketch_heavy_flows", "Heavy-part residents at the most recent interval read."),
	}
}

// MonitorMetrics covers controller-side aggregation: interval ticks,
// per-interval FSD sizes, KL trigger values and firings, and the
// degradation ledger (quorum freezes, evictions, readmissions).
type MonitorMetrics struct {
	Ticks       *Counter
	Triggers    *Counter
	FrozenTicks *Counter
	Evictions   *Counter
	Readmits    *Counter

	PresentAgents *Gauge
	Degraded      *Gauge // 1 when the last FSD aggregated an incomplete agent set
	ElephantShare *Gauge // ternary-weighted elephant flow share of the current FSD
	LastKL        *Gauge

	KL       *Histogram // per-interval trigger divergence
	FSDFlows *Histogram // per-interval distinct tracked flows
	FSDBytes *Histogram // per-interval aggregated byte mass
}

// NewMonitorMetrics resolves the monitor family set from r.
func NewMonitorMetrics(r *Registry) *MonitorMetrics {
	return &MonitorMetrics{
		Ticks:         r.Counter("paraleon_monitor_ticks_total", "Monitor intervals closed by the controller."),
		Triggers:      r.Counter("paraleon_monitor_triggers_total", "KL trigger firings."),
		FrozenTicks:   r.Counter("paraleon_monitor_frozen_ticks_total", "Intervals held below quorum."),
		Evictions:     r.Counter("paraleon_monitor_evictions_total", "Stale agents evicted from the membership."),
		Readmits:      r.Counter("paraleon_monitor_readmits_total", "Evicted agents readmitted on recovery."),
		PresentAgents: r.Gauge("paraleon_monitor_present_agents", "Agents that reported at the last tick."),
		Degraded:      r.Gauge("paraleon_monitor_degraded", "1 when the current FSD is aggregated from a partial agent set."),
		ElephantShare: r.Gauge("paraleon_monitor_elephant_share", "Ternary-weighted elephant flow share of the current FSD."),
		LastKL:        r.Gauge("paraleon_monitor_last_kl", "Trigger divergence computed at the most recent tick."),
		KL:            r.Histogram("paraleon_monitor_kl", "Per-interval KL trigger divergence.", BucketsKL),
		FSDFlows:      r.Histogram("paraleon_monitor_fsd_flows", "Per-interval distinct flows in the network-wide FSD.", BucketsFlows),
		FSDBytes:      r.Histogram("paraleon_monitor_fsd_bytes", "Per-interval byte mass behind the network-wide FSD.", BucketsBytes),
	}
}

// TunerMetrics covers the pluggable search strategies and the dispatch
// path: proposal / iteration / acceptance counts, session lifecycle,
// best utility, bandit regret, per-agent commits, and
// virtual-time-denominated dispatch latencies. One bundle serves every
// strategy; gauges a strategy does not drive simply stay put.
type TunerMetrics struct {
	Iterations *Counter
	Accepts    *Counter
	Rejects    *Counter
	Sessions   *Counter // sessions run to completion
	Aborts     *Counter
	Dispatches *Counter
	Rollbacks  *Counter
	// Proposals counts vectors the strategy handed out for dispatch;
	// GuardRejects counts proposals the admission guard refused before
	// they touched the fabric; AgentCommits counts per-switch local ECN
	// commits (the multiecn strategy).
	Proposals    *Counter
	GuardRejects *Counter
	AgentCommits *Counter

	Active      *Gauge
	Temperature *Gauge
	BestUtility *Gauge
	// Regret accumulates the bandit strategy's shortfall against the
	// best reward seen so far.
	Regret *Gauge

	// DispatchLatencyMs measures trigger→dispatch in virtual
	// milliseconds for every dispatch of a session; SettleMs measures
	// trigger→session-completion.
	DispatchLatencyMs *Histogram
	SettleMs          *Histogram
}

// NewTunerMetrics resolves the tuner family set from r.
func NewTunerMetrics(r *Registry) *TunerMetrics {
	return &TunerMetrics{
		Iterations:        r.Counter("paraleon_tuner_iterations_total", "SA iterations consumed."),
		Accepts:           r.Counter("paraleon_tuner_accepts_total", "Metropolis acceptances."),
		Rejects:           r.Counter("paraleon_tuner_rejects_total", "Metropolis rejections."),
		Sessions:          r.Counter("paraleon_tuner_sessions_total", "Tuning sessions run to completion."),
		Aborts:            r.Counter("paraleon_tuner_aborts_total", "Tuning sessions aborted."),
		Dispatches:        r.Counter("paraleon_tuner_dispatches_total", "Parameter vectors dispatched to the fabric."),
		Rollbacks:         r.Counter("paraleon_tuner_rollbacks_total", "Reversion dispatches to the last-known-good vector."),
		Proposals:         r.Counter("paraleon_tuner_proposals_total", "Parameter vectors proposed by the search strategy."),
		GuardRejects:      r.Counter("paraleon_tuner_guard_rejects_total", "Proposals refused by the dispatch admission guard."),
		AgentCommits:      r.Counter("paraleon_tuner_agent_commits_total", "Per-switch local ECN commits (multiecn strategy)."),
		Active:            r.Gauge("paraleon_tuner_active", "1 while a tuning session is in progress."),
		Temperature:       r.Gauge("paraleon_tuner_temperature", "Current annealing temperature."),
		BestUtility:       r.Gauge("paraleon_tuner_best_utility", "Best utility found in the current or last session (0-100 scale)."),
		Regret:            r.Gauge("paraleon_tuner_regret", "Cumulative reward shortfall vs best-seen (bandit strategy)."),
		DispatchLatencyMs: r.Histogram("paraleon_tuner_dispatch_latency_ms", "Trigger-to-dispatch latency in virtual milliseconds.", BucketsLatencyMs),
		SettleMs:          r.Histogram("paraleon_tuner_settle_ms", "Trigger-to-session-completion latency in virtual milliseconds.", BucketsLatencyMs),
	}
}

// RPCMetrics covers the TCP control plane: frame and byte flow, report
// and tick traffic, redial attempts and successful reconnects.
type RPCMetrics struct {
	FramesIn   *Counter
	FramesOut  *Counter
	BytesIn    *Counter
	BytesOut   *Counter
	Reports    *Counter
	Ticks      *Counter
	Retries    *Counter // redial attempts (including failed ones)
	Reconnects *Counter // successful redials after a broken call
}

// NewRPCMetrics resolves the ctrlrpc family set from r.
func NewRPCMetrics(r *Registry) *RPCMetrics {
	return &RPCMetrics{
		FramesIn:   r.Counter("paraleon_ctrlrpc_frames_in_total", "Control-plane frames received."),
		FramesOut:  r.Counter("paraleon_ctrlrpc_frames_out_total", "Control-plane frames sent."),
		BytesIn:    r.Counter("paraleon_ctrlrpc_bytes_in_total", "Control-plane bytes received."),
		BytesOut:   r.Counter("paraleon_ctrlrpc_bytes_out_total", "Control-plane bytes sent."),
		Reports:    r.Counter("paraleon_ctrlrpc_reports_total", "Agent interval reports processed."),
		Ticks:      r.Counter("paraleon_ctrlrpc_ticks_total", "Controller interval ticks processed."),
		Retries:    r.Counter("paraleon_ctrlrpc_retries_total", "Redial attempts by reconnecting clients."),
		Reconnects: r.Counter("paraleon_ctrlrpc_reconnects_total", "Successful redials after broken calls."),
	}
}

// ChaosMetrics covers fault injection and the system's response to it.
type ChaosMetrics struct {
	Faults   *Counter
	Recovers *Counter
}

// NewChaosMetrics resolves the chaos family set from r.
func NewChaosMetrics(r *Registry) *ChaosMetrics {
	return &ChaosMetrics{
		Faults:   r.Counter("paraleon_chaos_faults_total", "Injected or detected faults."),
		Recovers: r.Counter("paraleon_chaos_recovers_total", "Recoveries from faults."),
	}
}

// DispatchMetrics covers the safe-dispatch pipeline: guardrail
// admissions/rejections, rollout plan lifecycle (phase, commits,
// aborts), the epoch commit protocol (epochs granted, ACKs, retries),
// canary settle latency, and write-ahead-log activity.
type DispatchMetrics struct {
	Admitted   *Counter // vectors admitted by the guard
	Rejects    *Counter // vectors refused by the guard (any reason)
	Plans      *Counter // canary rollout plans started
	Commits    *Counter // plans promoted and committed fabric-wide
	PlanAborts *Counter // plans aborted (health or ACK exhaustion)
	Epochs     *Counter // epoch numbers granted
	Acks       *Counter // device ACKs accepted toward quorum
	AckRetries *Counter // re-apply waves after an ACK deadline

	Phase *Gauge // current plan phase (0 idle, 1 canary, 2 settle, 3 promote)

	// SettleMs is the canary settle latency: plan start to promote
	// decision, in virtual milliseconds, for plans that promoted.
	SettleMs *Histogram

	WALRecords     *Counter // records appended to the intent log
	WALReplays     *Counter // recovery replays performed
	WALReplayedRec *Counter // records read back during replays
}

// NewDispatchMetrics resolves the dispatch family set from r.
func NewDispatchMetrics(r *Registry) *DispatchMetrics {
	return &DispatchMetrics{
		Admitted:       r.Counter("paraleon_dispatch_admitted_total", "Parameter vectors admitted by the dispatch guard."),
		Rejects:        r.Counter("paraleon_dispatch_rejects_total", "Parameter vectors refused by the dispatch guard."),
		Plans:          r.Counter("paraleon_dispatch_plans_total", "Canary rollout plans started."),
		Commits:        r.Counter("paraleon_dispatch_commits_total", "Rollout plans promoted and committed fabric-wide."),
		PlanAborts:     r.Counter("paraleon_dispatch_plan_aborts_total", "Rollout plans aborted by health signals or ACK exhaustion."),
		Epochs:         r.Counter("paraleon_dispatch_epochs_total", "Dispatch epoch numbers granted."),
		Acks:           r.Counter("paraleon_dispatch_acks_total", "Device ACKs accepted toward phase quorum."),
		AckRetries:     r.Counter("paraleon_dispatch_ack_retries_total", "Re-apply waves sent after an ACK deadline expired."),
		Phase:          r.Gauge("paraleon_dispatch_phase", "Current rollout phase (0 idle, 1 canary, 2 settle, 3 promote)."),
		SettleMs:       r.Histogram("paraleon_dispatch_canary_settle_ms", "Canary settle latency (plan start to promote) in virtual milliseconds.", BucketsLatencyMs),
		WALRecords:     r.Counter("paraleon_dispatch_wal_records_total", "Records appended to the write-ahead intent log."),
		WALReplays:     r.Counter("paraleon_dispatch_wal_replays_total", "Write-ahead-log recovery replays performed."),
		WALReplayedRec: r.Counter("paraleon_dispatch_wal_replayed_records_total", "Records read back during write-ahead-log replays."),
	}
}

// SimMetrics covers workload-level outcomes of a simulation run.
// Populated opportunistically (flow-completion hooks are composable),
// so harnesses attach it only when a consumer — the flight recorder,
// a report — wants the distribution.
type SimMetrics struct {
	FCTMs *Histogram
}

// NewSimMetrics resolves the sim family set from r.
func NewSimMetrics(r *Registry) *SimMetrics {
	return &SimMetrics{
		FCTMs: r.Histogram("paraleon_sim_fct_ms", "Flow completion times in virtual milliseconds.", BucketsFCTMs),
	}
}

// EngineMetrics is the event engine's account of finished simulation
// runs: what the engine did and what it cost in host time. Each run adds
// its totals once, at its end, so parallel arms accumulate and the hot
// path is untouched. Report derives events/s, host seconds per virtual
// millisecond and relinks per event from these.
type EngineMetrics struct {
	Events      *Counter
	Relinks     *Counter
	WallNs      *Counter
	VirtualNs   *Counter
	PeakPending *Gauge // largest single-run high-water mark
	// Transmissions counts packets put on a wire by any egress port;
	// TxTimers counts those that needed a serialization-done event on top
	// of the delivery (netdev.PortStats.TxTimers).
	Transmissions *Counter
	TxTimers      *Counter
	// PacketsAllocated and PacketBytes are the largest number of packets,
	// and their bytes, that one run's packet pool allocated rather than
	// recycled (netdev.PacketPool.Fresh): the data plane's packet heap.
	PacketsAllocated *Gauge
	PacketBytes      *Gauge
}

// Engine metric names, shared with Report's derived summary.
const (
	engineEvents    = "paraleon_engine_events_total"
	engineRelinks   = "paraleon_engine_relinks_total"
	engineWallNs    = "paraleon_engine_wall_ns_total"
	engineVirtualNs = "paraleon_engine_virtual_ns_total"
	portTx          = "paraleon_port_transmissions_total"
	portTxTimers    = "paraleon_port_tx_timers_total"
	poolPackets     = "paraleon_pool_packets_allocated"
	poolBytes       = "paraleon_pool_packet_bytes_allocated"
)

// NewEngineMetrics resolves the engine family set from r.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	return &EngineMetrics{
		Events:      r.Counter(engineEvents, "Events executed by simulation engines."),
		Relinks:     r.Counter(engineRelinks, "Events refiled a level down by timing-wheel cascades."),
		WallNs:      r.Counter(engineWallNs, "Host nanoseconds spent running simulation engines, summed over runs."),
		VirtualNs:   r.Counter(engineVirtualNs, "Virtual nanoseconds simulated, summed over runs."),
		PeakPending: r.Gauge("paraleon_engine_peak_pending", "Largest pending-event high-water mark of any run."),

		Transmissions: r.Counter(portTx, "Packets put on a wire by egress ports, summed over runs."),
		TxTimers:      r.Counter(portTxTimers, "Transmissions that needed a serialization-done event besides the delivery."),

		PacketsAllocated: r.Gauge(poolPackets, "Largest number of packets one run's pool allocated rather than recycled."),
		PacketBytes:      r.Gauge(poolBytes, "Bytes of the packets counted by paraleon_pool_packets_allocated."),
	}
}

// VirtualTime returns the virtual-clock gauge; control loops set it to
// the engine's current time (nanoseconds) each tick so scrapers can
// correlate wall-clock scrape times with virtual-time trace events.
func VirtualTime(r *Registry) *Gauge {
	return r.Gauge(VirtualTimeGauge, "Simulator virtual clock in nanoseconds at the last control-loop tick.")
}
