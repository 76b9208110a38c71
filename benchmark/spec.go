package main

import (
	"slices"

	"repro/internal/eventsim"
)

// Workload names, in the order every report lists them.
const (
	wFB     = "fb_paper"
	wA2A    = "a2a_paper"
	wClos   = "clos4096_drain"
	wFleet  = "rp_timer_fleet"
	wSweep  = "sweep_quick"
	wDaemon = "ctrl_daemon"
)

type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx) error
}

// workloads is the benchmark's fixed workload set; Why is the one-line
// rationale BENCHMARK.json repeats.
var workloads = []workloadDef{
	{wFB, "paper fabric, FB_Hadoop at 30% load under the closed Paraleon loop: every layer works, mice dominate the FSD, sketches see thousands of keys per interval", runFB},
	{wA2A, "paper fabric, 32-worker alltoall rounds under the closed loop: long elephants, ECN/PFC-heavy switches, sketch heavy-part hits, tuner pushed throughput-friendly", runA2A},
	{wClos, "4096-host CLOS drain with static parameters and no control loop: working set far beyond cache, engine and netdev data structures dominate, set-up and RSS are large", runClos},
	{wFleet, "8192 DCQCN reaction points on a bare engine with CNP injectors: timers do all the work and netdev none, the inverse of the fabric workloads", runFleet},
	{wSweep, "ten QuickScale arms (five schemes x two seeds) through harness.RunAll: day-to-day use, control-loop cost has its largest share, big-fabric engine tricks should change nothing", runSweep},
	{wDaemon, "in-process ctrlrpc daemon on loopback with guard and FileWAL, one closed-loop client: Table IV control-plane cost with no simulator at all", runDaemon},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one reported metric. Bound is the share of the base
// median by which -compare lets a host-time metric worsen (0 for layer
// metrics, which carry no bound). Exact metrics are simulated or counted:
// for a fixed seed they repeat bit for bit, so -compare reports any
// difference as "changed" and applies no noise bound. On lists the
// workloads the metric exists on; nil means all.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	// Slack is an absolute allowance added to Bound × median, for a metric
	// that is milliseconds on some workloads and seconds on others.
	Slack float64
	Exact bool
	On    []string
}

func (m *metricDef) appliesTo(w string) bool {
	return m.On == nil || slices.Contains(m.On, w)
}

var (
	onSimTime = []string{wFB, wA2A, wClos}
	onClasses = []string{wFB, wSweep}
	onDaemon  = []string{wDaemon}
)

// hostE2E are the end-to-end metrics every workload has; they are what
// BENCHMARK.json lists under end_to_end and what the driver bounds.
var hostE2E = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.05},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// resultE2E are the end-to-end metrics that exist only on some workloads
// (simulated FCT by flow class, control-plane rates). The driver's contract
// wants every end_to_end metric on every workload, so BENCHMARK.json lists
// these under per_layer; this program still reports and -compare still
// bounds them as end-to-end metrics on the workloads they apply to.
var resultE2E = []metricDef{
	{Name: "sim_ms", Unit: "vms", Better: "lower", Exact: true, On: onSimTime},
	{Name: "mice_slowdown_mean", Unit: "x", Better: "lower", Exact: true, On: onClasses},
	{Name: "mice_slowdown_p99", Unit: "x", Better: "lower", Exact: true, On: onClasses},
	{Name: "elephant_slowdown_mean", Unit: "x", Better: "lower", Exact: true, On: onClasses},
	{Name: "slowdown_p99", Unit: "x", Better: "lower", Exact: true, On: onSimTime},
	{Name: "ticks_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25, On: onDaemon},
	{Name: "tick_us_p50", Unit: "us", Better: "lower", Bound: 0.25, On: onDaemon},
	{Name: "wire_bytes_per_tick", Unit: "B", Better: "lower", Exact: true, On: onDaemon},
}

// e2eMetrics is the full end-to-end set this program reports (twelve).
func e2eMetrics() []metricDef {
	return append(append([]metricDef{}, hostE2E...), resultE2E...)
}

// layerMetrics are the per-layer metrics, grouped by the layer whose public
// functions or counters they come from. Source is documented in README.md:
// counts over the timed region, spans of the traced run, or micro-drivers.
var layerMetrics = []metricDef{
	{Name: "eventsim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "eventsim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "eventsim.wall_s_per_virtual_ms", Unit: "s/vms", Better: "lower"},
	{Name: "eventsim.nonpacket_event_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "eventsim.pending_hwm", Unit: "count", Better: "lower", Exact: true},
	{Name: "eventsim.hold_ns", Unit: "ns", Better: "lower"},
	{Name: "eventsim.rearm_ns", Unit: "ns", Better: "lower"},

	{Name: "netdev.tx_packets", Unit: "count", Better: "lower", Exact: true},
	{Name: "netdev.switch_rx_packets", Unit: "count", Better: "lower", Exact: true},
	{Name: "netdev.pfc_frames", Unit: "count", Better: "lower", Exact: true},
	{Name: "netdev.drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "netdev.ecn_marked_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "netdev.pause_frac", Unit: "share", Better: "lower", Exact: true},
	{Name: "netdev.forward_ns", Unit: "ns", Better: "lower"},

	{Name: "rnic.tx_packets", Unit: "count", Better: "lower", Exact: true},
	{Name: "rnic.cnps_received", Unit: "count", Better: "lower", Exact: true},
	{Name: "rnic.rtt_samples", Unit: "count", Better: "higher", Exact: true},
	{Name: "rnic.cnp_per_kpkt", Unit: "1/kpkt", Better: "lower", Exact: true},
	{Name: "rnic.pair_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "dcqcn.rp_fire_ns", Unit: "ns", Better: "lower"},
	{Name: "dcqcn.cnp_cut_ns", Unit: "ns", Better: "lower"},

	{Name: "sketch.inserts", Unit: "count", Better: "lower", Exact: true},
	{Name: "sketch.skipped", Unit: "count", Better: "higher", Exact: true},
	{Name: "sketch.evictions", Unit: "count", Better: "lower", Exact: true},
	{Name: "sketch.insert_ns.fb", Unit: "ns", Better: "lower"},
	{Name: "sketch.insert_ns.a2a", Unit: "ns", Better: "lower"},
	{Name: "sketch.read_reset_us", Unit: "us", Better: "lower"},

	{Name: "monitor.end_interval_us", Unit: "us", Better: "lower"},
	{Name: "monitor.controller_tick_us", Unit: "us", Better: "lower"},
	{Name: "monitor.collector_sample_us", Unit: "us", Better: "lower"},
	{Name: "monitor.triggers", Unit: "count", Better: "lower", Exact: true},

	{Name: "core.tick_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.tick_us_max", Unit: "us", Better: "lower"},
	{Name: "core.tick_share", Unit: "share", Better: "lower"},
	{Name: "core.attach_s", Unit: "s", Better: "lower"},
	{Name: "core.sessions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.dispatches", Unit: "count", Better: "lower", Exact: true},

	{Name: "tuner.step_ns.sa", Unit: "ns", Better: "lower"},
	{Name: "tuner.step_ns.multiecn", Unit: "ns", Better: "lower"},
	{Name: "tuner.step_ns.bandit", Unit: "ns", Better: "lower"},
	{Name: "tuner.iterations", Unit: "count", Better: "lower", Exact: true},
	{Name: "tuner.accept_ratio", Unit: "share", Better: "higher", Exact: true},
	{Name: "tuner.best_utility", Unit: "score", Better: "higher", Exact: true},

	{Name: "dispatch.guard_admit_ns", Unit: "ns", Better: "lower"},
	{Name: "dispatch.plan_us", Unit: "us", Better: "lower"},
	{Name: "dispatch.filewal_append_us", Unit: "us", Better: "lower"},
	{Name: "dispatch.wal_replay_us_per_krec", Unit: "us", Better: "lower"},
	{Name: "dispatch.epochs", Unit: "count", Better: "lower", Exact: true},
	{Name: "dispatch.guard_reject_ratio", Unit: "share", Better: "lower", Exact: true},

	{Name: "ctrlrpc.report_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "ctrlrpc.params_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "ctrlrpc.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "ctrlrpc.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "ctrlrpc.call_us_p50", Unit: "us", Better: "lower"},
	{Name: "ctrlrpc.call_us_p99", Unit: "us", Better: "lower"},
	{Name: "ctrlrpc.tick_us_p99", Unit: "us", Better: "lower"},
	{Name: "ctrlrpc.server_cpu_us_per_tick", Unit: "us", Better: "lower"},

	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "sim.new_s", Unit: "s", Better: "lower"},
	{Name: "workload.install_s", Unit: "s", Better: "lower"},
	{Name: "metrics.summarize_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.heap_mb_after_setup", Unit: "MB", Better: "lower"},

	{Name: "harness.parallel_efficiency", Unit: "share", Better: "higher"},
	{Name: "harness.arm_wall_s.default", Unit: "s", Better: "lower"},
	{Name: "harness.arm_wall_s.expert", Unit: "s", Better: "lower"},
	{Name: "harness.arm_wall_s.acc", Unit: "s", Better: "lower"},
	{Name: "harness.arm_wall_s.dcqcnplus", Unit: "s", Better: "lower"},
	{Name: "harness.arm_wall_s.paraleon", Unit: "s", Better: "lower"},

	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.series_append_ns", Unit: "ns", Better: "lower"},

	{Name: "budget.eventsim_share", Unit: "share", Better: "lower", On: onSimTime},
	{Name: "budget.netdev_share", Unit: "share", Better: "lower", On: onSimTime},
	{Name: "budget.rnic_dcqcn_share", Unit: "share", Better: "lower", On: onSimTime},
	{Name: "budget.sketch_share", Unit: "share", Better: "lower", On: onSimTime},
	{Name: "budget.core_tick_share", Unit: "share", Better: "lower", On: onSimTime},
	{Name: "budget.unattributed_share", Unit: "share", Better: "lower", On: onSimTime},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// perLayerMetrics is what BENCHMARK.json lists under per_layer and what a
// --trace 1 run prints: the workload-specific end-to-end metrics first,
// then the layer metrics.
func perLayerMetrics() []metricDef {
	return append(append([]metricDef{}, resultE2E...), layerMetrics...)
}

// size fixes how much work each workload does. The fabrics never shrink
// below the paper's: only trace lengths, message sizes and horizons do.
type size struct {
	Name string

	FBTraceMs float64 // FB_Hadoop arrival window, virtual ms

	A2AWorkers int
	A2ABytes   int64 // per worker pair per round
	A2ARounds  int

	ClosToRs, ClosHostsPerToR, ClosLeaves int
	ClosFlowsPerHost                      int
	ClosFlowBytes                         int64

	FleetRPs int
	FleetMs  int // virtual ms

	SweepMs    int // virtual ms of arrivals per arm
	SweepSeeds int

	DaemonTicks int

	// Small selects reduced fabrics (smoke tests only): a 4-ToR fabric in
	// place of the paper's 128 hosts.
	Small bool
}

// sizes: "paper" is the sizing ISSUE 12 states (one pass is about 65 s on
// two cores); "driver" keeps every fabric and shrinks the job so that one
// repetition takes 2-4 s and the driver's run cap holds; "short" is for
// the smoke tests.
var sizes = map[string]size{
	"paper": {
		Name: "paper", FBTraceMs: 10,
		A2AWorkers: 32, A2ABytes: 1 << 20, A2ARounds: 3,
		ClosToRs: 64, ClosHostsPerToR: 64, ClosLeaves: 16, ClosFlowsPerHost: 3, ClosFlowBytes: 256 << 10,
		FleetRPs: 8192, FleetMs: 40,
		SweepMs: 200, SweepSeeds: 2,
		DaemonTicks: 25000,
	},
	"driver": {
		Name: "driver", FBTraceMs: 2.5,
		A2AWorkers: 32, A2ABytes: 256 << 10, A2ARounds: 3,
		ClosToRs: 64, ClosHostsPerToR: 64, ClosLeaves: 16, ClosFlowsPerHost: 3, ClosFlowBytes: 96 << 10,
		FleetRPs: 8192, FleetMs: 14,
		SweepMs: 100, SweepSeeds: 2,
		DaemonTicks: 10000,
	},
	"short": {
		Name: "short", FBTraceMs: 0.2,
		A2AWorkers: 8, A2ABytes: 64 << 10, A2ARounds: 2,
		ClosToRs: 4, ClosHostsPerToR: 4, ClosLeaves: 2, ClosFlowsPerHost: 3, ClosFlowBytes: 16 << 10,
		FleetRPs: 256, FleetMs: 2,
		SweepMs: 10, SweepSeeds: 1,
		DaemonTicks: 300,
		Small:       true,
	},
}

// interval is λ_MI for every closed loop (Table III: 1 ms).
const interval = eventsim.Millisecond

// Flow classes for FCT by size, matching metrics.DefaultSizeBuckets' ends.
const (
	miceMaxBytes     = 10 << 10
	elephantMinBytes = 1 << 20
)
