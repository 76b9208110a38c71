// Package paraleon is a from-scratch Go reproduction of "PARALEON
// (Chameleon): Automatic and Adaptive Tuning for DCQCN Parameters in RDMA
// Networks": a packet-level RoCEv2 simulator (DCQCN + PFC + ECN on CLOS
// fabrics), Paraleon's sketch-based millisecond runtime monitor and
// guided simulated-annealing parameter tuner, the paper's baselines (ACC,
// DCQCN+, NetFlow, static expert settings), and a real TCP control plane
// mirroring the prototype.
//
// This file is the public facade: it re-exports the pieces a downstream
// user composes, so examples and applications can work from a single
// import. The implementation lives under internal/, one package per
// subsystem:
//
//	eventsim  – deterministic discrete-event engine
//	topology  – CLOS fabrics and ECMP routing
//	netdev    – switches, ports, PFC, ECN marking
//	dcqcn     – the full DCQCN parameter surface and RP/NP machines
//	rnic      – host RNICs, QP pacing, RTT probes
//	sim       – wiring it into a runnable network
//	sketch    – Elastic Sketch
//	monitor   – sketch agents, ternary flow states, runtime collection
//	loop      – FSD aggregation, KL trigger, the shared decision step
//	core      – the simulated tuning control loop
//	tuner     – pluggable strategies: guided SA, multi-agent ECN, bandit
//	baselines – ACC, DCQCN+, NetFlow
//	workload  – FB_Hadoop / SolarRPC / alltoall generators
//	metrics   – slowdowns, CDFs, time series
//	ctrlrpc   – the real TCP control plane
//	harness   – the experiment table behind cmd/paraleon-sim
package paraleon

import (
	"repro/internal/core"
	"repro/internal/ctrlrpc"
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// Time is virtual simulation time in nanoseconds.
type Time = eventsim.Time

// Common durations.
const (
	Microsecond = eventsim.Microsecond
	Millisecond = eventsim.Millisecond
	Second      = eventsim.Second
)

// Params is the full DCQCN parameter vector (RNIC + switch ECN).
type Params = dcqcn.Params

// DefaultParams is the NVIDIA default setting; ExpertParams the
// hand-tuned Table I setting.
var (
	DefaultParams = dcqcn.DefaultParams
	ExpertParams  = dcqcn.ExpertParams
)

// Network is a wired, runnable RoCEv2 fabric simulation.
type Network = sim.Network

// NetworkConfig parameterizes a network build; ClosConfig the fabric.
type (
	NetworkConfig = sim.Config
	ClosConfig    = topology.ClosConfig
)

// NewNetwork builds a network; DefaultNetworkConfig is a small fast
// fabric; PaperClosConfig the paper's 128-host NS-3 topology.
var (
	NewNetwork           = sim.New
	DefaultNetworkConfig = sim.DefaultConfig
	PaperClosConfig      = topology.PaperClosConfig
)

// System is a full Paraleon deployment (monitor + controller + tuner)
// attached to a network; SystemConfig mirrors Table III.
type (
	System       = core.System
	SystemConfig = core.SystemConfig
)

// SAConfig parameterizes the annealing search.
type SAConfig = tuner.SAConfig

// Tuner is the pluggable search-strategy interface; every registered
// strategy (sa, multiecn, bandit) satisfies it. TunerConfig carries the
// per-strategy knobs; BanditConfig and MultiECNConfig parameterize the
// two alternatives to SA. Select a strategy by name via
// SystemConfig.Tuner or NetworkConfig.Tuner.
type (
	Tuner          = tuner.Tuner
	TunerConfig    = tuner.Config
	BanditConfig   = tuner.BanditConfig
	MultiECNConfig = tuner.MultiECNConfig
)

// NewTuner builds a registered strategy by name ("" selects sa);
// TunerNames lists the registry.
var (
	NewTuner   = tuner.New
	TunerNames = tuner.Names
)

// Attach wires Paraleon onto a network; DefaultSystemConfig is Table III.
// ShortSAConfig compresses the SA schedule for short runs.
// AttachPartitioned deploys one controller per cluster of racks with
// heterogeneous parameters (§V).
var (
	Attach              = core.Attach
	AttachPartitioned   = core.AttachPartitioned
	DefaultSystemConfig = core.DefaultSystemConfig
	ShortSAConfig       = tuner.ShortSAConfig
	Pretrain            = core.Pretrain
)

// Weights are the utility-function weights ω_TP/ω_RTT/ω_PFC.
type Weights = tuner.Weights

// DefaultWeights is (0.2, 0.5, 0.3); ThroughputWeights (0.5, 0.2, 0.3).
var (
	DefaultWeights    = tuner.DefaultWeights
	ThroughputWeights = tuner.ThroughputWeights
	Utility           = tuner.Utility
)

// FSD is a network-wide flow size distribution; RuntimeSample one
// interval's utility inputs.
type (
	FSD           = loop.FSD
	RuntimeSample = loop.RuntimeSample
)

// Workload generators.
type (
	PoissonConfig  = workload.PoissonConfig
	AlltoallConfig = workload.AlltoallConfig
	InfluxConfig   = workload.InfluxConfig
	SizeCDF        = workload.SizeCDF
)

// IncastConfig and PermutationConfig cover the remaining canonical
// datacenter patterns; TraceFlow supports trace record/replay.
type (
	IncastConfig      = workload.IncastConfig
	PermutationConfig = workload.PermutationConfig
	TraceFlow         = workload.TraceFlow
)

// InstallPoisson, InstallAlltoall, InstallInflux, InstallIncast,
// InstallPermutation and InstallReplay schedule traffic; FBHadoop,
// SolarRPC and WebSearch are the built-in size distributions; SaveTrace,
// LoadTrace and RecordTrace round-trip workloads through CSV.
var (
	InstallPoisson     = workload.InstallPoisson
	InstallAlltoall    = workload.InstallAlltoall
	InstallInflux      = workload.InstallInflux
	InstallIncast      = workload.InstallIncast
	InstallPermutation = workload.InstallPermutation
	InstallReplay      = workload.InstallReplay
	SaveTrace          = workload.SaveTrace
	LoadTrace          = workload.LoadTrace
	RecordTrace        = workload.RecordTrace
	FBHadoop           = workload.FBHadoop
	SolarRPC           = workload.SolarRPC
	WebSearch          = workload.WebSearch
)

// FlowRecord is one completed flow; FCTSummary an aggregate.
type (
	FlowRecord = sim.FlowRecord
	FCTSummary = metrics.FCTSummary
)

// Summarize computes FCT statistics for a finished run.
var Summarize = metrics.Summarize

// ControllerConfig configures the real TCP controller; ServeController
// starts one and DialController connects an agent to it.
type ControllerConfig = ctrlrpc.ServerConfig

var (
	ServeController         = ctrlrpc.Serve
	DialController          = ctrlrpc.Dial
	DefaultControllerConfig = ctrlrpc.DefaultServerConfig
)
