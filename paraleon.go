// Package paraleon is a from-scratch Go reproduction of "PARALEON
// (Chameleon): Automatic and Adaptive Tuning for DCQCN Parameters in RDMA
// Networks": a packet-level RoCEv2 simulator (DCQCN + PFC + ECN on CLOS
// fabrics), Paraleon's sketch-based millisecond runtime monitor and
// guided simulated-annealing parameter tuner, the paper's baselines (ACC,
// DCQCN+, NetFlow, static expert settings), and a real TCP control plane
// mirroring the prototype.
//
// This file is the public facade: it re-exports what the examples and the
// README's library snippet compose, so they work from a single import.
// The implementation lives under internal/, one package per subsystem:
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
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// Common durations of virtual time, in nanoseconds.
const (
	Millisecond = eventsim.Millisecond
	Second      = eventsim.Second
)

// Params is the full DCQCN parameter vector (RNIC + switch ECN).
type Params = dcqcn.Params

// DefaultParams is the NVIDIA default setting; ExpertParams the hand-tuned
// Table I setting.
var (
	DefaultParams = dcqcn.DefaultParams
	ExpertParams  = dcqcn.ExpertParams
)

// NewNetwork builds a wired, runnable RoCEv2 fabric simulation;
// DefaultNetworkConfig is a small fast fabric.
var (
	NewNetwork           = sim.New
	DefaultNetworkConfig = sim.DefaultConfig
)

// Attach wires Paraleon (monitor + controller + tuner) onto a network;
// DefaultSystemConfig is Table III, ShortSAConfig compresses the SA
// schedule for short runs, ThroughputWeights are the utility weights
// (0.5, 0.2, 0.3), and AttachPartitioned deploys one controller per
// cluster of racks with heterogeneous parameters (§V).
var (
	Attach              = core.Attach
	AttachPartitioned   = core.AttachPartitioned
	DefaultSystemConfig = core.DefaultSystemConfig
	ShortSAConfig       = tuner.ShortSAConfig
	ThroughputWeights   = tuner.ThroughputWeights
)

// Workload generator configurations.
type (
	PoissonConfig  = workload.PoissonConfig
	AlltoallConfig = workload.AlltoallConfig
	InfluxConfig   = workload.InfluxConfig
)

// InstallPoisson, InstallAlltoall and InstallInflux schedule traffic;
// FBHadoop and SolarRPC are built-in flow-size distributions.
var (
	InstallPoisson  = workload.InstallPoisson
	InstallAlltoall = workload.InstallAlltoall
	InstallInflux   = workload.InstallInflux
	FBHadoop        = workload.FBHadoop
	SolarRPC        = workload.SolarRPC
)

// FCTSummary aggregates a finished run's flow completion times.
type FCTSummary = metrics.FCTSummary

// Summarize computes the FCTSummary of a run's completion records.
var Summarize = metrics.Summarize
