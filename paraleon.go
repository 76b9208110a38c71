// Package paraleon is a from-scratch Go reproduction of "PARALEON
// (Chameleon): Automatic and Adaptive Tuning for DCQCN Parameters in RDMA
// Networks": a packet-level RoCEv2 simulator (DCQCN + PFC + ECN on CLOS
// fabrics), Paraleon's sketch-based millisecond runtime monitor and
// guided simulated-annealing parameter tuner, the paper's baselines (ACC,
// DCQCN+, NetFlow, static expert settings), and a real TCP control plane
// mirroring the prototype.
//
// This file is the public facade: it re-exports what the README's
// library snippet composes, so it works from a single import; Example
// runs that snippet and checks what it prints. The paper's evaluation is
// the experiment table behind cmd/paraleon-sim. The implementation lives
// under internal/, one package per subsystem:
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
//	dispatch  – guarded, journaled, crash-recoverable parameter dispatch
//	baselines – ACC, DCQCN+, NetFlow
//	workload  – FB_Hadoop / SolarRPC / alltoall generators
//	metrics   – slowdowns, CDFs, FCT summaries, CSV export
//	chaos     – seeded fault injection: links, agents, controller kills, wire
//	telemetry – metrics registry, /metrics and /debug endpoints, time
//	            series and flight-recorder artifacts (telemetry/series)
//	trace     – a run's one event log
//	splitmix  – the shared SplitMix64 mixing primitives
//	ctrlrpc   – the real TCP control plane
//	harness   – the experiment table behind cmd/paraleon-sim
package paraleon

import (
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Millisecond is one millisecond of virtual time, in nanoseconds.
const Millisecond = eventsim.Millisecond

// NewNetwork builds a wired, runnable RoCEv2 fabric simulation;
// DefaultNetworkConfig is a small fast fabric.
var (
	NewNetwork           = sim.New
	DefaultNetworkConfig = sim.DefaultConfig
)

// Attach wires Paraleon (monitor + controller + tuner) onto a network;
// DefaultSystemConfig is Table III.
var (
	Attach              = core.Attach
	DefaultSystemConfig = core.DefaultSystemConfig
)

// PoissonConfig configures InstallPoisson.
type PoissonConfig = workload.PoissonConfig

// InstallPoisson schedules Poisson flow arrivals at a target load;
// FBHadoop is the paper's built-in flow-size distribution.
var (
	InstallPoisson = workload.InstallPoisson
	FBHadoop       = workload.FBHadoop
)

// Summarize computes the FCT summary of a run's completion records.
var Summarize = metrics.Summarize
