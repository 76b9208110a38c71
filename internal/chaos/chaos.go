// Package chaos is the fault-injection subsystem: deterministic,
// seed-driven scenarios that break the simulated fabric (link outages
// and flaps), the measurement agents (crash/restart with sketch-state
// loss, stale reports), the rollout pipeline (dropped or delayed ACKs, a
// controller killed mid-rollout), and the control-plane transport
// (dropped/duplicated/truncated frames) so the Paraleon control
// loop's graceful-degradation paths can be exercised and regression-
// tested.
//
// All in-simulation faults are scheduled on the network's event engine
// at Install time from a single seeded RNG, so a fixed Scenario.Seed
// yields a byte-identical fault schedule — and, because the engine
// itself is deterministic, a byte-identical trace.
package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Sink observes fault and recovery events. trace.Recorder satisfies it;
// the interface lives here so trace does not need to import chaos (nor
// vice versa).
type Sink interface {
	// Fault records that fault was injected against target.
	Fault(fault, target string)
	// Recover records that target recovered from fault.
	Recover(fault, target string)
}

// nopSink lets the injector run without a recorder.
type nopSink struct{}

func (nopSink) Fault(string, string)   {}
func (nopSink) Recover(string, string) {}

// LinkFault takes one bidirectional link down, either once or as a flap
// pattern. While down, ports hold their queues (the fabric is lossless;
// there is no link-layer retransmit to recover drops) and ECMP routes
// new packets around the outage where an alternative hop exists.
type LinkFault struct {
	// A, B name the link's endpoints (either order).
	A, B topology.NodeID
	// At is when the first outage starts.
	At eventsim.Time
	// DownFor is the length of each outage.
	DownFor eventsim.Time
	// Flaps is the number of down/up cycles; 0 or 1 means a single
	// outage.
	Flaps int
	// Every is the period between successive outage starts; 0 means
	// 2×DownFor. Periods after the first are jittered ±10% from the
	// scenario seed so flaps do not phase-lock with the monitor
	// interval.
	Every eventsim.Time
}

// AgentFault breaks one measurement agent. A crash loses the agent's
// sketch state: whatever it accumulated before and during the outage is
// discarded on restart, exactly as a rebooted switch agent would come
// back empty. A stall freezes the agent's report instead — it keeps
// answering, but with the last pre-stall report, modelling a wedged
// agent whose heartbeats still pass.
type AgentFault struct {
	// Agent indexes the injector's FlakySource slice.
	Agent int
	// CrashAt, if >0, is when the agent dies; RestartAt, if >CrashAt,
	// is when it comes back (0 means it stays dead).
	CrashAt, RestartAt eventsim.Time
	// StallAt, if >0, is when the agent starts serving stale reports;
	// StallFor is for how many reports.
	StallAt  eventsim.Time
	StallFor int
}

// DispatchFault perturbs the parameter-rollout pipeline: ACK frames
// from one device can be dropped or delayed, and the controller can be
// killed the first time the pipeline enters a named phase — the
// crash-mid-rollout scenario the write-ahead intent log exists for.
type DispatchFault struct {
	// Device indexes the rollout fabric's device whose ACKs are faulted.
	Device int
	// DropAcks swallows that many consecutive ACK frames from Device.
	DropAcks int
	// DelayAck adds this much to each of Device's ACK deliveries.
	DelayAck eventsim.Time
	// At is when the ACK fault arms; 0 arms it at install time.
	At eventsim.Time
	// KillAtPhase, when non-empty, fires the injector's controller-kill
	// hook the first time the pipeline enters the named phase ("canary",
	// "settle", "promote"). ACK fields are ignored on a pure kill fault.
	KillAtPhase string
}

// Scenario is a complete declarative fault plan.
type Scenario struct {
	// Seed drives every random choice the scenario makes (flap jitter,
	// transport fault coin flips). Same seed, same faults.
	Seed int64

	Links    []LinkFault
	Agents   []AgentFault
	Dispatch []DispatchFault

	// Conn configures control-plane transport faults; it is not
	// scheduled by the injector (the transport runs on real TCP, outside
	// the event engine) — harnesses pass it to ConnFaults.Wrap on dialed
	// connections. Seed 0 inherits Scenario.Seed.
	Conn ConnFaults
}

// DispatchTarget is the slice of the rollout pipeline the injector
// faults. dispatch.Pipeline satisfies it; the interface lives here so
// chaos does not import dispatch (nor vice versa).
type DispatchTarget interface {
	// FaultAcks arms ACK faults on one device.
	FaultAcks(device, drop int, delay eventsim.Time)
	// OnPhaseEnter registers a hook for the pipeline entering a phase.
	OnPhaseEnter(phase string, fn func())
}

// Injector schedules a Scenario's faults onto a network's event engine.
type Injector struct {
	net     *sim.Network
	sources []*FlakySource
	sink    Sink

	dispatch DispatchTarget
	kill     func()
}

// NewInjector builds an injector over n. sources are the crashable
// agents agent faults index (may be nil when the scenario has none);
// sink observes injections (nil for none).
func NewInjector(n *sim.Network, sources []*FlakySource, sink Sink) *Injector {
	if sink == nil {
		sink = nopSink{}
	}
	return &Injector{net: n, sources: sources, sink: sink}
}

// BindDispatch attaches the rollout pipeline the scenario's dispatch
// faults act on, plus the hook a KillAtPhase fault fires (the harness
// tears the controller down there). Must be called before Install when
// the scenario carries dispatch faults.
func (inj *Injector) BindDispatch(target DispatchTarget, kill func()) {
	inj.dispatch = target
	inj.kill = kill
}

// Install validates sc and schedules all of its in-simulation faults.
// Every random draw happens here, from sc.Seed, so the resulting event
// schedule — not just its distribution — is deterministic.
func (inj *Injector) Install(sc Scenario) error {
	rng := rand.New(rand.NewSource(sc.Seed))

	// Validate links up front with a no-op application: SetLinkUp(true)
	// leaves a healthy link unchanged but fails on a nonexistent one,
	// turning a typo'd scenario into an install error instead of a
	// mid-run surprise.
	for _, lf := range sc.Links {
		if lf.DownFor <= 0 {
			return fmt.Errorf("chaos: link %d-%d: DownFor must be positive", lf.A, lf.B)
		}
		if err := inj.net.SetLinkUp(lf.A, lf.B, true); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	for _, af := range sc.Agents {
		if af.Agent < 0 || af.Agent >= len(inj.sources) {
			return fmt.Errorf("chaos: agent %d out of range (have %d sources)", af.Agent, len(inj.sources))
		}
	}
	for _, df := range sc.Dispatch {
		if inj.dispatch == nil {
			return fmt.Errorf("chaos: dispatch fault without BindDispatch")
		}
		if df.KillAtPhase == "" && df.DropAcks <= 0 && df.DelayAck <= 0 {
			return fmt.Errorf("chaos: dispatch fault on device %d does nothing", df.Device)
		}
		if df.KillAtPhase != "" && inj.kill == nil {
			return fmt.Errorf("chaos: KillAtPhase %q without a kill hook", df.KillAtPhase)
		}
	}

	for _, lf := range sc.Links {
		inj.installLink(lf, rng)
	}
	for _, af := range sc.Agents {
		inj.installAgent(af)
	}
	for _, df := range sc.Dispatch {
		inj.installDispatch(df)
	}
	return nil
}

func (inj *Injector) installLink(lf LinkFault, rng *rand.Rand) {
	a, b := lf.A, lf.B
	target := fmt.Sprintf("link %d-%d", a, b)
	flaps := lf.Flaps
	if flaps < 1 {
		flaps = 1
	}
	every := lf.Every
	if every <= 0 {
		every = 2 * lf.DownFor
	}
	at := lf.At
	for k := 0; k < flaps; k++ {
		down, up := at, at+lf.DownFor
		inj.net.Eng.Schedule(down, func() {
			inj.net.SetLinkUp(a, b, false)
			inj.sink.Fault("link_down", target)
		})
		inj.net.Eng.Schedule(up, func() {
			inj.net.SetLinkUp(a, b, true)
			inj.sink.Recover("link_down", target)
		})
		// ±10% jitter on the period keeps repeated flaps from
		// phase-locking with the monitor interval; drawn now so the
		// schedule is fixed at install time.
		jitter := eventsim.Time(float64(every) * 0.1 * (2*rng.Float64() - 1))
		step := every + jitter
		if step <= lf.DownFor {
			step = lf.DownFor + 1
		}
		at += step
	}
}

func (inj *Injector) installAgent(af AgentFault) {
	src := inj.sources[af.Agent]
	target := fmt.Sprintf("agent %d", af.Agent)
	if af.CrashAt > 0 {
		inj.net.Eng.Schedule(af.CrashAt, func() {
			src.Crash()
			inj.sink.Fault("agent_crash", target)
		})
		if af.RestartAt > af.CrashAt {
			inj.net.Eng.Schedule(af.RestartAt, func() {
				src.Restart()
				inj.sink.Recover("agent_crash", target)
			})
		}
	}
	if af.StallAt > 0 && af.StallFor > 0 {
		n := af.StallFor
		inj.net.Eng.Schedule(af.StallAt, func() {
			src.Stall(n)
			inj.sink.Fault("agent_stall", target)
		})
	}
}

func (inj *Injector) installDispatch(df DispatchFault) {
	if df.KillAtPhase != "" {
		phase := df.KillAtPhase
		fired := false
		inj.dispatch.OnPhaseEnter(phase, func() {
			if fired {
				return
			}
			fired = true
			inj.sink.Fault("controller_kill", "phase "+phase)
			inj.kill()
		})
		return
	}
	target := fmt.Sprintf("device %d", df.Device)
	device, drop, delay := df.Device, df.DropAcks, df.DelayAck
	arm := func() {
		inj.dispatch.FaultAcks(device, drop, delay)
		inj.sink.Fault("dispatch_ack", target)
	}
	if df.At > 0 {
		inj.net.Eng.Schedule(df.At, arm)
	} else {
		arm()
	}
}
