// Package sim assembles a runnable RoCEv2 network: it instantiates host
// RNICs and switches from a topology description, wires every link, routes
// flows, and records flow completion times. It is the substrate on which
// all of the paper's experiments run — the Go stand-in for the authors'
// NS-3 setup.
package sim

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/netdev"
	"repro/internal/rnic"
	"repro/internal/topology"
)

// Config parameterizes a network build.
type Config struct {
	// Clos describes the fabric (see topology.ClosConfig).
	Clos topology.ClosConfig
	// Switch sets buffer and PFC behaviour for every switch.
	Switch netdev.SwitchConfig
	// Params is the initial DCQCN setting applied to all RNICs and
	// switches.
	Params dcqcn.Params
	// Seed drives all randomness. Each port's ECN coins are a pure function
	// of (Seed, node, port, packet) — netdev.PortSeed — and never a stream;
	// workload generators draw from streams split off Eng.Rand().
	Seed int64
	// Tuner names the search strategy a control loop attached to this
	// network should use when its own config leaves the choice open
	// (see internal/tuner; empty means "sa"). The network itself never
	// reads it — it rides here so harnesses and RPC servers that build
	// deployments from a sim.Config inherit the selection.
	Tuner string
}

// DefaultConfig is a small, fast fabric useful for tests and examples:
// 2 ToRs × 4 hosts at 10 Gbps with one leaf.
func DefaultConfig() Config {
	return Config{
		Clos: topology.ClosConfig{
			NumToR: 2, NumLeaf: 1, HostsPerToR: 4,
			HostLinkBps: 10e9, FabricLinkBps: 40e9,
			PropDelay: 2 * eventsim.Microsecond,
		},
		Switch: netdev.DefaultSwitchConfig(),
		Params: dcqcn.DefaultParams(),
		Seed:   1,
	}
}

// FlowRecord is one completed flow.
type FlowRecord struct {
	ID       uint64
	Src, Dst topology.NodeID
	Size     int64
	Start    eventsim.Time
	End      eventsim.Time
}

// FCT returns the flow completion time.
func (r FlowRecord) FCT() eventsim.Time { return r.End - r.Start }

// ApplyRecord is one parameter dispatch: at At, Params went to the racks
// under ToRs, or to the whole fabric when ToRs is nil.
type ApplyRecord struct {
	At     eventsim.Time
	ToRs   []topology.NodeID
	Params dcqcn.Params
}

// Network is a fully wired simulation instance.
type Network struct {
	Eng  *eventsim.Engine
	Topo *topology.Topology

	Hosts    []*rnic.Host // indexed in topology host order
	Switches []*netdev.Switch

	// pool is the network-wide packet free-list: every host and switch
	// draws from and recycles into it. Safe because the engine is
	// single-threaded; parallel experiment arms each own a Network and
	// therefore a pool.
	pool *netdev.PacketPool

	hostByNode   map[topology.NodeID]*rnic.Host
	switchByNode map[topology.NodeID]*netdev.Switch

	// rnicParams is shared by every host RNIC; switchParams is
	// per-switch so schemes like ACC can tune ECN thresholds locally. A
	// host may hold its own override of rnicParams (rnic.Host.SetParams;
	// DCQCN+ adjusts per-endpoint CNP pacing and increase steps);
	// clusterParams holds the overrides ApplyParamsToCluster installed,
	// which the next fabric-wide ApplyParams lifts.
	rnicParams    *dcqcn.Params
	switchParams  map[topology.NodeID]*dcqcn.Params
	clusterParams map[topology.NodeID]*dcqcn.Params

	cfg        Config
	nextFlowID uint64

	// Completed accumulates flow records in completion order.
	Completed []FlowRecord
	// Applied accumulates every ApplyParams and ApplyParamsToCluster call
	// in order: the schedule through which a control loop acts on the
	// fabric. ApplySwitchECN's per-switch overrides are not in it.
	Applied []ApplyRecord
	hooks   []func(FlowRecord)

	// runWall is the host time spent inside Run.
	runWall time.Duration
}

// AddFlowCompleteHook registers a completion observer; each workload
// generator adds its own, so several coexist.
func (n *Network) AddFlowCompleteHook(fn func(FlowRecord)) {
	n.hooks = append(n.hooks, fn)
}

// New builds and wires a network from cfg.
func New(cfg Config) (*Network, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	topo, err := topology.NewClos(cfg.Clos)
	if err != nil {
		return nil, err
	}
	eng := eventsim.NewEngine(cfg.Seed)
	n := &Network{
		Eng: eng, Topo: topo, cfg: cfg,
		pool:          netdev.NewPacketPool(),
		hostByNode:    map[topology.NodeID]*rnic.Host{},
		switchByNode:  map[topology.NodeID]*netdev.Switch{},
		switchParams:  map[topology.NodeID]*dcqcn.Params{},
		clusterParams: map[topology.NodeID]*dcqcn.Params{},
	}
	rp := cfg.Params
	n.rnicParams = &rp

	for _, sn := range topo.SwitchIDs() {
		sp := cfg.Params
		spp := &sp
		n.switchParams[sn] = spp
		sw := netdev.NewSwitch(eng, topo, sn, cfg.Switch, func() *dcqcn.Params { return spp })
		sw.SetPacketPool(n.pool)
		n.Switches = append(n.Switches, sw)
		n.switchByNode[sn] = sw
	}
	for _, hn := range topo.Hosts() {
		h := rnic.NewHost(eng, topo, hn, n.rnicParams, n.flowCompleted)
		h.SetPacketPool(n.pool)
		n.Hosts = append(n.Hosts, h)
		n.hostByNode[hn] = h
	}

	// Wire every link in both directions.
	for i := range topo.Links {
		l := &topo.Links[i]
		devA, portA := n.devicePort(l.A, l.APort)
		devB, portB := n.devicePort(l.B, l.BPort)
		portA.SetPeer(devB, l.BPort)
		portB.SetPeer(devA, l.APort)
	}
	return n, nil
}

// devicePort resolves the Device and its EgressPort for a (node, port).
func (n *Network) devicePort(node topology.NodeID, port int) (netdev.Device, *netdev.EgressPort) {
	if h, ok := n.hostByNode[node]; ok {
		if port != 0 {
			panic(fmt.Sprintf("sim: host %d port %d, hosts have one port", node, port))
		}
		return h, h.Port()
	}
	sw := n.switchByNode[node]
	return sw, sw.Port(port)
}

// linkPorts resolves both directional egress ports of the a↔b link.
func (n *Network) linkPorts(a, b topology.NodeID) (*netdev.EgressPort, *netdev.EgressPort, error) {
	for i := range n.Topo.Links {
		l := &n.Topo.Links[i]
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			_, pa := n.devicePort(l.A, l.APort)
			_, pb := n.devicePort(l.B, l.BPort)
			return pa, pb, nil
		}
	}
	return nil, nil, fmt.Errorf("sim: no link between nodes %d and %d", a, b)
}

// SetLinkUp raises or cuts both directions of the a↔b link (fault
// injection). While down, queued traffic is held and switches ECMP-route
// new traffic over surviving paths; see netdev.EgressPort.SetLinkUp.
func (n *Network) SetLinkUp(a, b topology.NodeID, up bool) error {
	pa, pb, err := n.linkPorts(a, b)
	if err != nil {
		return err
	}
	pa.SetLinkUp(up)
	pb.SetLinkUp(up)
	return nil
}

// Host returns the RNIC for a host node.
func (n *Network) Host(node topology.NodeID) *rnic.Host { return n.hostByNode[node] }

// Switch returns the device for a switch node.
func (n *Network) Switch(node topology.NodeID) *netdev.Switch { return n.switchByNode[node] }

// RNICParams exposes the live, shared RNIC parameter struct.
func (n *Network) RNICParams() *dcqcn.Params { return n.rnicParams }

// SwitchParams exposes the live parameter struct of one switch.
func (n *Network) SwitchParams(node topology.NodeID) *dcqcn.Params { return n.switchParams[node] }

// ApplyParams dispatches a homogeneous DCQCN setting to every RNIC and
// switch — Paraleon's "dispatch P_m to RNICs and switches" step. Host
// overrides a cluster dispatch installed are lifted so every such host
// follows p again; overrides installed through SetHostParams (DCQCN+'s
// per-endpoint settings) stay. Every host catches its QPs up before the
// shared vector changes under them.
func (n *Network) ApplyParams(p dcqcn.Params) {
	n.Applied = append(n.Applied, ApplyRecord{At: n.Eng.Now(), Params: p})
	for _, h := range n.Hosts {
		ov := h.Override()
		if ov == n.clusterParams[h.NodeID()] {
			ov = nil
		}
		h.SetParams(ov)
	}
	clear(n.clusterParams)
	*n.rnicParams = p
	for _, sp := range n.switchParams {
		*sp = p
	}
}

// ApplyParamsToCluster dispatches a DCQCN setting only to the given ToR
// switches and the hosts under them — the §V multi-cluster deployment
// where each cluster's controller maintains heterogeneous parameters.
// Host-side settings install as per-host overrides so other clusters'
// hosts are untouched.
func (n *Network) ApplyParamsToCluster(tors []topology.NodeID, p dcqcn.Params) {
	n.Applied = append(n.Applied, ApplyRecord{At: n.Eng.Now(), ToRs: append([]topology.NodeID{}, tors...), Params: p})
	inScope := make(map[topology.NodeID]bool, len(tors))
	for _, tor := range tors {
		inScope[tor] = true
		if sp := n.switchParams[tor]; sp != nil {
			*sp = p
		}
	}
	for _, hn := range n.Topo.Hosts() {
		if !inScope[n.Topo.ToROf(hn)] {
			continue
		}
		h := n.hostByNode[hn]
		if hp := h.Override(); hp != nil {
			h.SetParams(hp)
			*hp = p
		} else {
			cp := p
			h.SetParams(&cp)
			n.clusterParams[hn] = &cp
		}
	}
}

// SetHostParams installs (or, with nil, clears) a per-host RNIC parameter
// override. The host's QPs catch their alpha decay up to now on the
// parameters they ran on, then read p from their next timer, CNP or alpha
// read on.
func (n *Network) SetHostParams(node topology.NodeID, p *dcqcn.Params) {
	n.hostByNode[node].SetParams(p)
}

// ApplySwitchECN retargets only the ECN thresholds of one switch (what an
// ACC agent actuates). Addressing a node that is not a switch of this
// network is a programming error and panics with the offending node
// rather than a bare nil dereference.
func (n *Network) ApplySwitchECN(node topology.NodeID, kmin, kmax int64, pmax float64) {
	sp := n.switchParams[node]
	if sp == nil {
		panic(fmt.Sprintf("sim: ApplySwitchECN: node %d is not a switch in this network", node))
	}
	sp.KminBytes, sp.KmaxBytes, sp.PMax = kmin, kmax, pmax
}

// StartFlow begins a size-byte flow src→dst now and returns its ID.
func (n *Network) StartFlow(src, dst topology.NodeID, size int64) uint64 {
	if src == dst {
		panic("sim: flow to self")
	}
	id := n.nextFlowID
	n.nextFlowID++
	n.hostByNode[dst].ExpectFlow(id, src, size, n.Eng.Now())
	n.hostByNode[src].StartFlow(id, dst, size)
	return id
}

// StartFlowAt schedules a flow to begin at absolute virtual time at.
func (n *Network) StartFlowAt(at eventsim.Time, src, dst topology.NodeID, size int64) {
	n.Eng.Schedule(at, func() { n.StartFlow(src, dst, size) })
}

// flowCompleted records a finished flow and fires the completion hooks,
// inline with the arrival of the flow's last byte at its receiver.
func (n *Network) flowCompleted(id uint64, src, dst topology.NodeID, size int64, start, end eventsim.Time) {
	rec := FlowRecord{ID: id, Src: src, Dst: dst, Size: size, Start: start, End: end}
	n.Completed = append(n.Completed, rec)
	for _, fn := range n.hooks {
		fn(rec)
	}
}

// IncompleteFlows counts flows that were started and have no completion
// record yet — the receivers' view: a sender is done once its last packet
// is handed to the uplink, which can be long before that packet leaves a
// PFC-paused fabric. Probe packets do not count, so it reaches zero while
// probing keeps PacketsInNetwork above it.
func (n *Network) IncompleteFlows() int { return int(n.nextFlowID) - len(n.Completed) }

// Run advances the simulation to absolute virtual time deadline. Between
// Run calls the engine is quiescent at the deadline and the caller may
// freely read or mutate any device.
func (n *Network) Run(deadline eventsim.Time) {
	start := time.Now()
	n.Eng.RunUntil(deadline)
	n.runWall += time.Since(start)
}

// EngineStats reports the event engine's own accounting and the host time
// Run has spent driving it.
func (n *Network) EngineStats() (st eventsim.Stats, wall time.Duration) {
	return n.Eng.Stats(), n.runWall
}

// Pending reports the events currently scheduled.
func (n *Network) Pending() int { return n.Eng.Pending() }

// RunUntilIdle runs until no work remains or maxTime is reached, returning
// the stop time. Useful for draining a fixed workload.
func (n *Network) RunUntilIdle(maxTime eventsim.Time) eventsim.Time {
	step := 100 * eventsim.Microsecond
	for n.Eng.Now() < maxTime && n.Pending() > 0 {
		next := n.Eng.Now() + step
		if next > maxTime {
			next = maxTime
		}
		n.Run(next)
	}
	return n.Eng.Now()
}

// IdealFCT is the uncontended completion time of a flow: serialization of
// every packet at the bottleneck host link plus the one-way base path
// delay. FCT slowdowns (Fig 7) normalize against this.
func (n *Network) IdealFCT(src, dst topology.NodeID, size int64) eventsim.Time {
	packets := (size + netdev.DefaultMTU - 1) / netdev.DefaultMTU
	wire := size + packets*netdev.HeaderBytes
	ser := eventsim.Time(float64(wire*8) / n.cfg.Clos.HostLinkBps * 1e9)
	return ser + n.Topo.BasePathDelay(src, dst)
}

// PacketPool exposes the network-wide packet free-list (pool hit-rate
// accounting in overhead reports and tests).
func (n *Network) PacketPool() *netdev.PacketPool { return n.pool }

// PacketsAllocated reports how many packets the pool allocated rather than
// recycled, and their bytes: the packet heap the run grew to.
func (n *Network) PacketsAllocated() (packets, bytes int64) {
	return n.pool.Fresh, n.pool.Fresh * int64(unsafe.Sizeof(netdev.Packet{}))
}

// PortTotals sums, over every egress port of the fabric, the packets
// transmitted and the transmissions that needed a serialization timer
// (netdev.PortStats.TxTimers). Events per transmission is the engine's
// Processed over the first; an uncongested hop costs one event, not two.
func (n *Network) PortTotals() (transmissions, txTimers int64) {
	add := func(st *netdev.PortStats) {
		transmissions += st.TxPackets
		txTimers += st.TxTimers
	}
	for _, sw := range n.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			add(&sw.Port(i).Stats)
		}
	}
	for _, h := range n.Hosts {
		add(&h.Port().Stats)
	}
	return transmissions, txTimers
}

// PacketsInNetwork counts packets currently alive in the fabric: queued
// at a port or on a wire (serializing or propagating). Every such packet
// came from a pool Get and has not yet been Put.
func (n *Network) PacketsInNetwork() int {
	total := 0
	for _, sw := range n.Switches {
		total += sw.InFlightPackets()
	}
	for _, h := range n.Hosts {
		total += h.Port().InFlightPackets()
	}
	return total
}

// CheckPoolInvariant verifies the packet-pool leak invariant: every
// packet the pool handed out (Fresh + Recycled) is either back in it
// (Puts) or still visible somewhere in the fabric. A violation means some
// path sank a packet without returning it — the slab would grow without
// bound over a long chaos run. On a drained fabric — no packet anywhere —
// it also requires every switch to account zero buffered bytes, in total
// and per ingress: a release applied twice or never shows up here. Call it
// while the network is quiescent (between Run calls).
func (n *Network) CheckPoolInvariant() error {
	fresh, recycled, puts := n.pool.Fresh, n.pool.Recycled, n.pool.Puts
	inFlight := int64(n.PacketsInNetwork())
	if fresh+recycled != puts+inFlight {
		return fmt.Errorf("sim: packet pool leak: Fresh(%d)+Recycled(%d) = %d gets, but Puts(%d)+inFlight(%d) = %d",
			fresh, recycled, fresh+recycled, puts, inFlight, puts+inFlight)
	}
	if inFlight != 0 {
		return nil
	}
	for _, sw := range n.Switches {
		if used := sw.BufferUsed(); used != 0 {
			return fmt.Errorf("sim: switch %d accounts %d buffered bytes on a drained fabric", sw.NodeID(), used)
		}
		for i := 0; i < sw.NumPorts(); i++ {
			if b := sw.IngressBytes(i); b != 0 {
				return fmt.Errorf("sim: switch %d ingress %d accounts %d bytes on a drained fabric", sw.NodeID(), i, b)
			}
		}
	}
	return nil
}

// HostLinkBps reports the configured host link rate.
func (n *Network) HostLinkBps() float64 { return n.cfg.Clos.HostLinkBps }

// Config returns the network's build configuration.
func (n *Network) Config() Config { return n.cfg }
