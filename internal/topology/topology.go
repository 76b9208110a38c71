// Package topology describes the physical fabric a simulation runs on:
// nodes (hosts and switches), point-to-point links with rate and
// propagation delay, and ECMP routing tables computed over shortest paths.
//
// The package is pure data — it knows nothing about queues, packets, or
// congestion control. internal/netdev and internal/sim instantiate device
// models from these descriptions.
package topology

import (
	"encoding/binary"
	"fmt"

	"repro/internal/eventsim"
)

// NodeID identifies a node within one Topology.
type NodeID int32

// Kind distinguishes traffic endpoints from forwarding devices.
type Kind int

const (
	// Host is a server with an RNIC; the source and sink of RDMA flows.
	Host Kind = iota
	// ToRSwitch is a top-of-rack switch: the first hop for hosts and the
	// measurement point where Paraleon's sketches run.
	ToRSwitch
	// LeafSwitch is a second-tier (spine) switch interconnecting ToRs.
	LeafSwitch
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case ToRSwitch:
		return "tor"
	case LeafSwitch:
		return "leaf"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one device in the fabric.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// Ports lists this node's attached links; Ports[i] is the link on
	// local port i.
	Ports []LinkID
}

// LinkID identifies a link within one Topology.
type LinkID int

// Link is a full-duplex point-to-point cable between two node ports.
type Link struct {
	ID LinkID
	// A and B are the endpoints; APort/BPort are the port indices on each.
	A, B         NodeID
	APort, BPort int
	// RateBps is the line rate in bits per second (both directions).
	RateBps float64
	// PropDelay is the one-way propagation delay.
	PropDelay eventsim.Time
}

// Peer reports the node on the other end of the link from n, along with
// the remote port index.
func (l *Link) Peer(n NodeID) (NodeID, int) {
	if n == l.A {
		return l.B, l.BPort
	}
	if n == l.B {
		return l.A, l.APort
	}
	panic(fmt.Sprintf("topology: node %d not on link %d", n, l.ID))
}

// Topology is an immutable fabric description plus derived routing state.
type Topology struct {
	Nodes []Node
	Links []Link

	// Routing state is kept per attachment switch, not per node. A stub is
	// a degree-1 node whose neighbour is not itself degree-1 (every host
	// of a CLOS); it never makes a routing decision, and the route to or
	// from it is the route to or from its neighbour plus one link. Every
	// other node is core. attach[node] places a node in that split; the
	// three tables below are flat [src*C+dst] arenas over the C core
	// nodes only, so they stay cache-sized where an all-pairs table over
	// thousands of hosts runs to hundreds of megabytes.
	attach []attachment
	cores  int // C
	// nhIndex holds 1+index into nhSets (0 = no route / src == dst); the
	// port sets themselves are interned, since a node has only a handful
	// of distinct ECMP groups no matter how many destinations it routes.
	nhIndex []uint32
	// nhSets are the interned next-hop port lists: the local ports at src
	// on a shortest path toward dst, ascending. ECMP picks among them by
	// flow hash; callers must not mutate (sets are shared across pairs).
	nhSets [][]int
	// portSeq is 0, 1, 2, … up to the widest node; portSeq[p:p+1] is the
	// one-port set {p} of a route that ends at (or starts from) a stub.
	portSeq []int
	// hopCount[src*C+dst] is the number of links on a shortest path, -1
	// if unreachable.
	hopCount []int32
	// pathDelay[src*C+dst] is the summed propagation delay along a
	// shortest path (Swift-style "base path delay" numerator, before
	// adding serialization).
	pathDelay []eventsim.Time

	hosts []NodeID
}

// attachment locates a node in the core tables.
type attachment struct {
	// core is the node's own core index, or its neighbour's for a stub.
	core int32
	// port is the neighbour's local port toward a stub; -1 on a core node.
	port int32
	// delay is a stub's link propagation delay; 0 on a core node.
	delay eventsim.Time
}

// AddNode appends a node of the given kind and returns its ID.
func (t *Topology) AddNode(kind Kind, name string) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name})
	if kind == Host {
		t.hosts = append(t.hosts, id)
	}
	return id
}

// AddLink connects a and b with a full-duplex link and returns its ID.
// Port numbers are assigned in call order on each node.
func (t *Topology) AddLink(a, b NodeID, rateBps float64, prop eventsim.Time) LinkID {
	if rateBps <= 0 {
		panic("topology: non-positive link rate")
	}
	id := LinkID(len(t.Links))
	na, nb := &t.Nodes[a], &t.Nodes[b]
	l := Link{
		ID: id, A: a, B: b,
		APort: len(na.Ports), BPort: len(nb.Ports),
		RateBps: rateBps, PropDelay: prop,
	}
	t.Links = append(t.Links, l)
	na.Ports = append(na.Ports, id)
	nb.Ports = append(nb.Ports, id)
	t.attach = nil // invalidate routing
	return id
}

// Hosts returns the IDs of all host nodes, in creation order.
func (t *Topology) Hosts() []NodeID { return t.hosts }

// SwitchIDs returns the IDs of all switch nodes (ToR and leaf).
func (t *Topology) SwitchIDs() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Kind != Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// ToRs returns the IDs of all ToR switches.
func (t *Topology) ToRs() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Kind == ToRSwitch {
			out = append(out, n.ID)
		}
	}
	return out
}

// ComputeRoutes (re)builds the shortest-path ECMP tables. It must be
// called after the last AddLink and before NextHops or BasePathDelay.
func (t *Topology) ComputeRoutes() {
	// Split stubs from core by degree alone, so hand-wired topologies
	// need no Kind discipline. Two degree-1 nodes cabled back to back are
	// both core: each is the other's whole network.
	t.attach = make([]attachment, len(t.Nodes))
	var core []NodeID
	width := 0
	for i := range t.Nodes {
		ports := t.Nodes[i].Ports
		if len(ports) > width {
			width = len(ports)
		}
		if len(ports) == 1 {
			l := &t.Links[ports[0]]
			if peer, peerPort := l.Peer(NodeID(i)); len(t.Nodes[peer].Ports) != 1 {
				// core holds the neighbour's node ID until every core
				// index is known; the loop below resolves it.
				t.attach[i] = attachment{core: int32(peer), port: int32(peerPort), delay: l.PropDelay}
				continue
			}
		}
		t.attach[i] = attachment{core: int32(len(core)), port: -1}
		core = append(core, NodeID(i))
	}
	for i := range t.attach {
		if a := &t.attach[i]; a.port >= 0 {
			a.core = t.attach[a.core].core
		}
	}
	t.portSeq = make([]int, width)
	for i := range t.portSeq {
		t.portSeq[i] = i
	}

	c := len(core)
	t.cores = c
	t.nhIndex = make([]uint32, c*c)
	t.hopCount = make([]int32, c*c)
	t.pathDelay = make([]eventsim.Time, c*c)
	t.nhSets = nil

	// setIDs interns the port lists by content: the lookup key is the
	// varint-encoded list, built in a reused buffer (map lookups with a
	// string(bytes) key don't allocate; only the rare insert does).
	setIDs := map[string]uint32{}
	var keyBuf []byte
	var ports []int

	// BFS from every core destination over the core graph; a stub is a
	// leaf of any BFS tree, so leaving stubs out changes neither the
	// distance nor the discovery order of the nodes that remain. Hop
	// count is the routing metric (links are homogeneous within a tier,
	// and DC fabrics route on hops). Propagation delay accumulates along
	// the BFS tree; with symmetric CLOS wiring all shortest paths have
	// equal delay.
	dist := make([]int32, c)
	delay := make([]eventsim.Time, c)
	queue := make([]int32, 0, c)
	for dst := 0; dst < c; dst++ {
		for i := range dist {
			dist[i] = -1
			delay[i] = 0
		}
		dist[dst] = 0
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, lid := range t.Nodes[core[cur]].Ports {
				l := &t.Links[lid]
				peer, _ := l.Peer(core[cur])
				if pa := t.attach[peer]; pa.port < 0 && dist[pa.core] == -1 {
					dist[pa.core] = dist[cur] + 1
					delay[pa.core] = delay[cur] + l.PropDelay
					queue = append(queue, pa.core)
				}
			}
		}
		for src := 0; src < c; src++ {
			idx := src*c + dst
			t.hopCount[idx] = dist[src]
			t.pathDelay[idx] = delay[src]
			if dist[src] <= 0 {
				continue
			}
			// Ports iterate in ascending index order, so the ECMP set
			// comes out sorted without an explicit sort.
			ports = ports[:0]
			for portIdx, lid := range t.Nodes[core[src]].Ports {
				peer, _ := t.Links[lid].Peer(core[src])
				if pa := t.attach[peer]; pa.port < 0 && dist[pa.core] == dist[src]-1 {
					ports = append(ports, portIdx)
				}
			}
			keyBuf = keyBuf[:0]
			for _, p := range ports {
				keyBuf = binary.AppendUvarint(keyBuf, uint64(p))
			}
			id, ok := setIDs[string(keyBuf)]
			if !ok {
				t.nhSets = append(t.nhSets, append([]int(nil), ports...))
				id = uint32(len(t.nhSets))
				setIDs[string(keyBuf)] = id
			}
			t.nhIndex[idx] = id
		}
	}
}

// NextHops returns the ECMP port set at src toward dst. Empty means
// unreachable (or src == dst). The slice is shared routing state — do
// not mutate.
func (t *Topology) NextHops(src, dst NodeID) []int {
	t.mustRouted()
	if src == dst {
		return nil
	}
	s, d := t.attach[src], t.attach[dst]
	if s.port >= 0 {
		// A stub's only port leads everywhere it can reach at all.
		if t.hopCount[t.coreIdx(s, d)] < 0 {
			return nil
		}
		return t.portSeq[:1]
	}
	if d.port >= 0 && d.core == s.core {
		return t.portSeq[d.port : d.port+1 : d.port+1]
	}
	id := t.nhIndex[t.coreIdx(s, d)]
	if id == 0 {
		return nil
	}
	return t.nhSets[id-1]
}

// BasePathDelay returns the summed one-way propagation delay on a shortest
// path from src to dst. This is the n·d term of Swift's base path delay
// used to normalize RTT in the Paraleon utility function.
func (t *Topology) BasePathDelay(src, dst NodeID) eventsim.Time {
	t.mustRouted()
	s, d := t.attach[src], t.attach[dst]
	idx := t.coreIdx(s, d)
	if src == dst || t.hopCount[idx] < 0 {
		return 0
	}
	return s.delay + t.pathDelay[idx] + d.delay
}

// coreIdx is the core-table slot for the route between two attachments.
func (t *Topology) coreIdx(s, d attachment) int {
	return int(s.core)*t.cores + int(d.core)
}

func (t *Topology) mustRouted() {
	if t.attach == nil {
		panic("topology: ComputeRoutes not called (or topology modified since)")
	}
}

// LinkAt returns the link attached to the given local port of node n.
func (t *Topology) LinkAt(n NodeID, port int) *Link {
	return &t.Links[t.Nodes[n].Ports[port]]
}

// ClosConfig parameterizes a two-tier CLOS fabric: hostsPerToR hosts under
// each of NumToR ToR switches, with every ToR wired to every one of
// NumLeaf leaf switches.
type ClosConfig struct {
	NumToR      int
	NumLeaf     int
	HostsPerToR int
	// HostLinkBps and FabricLinkBps are the line rates of host↔ToR and
	// ToR↔leaf links. With equal rates the over-subscription ratio is
	// HostsPerToR : NumLeaf.
	HostLinkBps   float64
	FabricLinkBps float64
	// PropDelay is the one-way propagation delay of every link.
	PropDelay eventsim.Time
}

// Validate reports whether the configuration is structurally sound.
func (c ClosConfig) Validate() error {
	switch {
	case c.NumToR <= 0:
		return fmt.Errorf("clos: NumToR = %d, need > 0", c.NumToR)
	case c.NumLeaf < 0:
		return fmt.Errorf("clos: NumLeaf = %d, need >= 0", c.NumLeaf)
	case c.NumLeaf == 0 && c.NumToR > 1:
		return fmt.Errorf("clos: %d ToRs but no leaves to connect them", c.NumToR)
	case c.HostsPerToR <= 0:
		return fmt.Errorf("clos: HostsPerToR = %d, need > 0", c.HostsPerToR)
	case c.HostLinkBps <= 0 || (c.FabricLinkBps <= 0 && c.NumLeaf > 0):
		return fmt.Errorf("clos: non-positive link rate")
	case c.PropDelay < 0:
		return fmt.Errorf("clos: negative propagation delay")
	}
	return nil
}

// PaperClosConfig is the NS-3 topology from §IV-B: 8 ToRs, 4 leaves,
// 128 servers, all links 100 Gbps with 5 µs propagation delay (4:1
// over-subscribed).
func PaperClosConfig() ClosConfig {
	return ClosConfig{
		NumToR:        8,
		NumLeaf:       4,
		HostsPerToR:   16,
		HostLinkBps:   100e9,
		FabricLinkBps: 100e9,
		PropDelay:     5 * eventsim.Microsecond,
	}
}

// NewClos builds a two-tier CLOS per cfg, computes routes, and returns the
// topology. Host i lives under ToR i/HostsPerToR.
func NewClos(cfg ClosConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{}
	tors := make([]NodeID, cfg.NumToR)
	for i := range tors {
		tors[i] = t.AddNode(ToRSwitch, fmt.Sprintf("tor%d", i))
	}
	leaves := make([]NodeID, cfg.NumLeaf)
	for i := range leaves {
		leaves[i] = t.AddNode(LeafSwitch, fmt.Sprintf("leaf%d", i))
	}
	for ti, tor := range tors {
		for hi := 0; hi < cfg.HostsPerToR; hi++ {
			h := t.AddNode(Host, fmt.Sprintf("h%d", ti*cfg.HostsPerToR+hi))
			t.AddLink(h, tor, cfg.HostLinkBps, cfg.PropDelay)
		}
		for _, leaf := range leaves {
			t.AddLink(tor, leaf, cfg.FabricLinkBps, cfg.PropDelay)
		}
	}
	t.ComputeRoutes()
	return t, nil
}

// ToROf returns the ToR switch a host hangs off, or -1 if n is not a host
// or has no switch neighbor.
func (t *Topology) ToROf(n NodeID) NodeID {
	if t.Nodes[n].Kind != Host {
		return -1
	}
	for _, lid := range t.Nodes[n].Ports {
		peer, _ := t.Links[lid].Peer(n)
		if t.Nodes[peer].Kind == ToRSwitch {
			return peer
		}
	}
	return -1
}
