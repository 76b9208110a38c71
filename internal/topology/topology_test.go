package topology

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/eventsim"
)

func smallClos(t *testing.T) *Topology {
	t.Helper()
	topo, err := NewClos(ClosConfig{
		NumToR: 4, NumLeaf: 2, HostsPerToR: 4,
		HostLinkBps: 100e9, FabricLinkBps: 100e9,
		PropDelay: 5 * eventsim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestClosNodeAndLinkCounts(t *testing.T) {
	topo := smallClos(t)
	wantNodes := 4 + 2 + 16 // tors + leaves + hosts
	if len(topo.Nodes) != wantNodes {
		t.Errorf("nodes = %d, want %d", len(topo.Nodes), wantNodes)
	}
	wantLinks := 16 + 4*2 // host links + fabric links
	if len(topo.Links) != wantLinks {
		t.Errorf("links = %d, want %d", len(topo.Links), wantLinks)
	}
	if len(topo.Hosts()) != 16 {
		t.Errorf("hosts = %d, want 16", len(topo.Hosts()))
	}
	if got := len(topo.ToRs()); got != 4 {
		t.Errorf("tors = %d, want 4", got)
	}
	if got := len(topo.SwitchIDs()); got != 6 {
		t.Errorf("switches = %d, want 6", got)
	}
}

func TestPaperClosConfig(t *testing.T) {
	cfg := PaperClosConfig()
	// 4:1 over-subscribed: a ToR's host links carry four times its uplinks.
	if down, up := float64(cfg.HostsPerToR)*cfg.HostLinkBps, float64(cfg.NumLeaf)*cfg.FabricLinkBps; down != 4*up {
		t.Errorf("paper ToR down:up = %v:%v, want 4:1", down, up)
	}
	topo, err := NewClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Hosts()) != 128 {
		t.Errorf("paper hosts = %d, want 128", len(topo.Hosts()))
	}
	if got := len(topo.SwitchIDs()); got != 12 {
		t.Errorf("paper switches = %d, want 12", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []ClosConfig{
		{NumToR: 0, NumLeaf: 1, HostsPerToR: 1, HostLinkBps: 1, FabricLinkBps: 1},
		{NumToR: 2, NumLeaf: 0, HostsPerToR: 1, HostLinkBps: 1, FabricLinkBps: 1},
		{NumToR: 1, NumLeaf: 1, HostsPerToR: 0, HostLinkBps: 1, FabricLinkBps: 1},
		{NumToR: 1, NumLeaf: 1, HostsPerToR: 1, HostLinkBps: 0, FabricLinkBps: 1},
		{NumToR: 1, NumLeaf: 1, HostsPerToR: 1, HostLinkBps: 1, FabricLinkBps: 1, PropDelay: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated, want error", i)
		}
	}
	single := ClosConfig{NumToR: 1, NumLeaf: 0, HostsPerToR: 4, HostLinkBps: 1e9}
	if err := single.Validate(); err != nil {
		t.Errorf("single-rack config rejected: %v", err)
	}
}

func TestIntraRackRouting(t *testing.T) {
	topo := smallClos(t)
	hosts := topo.Hosts()
	h0, h1 := hosts[0], hosts[1] // same rack
	if hops := topo.HopCount(h0, h1); hops != 2 {
		t.Errorf("intra-rack hop count = %d, want 2", hops)
	}
	tor := topo.ToROf(h0)
	nh := topo.NextHops(h0, h1)
	if len(nh) != 1 {
		t.Fatalf("host next hops = %v, want exactly 1", nh)
	}
	l := topo.LinkAt(h0, nh[0])
	peer, _ := l.Peer(h0)
	if peer != tor {
		t.Errorf("host next hop leads to %v, want its ToR %v", peer, tor)
	}
	// ToR must deliver directly to the destination host.
	nhTor := topo.NextHops(tor, h1)
	if len(nhTor) != 1 {
		t.Fatalf("tor next hops to local host = %v, want 1", nhTor)
	}
	lt := topo.LinkAt(tor, nhTor[0])
	if p, _ := lt.Peer(tor); p != h1 {
		t.Errorf("tor next hop leads to %v, want host %v", p, h1)
	}
}

func TestInterRackECMP(t *testing.T) {
	topo := smallClos(t)
	hosts := topo.Hosts()
	h0, h5 := hosts[0], hosts[5] // different racks (4 hosts per rack)
	if hops := topo.HopCount(h0, h5); hops != 4 {
		t.Errorf("inter-rack hop count = %d, want 4 (host-tor-leaf-tor-host)", hops)
	}
	tor := topo.ToROf(h0)
	nh := topo.NextHops(tor, h5)
	if len(nh) != 2 {
		t.Errorf("tor ECMP set = %v, want 2 uplinks (one per leaf)", nh)
	}
	for _, port := range nh {
		l := topo.LinkAt(tor, port)
		peer, _ := l.Peer(tor)
		if topo.Nodes[peer].Kind != LeafSwitch {
			t.Errorf("ECMP port %d leads to %v, want a leaf", port, topo.Nodes[peer].Kind)
		}
	}
}

func TestBasePathDelay(t *testing.T) {
	topo := smallClos(t)
	hosts := topo.Hosts()
	prop := 5 * eventsim.Microsecond
	if d := topo.BasePathDelay(hosts[0], hosts[1]); d != 2*prop {
		t.Errorf("intra-rack base delay = %v, want %v", d, 2*prop)
	}
	if d := topo.BasePathDelay(hosts[0], hosts[5]); d != 4*prop {
		t.Errorf("inter-rack base delay = %v, want %v", d, 4*prop)
	}
	if d := topo.BasePathDelay(hosts[0], hosts[0]); d != 0 {
		t.Errorf("self base delay = %v, want 0", d)
	}
}

func TestToROf(t *testing.T) {
	topo := smallClos(t)
	hosts := topo.Hosts()
	tors := topo.ToRs()
	for i, h := range hosts {
		want := tors[i/4]
		if got := topo.ToROf(h); got != want {
			t.Errorf("ToROf(host %d) = %v, want %v", i, got, want)
		}
	}
	if got := topo.ToROf(tors[0]); got != -1 {
		t.Errorf("ToROf(switch) = %v, want -1", got)
	}
}

func TestLinkPeer(t *testing.T) {
	topo := smallClos(t)
	l := &topo.Links[0]
	pa, _ := l.Peer(l.A)
	pb, _ := l.Peer(l.B)
	if pa != l.B || pb != l.A {
		t.Errorf("Peer mismatch: %v/%v for link %v-%v", pa, pb, l.A, l.B)
	}
	defer func() {
		if recover() == nil {
			t.Error("Peer with foreign node did not panic")
		}
	}()
	// A node certainly not on link 0 (the last leaf).
	l.Peer(topo.SwitchIDs()[5])
}

func TestRoutesInvalidatedByAddLink(t *testing.T) {
	topo := smallClos(t)
	topo.AddNode(Host, "extra")
	topo.AddLink(topo.Hosts()[len(topo.Hosts())-1], topo.ToRs()[0], 1e9, 0)
	defer func() {
		if recover() == nil {
			t.Error("routing query after topology change did not panic")
		}
	}()
	topo.NextHops(0, 1)
}

// Property: in any valid CLOS, every host pair is mutually reachable with
// symmetric hop counts, and ECMP sets at a ToR toward a remote rack have
// exactly NumLeaf entries.
func TestQuickClosReachability(t *testing.T) {
	f := func(nt, nl, hp uint8) bool {
		cfg := ClosConfig{
			NumToR:      int(nt%4) + 1,
			NumLeaf:     int(nl%3) + 1,
			HostsPerToR: int(hp%4) + 1,
			HostLinkBps: 100e9, FabricLinkBps: 100e9,
			PropDelay: eventsim.Microsecond,
		}
		topo, err := NewClos(cfg)
		if err != nil {
			return false
		}
		hosts := topo.Hosts()
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				if topo.HopCount(a, b) <= 0 {
					return false
				}
				if topo.HopCount(a, b) != topo.HopCount(b, a) {
					return false
				}
				if len(topo.NextHops(a, b)) == 0 {
					return false
				}
			}
		}
		if cfg.NumToR > 1 {
			tors := topo.ToRs()
			// Last host is always in the last rack.
			remote := hosts[len(hosts)-1]
			if got := len(topo.NextHops(tors[0], remote)); got != cfg.NumLeaf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// refRoutes is the all-pairs builder ComputeRoutes replaced, kept as the
// oracle: one BFS per destination over every node, stubs included, into
// [src*n+dst] tables.
type refRoutes struct {
	n     int
	next  [][]int
	hops  []int
	delay []eventsim.Time
}

func newRefRoutes(t *Topology) *refRoutes {
	n := len(t.Nodes)
	r := &refRoutes{n: n, next: make([][]int, n*n), hops: make([]int, n*n), delay: make([]eventsim.Time, n*n)}
	dist := make([]int, n)
	delay := make([]eventsim.Time, n)
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i], delay[i] = -1, 0
		}
		dist[dst] = 0
		queue := []NodeID{NodeID(dst)}
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, lid := range t.Nodes[cur].Ports {
				l := &t.Links[lid]
				if peer, _ := l.Peer(cur); dist[peer] == -1 {
					dist[peer] = dist[cur] + 1
					delay[peer] = delay[cur] + l.PropDelay
					queue = append(queue, peer)
				}
			}
		}
		for src := 0; src < n; src++ {
			idx := src*n + dst
			r.hops[idx], r.delay[idx] = dist[src], delay[src]
			if dist[src] <= 0 {
				continue
			}
			for port, lid := range t.Nodes[src].Ports {
				if peer, _ := t.Links[lid].Peer(NodeID(src)); dist[peer] == dist[src]-1 {
					r.next[idx] = append(r.next[idx], port)
				}
			}
		}
	}
	return r
}

// checkAgainstRef asserts the three routing queries agree with the
// all-pairs oracle on every ordered node pair.
func checkAgainstRef(t *testing.T, topo *Topology) {
	t.Helper()
	ref := newRefRoutes(topo)
	for src := 0; src < ref.n; src++ {
		for dst := 0; dst < ref.n; dst++ {
			idx := src*ref.n + dst
			s, d := NodeID(src), NodeID(dst)
			if got := topo.NextHops(s, d); !slices.Equal(got, ref.next[idx]) {
				t.Fatalf("NextHops(%d,%d) = %v, oracle %v", src, dst, got, ref.next[idx])
			}
			if got := topo.HopCount(s, d); got != ref.hops[idx] {
				t.Fatalf("HopCount(%d,%d) = %d, oracle %d", src, dst, got, ref.hops[idx])
			}
			if got := topo.BasePathDelay(s, d); got != ref.delay[idx] {
				t.Fatalf("BasePathDelay(%d,%d) = %v, oracle %v", src, dst, got, ref.delay[idx])
			}
		}
	}
}

// wire builds a topology of n nodes (all Kind Host: degree, not Kind,
// must decide who routes) from (a, b, delay-in-µs) triples.
func wire(n int, links ...[3]int) *Topology {
	topo := &Topology{}
	for i := 0; i < n; i++ {
		topo.AddNode(Host, fmt.Sprintf("n%d", i))
	}
	for _, l := range links {
		topo.AddLink(NodeID(l[0]), NodeID(l[1]), 100e9, eventsim.Time(l[2])*eventsim.Microsecond)
	}
	topo.ComputeRoutes()
	return topo
}

func TestRoutesMatchAllPairsOracle(t *testing.T) {
	clos := func(cfg ClosConfig) *Topology {
		topo, err := NewClos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	wide := PaperClosConfig()
	wide.NumToR, wide.NumLeaf, wide.HostsPerToR = 6, 16, 3
	cases := map[string]*Topology{
		"paper clos":     clos(PaperClosConfig()),
		"16-leaf clos":   clos(wide),
		"one tor":        clos(ClosConfig{NumToR: 1, HostsPerToR: 2, HostLinkBps: 1e9, PropDelay: eventsim.Microsecond}),
		"back to back":   wire(2, [3]int{0, 1, 3}),
		"isolated node":  wire(1),
		"empty":          wire(0),
		"two components": wire(7, [3]int{0, 1, 1}, [3]int{1, 2, 2}, [3]int{3, 4, 4}, [3]int{4, 5, 1}, [3]int{5, 3, 2}),
		"host chain":     wire(5, [3]int{0, 1, 1}, [3]int{1, 2, 2}, [3]int{2, 3, 3}, [3]int{3, 4, 4}),
		"parallel links": wire(3, [3]int{0, 1, 1}, [3]int{0, 1, 5}, [3]int{1, 2, 2}),
	}
	for name, topo := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstRef(t, topo) })
	}

	// Random graphs with unequal link delays: where shortest paths differ
	// in delay, the one the oracle's BFS tree picks is the one reported.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(14)
		var links [][3]int
		for l := rng.Intn(2 * n); l > 0; l-- {
			links = append(links, [3]int{rng.Intn(n), rng.Intn(n), 1 + rng.Intn(9)})
		}
		topo := wire(n, links...)
		t.Run(fmt.Sprintf("random %d", i), func(t *testing.T) { checkAgainstRef(t, topo) })
	}
}

// TestLargeClosRetainsLittle is the scale guard: a 4096-host fabric has
// 80 routing nodes, and what NewClos keeps must be sized by those — a
// table over all 4176² node pairs would hold hundreds of megabytes.
func TestLargeClosRetainsLittle(t *testing.T) {
	cfg := PaperClosConfig()
	cfg.NumToR, cfg.HostsPerToR, cfg.NumLeaf = 64, 64, 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	topo, err := NewClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained >= 16<<20 {
		t.Errorf("4096-host CLOS retains %d MB of heap, want < 16", retained>>20)
	}
	hosts := topo.Hosts()
	if got := len(topo.NextHops(topo.ToROf(hosts[0]), hosts[len(hosts)-1])); got != cfg.NumLeaf {
		t.Errorf("ToR ECMP width to a remote rack = %d, want %d", got, cfg.NumLeaf)
	}
	if got := topo.HopCount(hosts[0], hosts[len(hosts)-1]); got != 4 {
		t.Errorf("inter-rack hop count = %d, want 4", got)
	}
}
