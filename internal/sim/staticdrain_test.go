package sim_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// staticDrainDigest drains a fixed random trace on a tors×leaves×perToR
// CLOS with static parameters and ECN off (thresholds no queue reaches),
// and returns the FNV-1a digest of the flow records sorted by ID.
func staticDrainDigest(t *testing.T, tors, leaves, perToR, flowsPerHost int) uint64 {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: tors, NumLeaf: leaves, HostsPerToR: perToR,
		HostLinkBps: 100e9, FabricLinkBps: 400e9,
		PropDelay: 2 * eventsim.Microsecond,
	}
	cfg.Params.KminBytes = 1 << 40
	cfg.Params.KmaxBytes = 2 << 40
	cfg.Seed = 11
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	hosts := n.Topo.Hosts()
	flows := len(hosts) * flowsPerHost
	for i := 0; i < flows; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		at := eventsim.Time(rng.Int63n(int64(200 * eventsim.Microsecond)))
		n.StartFlowAt(at, src, dst, int64(1000+rng.Intn(300_000)))
	}
	n.RunUntilIdle(eventsim.Second)
	if len(n.Completed) != flows {
		t.Fatalf("%d of %d flows completed", len(n.Completed), flows)
	}
	if err := n.CheckPoolInvariant(); err != nil {
		t.Fatal(err)
	}
	recs := append([]sim.FlowRecord(nil), n.Completed...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintln(h, recordKey(r))
	}
	return h.Sum64()
}

func recordKey(r sim.FlowRecord) string {
	return fmt.Sprintf("id=%d src=%d dst=%d size=%d start=%d end=%d", r.ID, r.Src, r.Dst, r.Size, r.Start, r.End)
}

// TestStaticDrainRecordsMatchParent pins the physics of the data plane:
// with static parameters and no ECN marks nothing consumes randomness, so
// every flow's start and end nanosecond is a function of serialization,
// propagation and queueing alone. The digests were taken at the commit
// before ports stopped arming a serialization timer per packet; a change
// to how events are scheduled must not move them.
func TestStaticDrainRecordsMatchParent(t *testing.T) {
	for _, tc := range []struct {
		tors, leaves, perToR, flowsPerHost int
		want                               uint64
	}{
		{4, 2, 4, 6, 0xfb335dc52763ce7e},
		{16, 4, 8, 4, 0x7b6c4df921c6e380},
	} {
		got := staticDrainDigest(t, tc.tors, tc.leaves, tc.perToR, tc.flowsPerHost)
		if got != tc.want {
			t.Errorf("%d×%d×%d drain digest %#016x, want %#016x", tc.tors, tc.leaves, tc.perToR, got, tc.want)
		}
	}
}

// liveHeap is the heap in use after two collections: the first only moves
// sync.Pool contents to the victim cache, so an earlier test's pooled
// buffers would otherwise still count at the first reading.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestLargeCLOSHeapIsSizedByTheFabric is the scale guard on what a fabric
// costs to hold, on the 4096-host CLOS of clos4096_drain. Before it has
// carried a packet, sim.New retains 6.2 MB. That was 64 MB while each of the
// 10 320 devices and ports owned a math/rand source (4.9 KB apiece), and
// 7.5 MB with 320-byte ports, 304-byte hosts and four per-host maps made
// whether used or not; the bound is 7 MB. Then every host sends 32 KB into
// the next pod, one pod at a time, so every port sees its full wire BDP
// while few packets are alive at once: state that scales with the packets
// alive stays small (8.0 MB live after the drain), state kept per port at its
// own peak does not (34 MB with a per-port delivery slab).
func TestLargeCLOSHeapIsSizedByTheFabric(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: 64, NumLeaf: 16, HostsPerToR: 64,
		HostLinkBps: 100e9, FabricLinkBps: 400e9,
		PropDelay: 2 * eventsim.Microsecond,
	}
	before := liveHeap()
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup := liveHeap() - before
	if setup > 7<<20 {
		t.Errorf("sim.New on the 4096-host CLOS retains %.1f MB of heap, want <= 7", float64(setup)/(1<<20))
	}
	hosts := n.Topo.Hosts()
	for pod := 0; pod < len(hosts); pod += 64 {
		for h := pod; h < pod+64; h++ {
			n.StartFlow(hosts[h], hosts[(h+64)%len(hosts)], 32<<10)
		}
		n.RunUntilIdle(n.Eng.Now() + eventsim.Second)
	}
	if len(n.Completed) != len(hosts) {
		t.Fatalf("%d of %d flows completed", len(n.Completed), len(hosts))
	}
	if drained := liveHeap() - before; drained > 2*setup {
		t.Errorf("%.1f MB of heap live after every port carried its BDP, %.1f MB after set-up: want at most twice",
			float64(drained)/(1<<20), float64(setup)/(1<<20))
	}
	runtime.KeepAlive(n)
}

// TestLargeCLOSQuickRun is the scale smoke test: a 4096-host CLOS (64 ToR
// pods × 64 hosts, 16 leaves) builds and pushes a cross-pod workload to
// completion. It guards construction cost and a full drain at a fabric
// size far beyond the micro tests — not throughput, which the benchmark's
// clos4096_drain workload measures — and that carrying traffic leaves no
// state behind sized by the fabric rather than by the packets alive: the
// heap live after the drain stays within twice the heap after set-up.
func TestLargeCLOSQuickRun(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Clos = topology.ClosConfig{
		NumToR: 64, NumLeaf: 16, HostsPerToR: 64,
		HostLinkBps: 10e9, FabricLinkBps: 100e9,
		PropDelay: 2 * eventsim.Microsecond,
	}
	cfg.Seed = 7
	before := liveHeap()
	n, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup := liveHeap() - before
	hosts := n.Topo.Hosts()
	if len(hosts) != 4096 {
		t.Fatalf("%d hosts, want 4096", len(hosts))
	}
	// One flow out of every 16th host into the next pod over: 256 flows,
	// all crossing the leaf tier.
	flows := 0
	for h := 0; h < len(hosts); h += 16 {
		dst := (h + 64) % len(hosts)
		at := eventsim.Time(h) * eventsim.Microsecond / 16
		n.StartFlowAt(at, hosts[h], hosts[dst], 256<<10)
		flows++
	}
	n.RunUntilIdle(eventsim.Second)
	if len(n.Completed) != flows {
		t.Fatalf("%d completions, want %d", len(n.Completed), flows)
	}
	if err := n.CheckPoolInvariant(); err != nil {
		t.Fatal(err)
	}
	if drained := liveHeap() - before; drained > 2*setup {
		t.Errorf("%.1f MB of heap live after the drain, %.1f MB after set-up: want at most twice",
			float64(drained)/(1<<20), float64(setup)/(1<<20))
	}
	runtime.KeepAlive(n)
}
