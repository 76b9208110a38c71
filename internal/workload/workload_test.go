package workload

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/eventsim"
	"repro/internal/sim"
)

func TestCDFValidation(t *testing.T) {
	if _, err := NewSizeCDF("one-point", map[float64]int64{0: 100}); err == nil {
		t.Error("single-anchor CDF accepted")
	}
	if _, err := NewSizeCDF("no-zero", map[float64]int64{0.5: 100, 1: 200}); err == nil {
		t.Error("CDF not starting at 0 accepted")
	}
	if _, err := NewSizeCDF("no-one", map[float64]int64{0: 100, 0.5: 200}); err == nil {
		t.Error("CDF not ending at 1 accepted")
	}
	if _, err := NewSizeCDF("nonmono", map[float64]int64{0: 500, 1: 100}); err == nil {
		t.Error("non-monotone sizes accepted")
	}
	if _, err := NewSizeCDF("zero-size", map[float64]int64{0: 0, 1: 100}); err == nil {
		t.Error("zero size accepted")
	}
}

func TestBuiltinCDFs(t *testing.T) {
	for _, c := range []SizeCDF{FBHadoop(), SolarRPC()} {
		if c.Name() == "" {
			t.Error("unnamed CDF")
		}
		if c.MeanBytes() <= 0 {
			t.Errorf("%s mean %g", c.Name(), c.MeanBytes())
		}
	}
}

func TestQuickSampleWithinBounds(t *testing.T) {
	cdf := FBHadoop()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			s := cdf.Sample(rng)
			if s < 80 || s > 30<<20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFBHadoopShape(t *testing.T) {
	// Most flows mice, most bytes from elephants — the property §II
	// leans on.
	rng := rand.New(rand.NewSource(1))
	cdf := FBHadoop()
	const n = 20000
	var mice, total int
	var miceBytes, totalBytes int64
	for i := 0; i < n; i++ {
		s := cdf.Sample(rng)
		total++
		totalBytes += s
		if s < 100<<10 {
			mice++
			miceBytes += s
		}
	}
	if frac := float64(mice) / float64(total); frac < 0.8 {
		t.Errorf("mice flow fraction %g, want >= 0.8", frac)
	}
	if frac := float64(miceBytes) / float64(totalBytes); frac > 0.4 {
		t.Errorf("mice byte fraction %g, want minority of bytes", frac)
	}
}

func TestSolarRPCAllMice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cdf := SolarRPC()
	for i := 0; i < 5000; i++ {
		if s := cdf.Sample(rng); s > 128<<10 {
			t.Fatalf("SolarRPC sample %d exceeds 128KB", s)
		}
	}
}

func TestSampleMedianNearAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cdf := FBHadoop()
	var below int
	const n = 40000
	for i := 0; i < n; i++ {
		if cdf.Sample(rng) <= 1059 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("P(X <= median anchor) = %g, want ≈0.5", frac)
	}
}

func TestMeanBytesMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cdf := SolarRPC()
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(cdf.Sample(rng))
	}
	emp := sum / n
	analytic := cdf.MeanBytes()
	ratio := emp / analytic
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("empirical mean %g vs analytic %g (ratio %g)", emp, analytic, ratio)
	}
}

// --- Generators on a live network ---

func newNet(t *testing.T) *sim.Network {
	t.Helper()
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPoissonLoadCalibration(t *testing.T) {
	n := newNet(t)
	horizon := 50 * eventsim.Millisecond
	g, err := InstallPoisson(n, PoissonConfig{
		CDF:      SolarRPC(), // bounded sizes make short-run load stable
		Load:     0.3,
		Duration: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle(eventsim.Second)
	if g.Launched == 0 {
		t.Fatal("no arrivals")
	}
	if len(n.Completed) != g.Launched {
		t.Fatalf("%d of %d flows completed", len(n.Completed), g.Launched)
	}
	// Offered load: bytes launched in the horizon / capacity across
	// hosts. The network drained, so every launched flow has completed.
	var offered int64
	for _, r := range n.Completed {
		offered += r.Size
	}
	capacity := n.HostLinkBps() * float64(len(n.Topo.Hosts())) * horizon.Seconds() / 8
	load := float64(offered) / capacity
	if load < 0.15 || load > 0.45 {
		t.Errorf("offered load %g, want ≈0.3", load)
	}
}

func TestPoissonRespectsWindow(t *testing.T) {
	n := newNet(t)
	g, err := InstallPoisson(n, PoissonConfig{
		CDF:      SolarRPC(),
		Load:     0.3,
		Start:    10 * eventsim.Millisecond,
		Duration: 5 * eventsim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(8 * eventsim.Millisecond)
	if g.Launched != 0 {
		t.Error("arrivals before Start")
	}
	n.Run(30 * eventsim.Millisecond)
	launched := g.Launched
	if launched == 0 {
		t.Fatal("no arrivals inside window")
	}
	n.Run(60 * eventsim.Millisecond)
	if g.Launched != launched {
		t.Error("arrivals after the window closed")
	}
}

func TestPoissonRejectsBadConfig(t *testing.T) {
	n := newNet(t)
	if _, err := InstallPoisson(n, PoissonConfig{CDF: SolarRPC(), Load: 0}); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := InstallPoisson(n, PoissonConfig{CDF: SolarRPC(), Load: 2}); err == nil {
		t.Error("load > 1 accepted")
	}
	if _, err := InstallPoisson(n, PoissonConfig{CDF: SolarRPC(), Load: 0.3, Hosts: n.Topo.Hosts()[:1]}); err == nil {
		t.Error("single host accepted")
	}
}

func TestAlltoallRounds(t *testing.T) {
	n := newNet(t)
	workers := n.Topo.Hosts()[:4]
	g, err := InstallAlltoall(n, AlltoallConfig{
		Workers:      workers,
		MessageBytes: 256 << 10,
		OffTime:      2 * eventsim.Millisecond,
		Rounds:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle(5 * eventsim.Second)
	if g.RoundsDone != 3 {
		t.Fatalf("RoundsDone = %d, want 3", g.RoundsDone)
	}
	if len(g.RoundDurations) != 3 {
		t.Fatalf("RoundDurations = %d entries", len(g.RoundDurations))
	}
	// 4 workers × 3 peers × 3 rounds flows.
	if want := 4 * 3 * 3; len(g.FlowIDs) != want {
		t.Errorf("launched %d flows, want %d", len(g.FlowIDs), want)
	}
	for r := 0; r < 3; r++ {
		bw := g.AggregateGoodputBps(r)
		if bw <= 0 {
			t.Errorf("round %d goodput %g", r, bw)
		}
		// Goodput cannot exceed aggregate access capacity.
		if bw > float64(len(workers))*n.HostLinkBps() {
			t.Errorf("round %d goodput %g exceeds capacity", r, bw)
		}
	}
	if g.InRound() {
		t.Error("InRound true after final round")
	}
}

func TestAlltoallOffGapsSeparateRounds(t *testing.T) {
	n := newNet(t)
	workers := n.Topo.Hosts()[:3]
	off := 5 * eventsim.Millisecond
	g, err := InstallAlltoall(n, AlltoallConfig{
		Workers:      workers,
		MessageBytes: 64 << 10,
		OffTime:      off,
		Rounds:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle(eventsim.Second)
	if g.RoundsDone != 2 {
		t.Fatalf("RoundsDone = %d, want 2", g.RoundsDone)
	}
	// Starts of round-2 flows must come ≥ OffTime after the last
	// completion of round 1.
	var round1End, round2Start eventsim.Time
	for i, rec := range n.Completed {
		if i < len(workers)*(len(workers)-1) {
			if rec.End > round1End {
				round1End = rec.End
			}
		} else if round2Start == 0 || rec.Start < round2Start {
			round2Start = rec.Start
		}
	}
	if round2Start < round1End+off {
		t.Errorf("round 2 started %v after round 1 end %v; want gap >= %v", round2Start, round1End, off)
	}
}

func TestAlltoallStop(t *testing.T) {
	n := newNet(t)
	g, err := InstallAlltoall(n, AlltoallConfig{
		Workers:      n.Topo.Hosts()[:3],
		MessageBytes: 64 << 10,
		OffTime:      eventsim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(20 * eventsim.Millisecond)
	g.Stop()
	rounds := g.RoundsDone
	n.RunUntilIdle(eventsim.Second)
	if g.RoundsDone > rounds+1 {
		t.Errorf("rounds kept starting after Stop: %d -> %d", rounds, g.RoundsDone)
	}
}

func TestInfluxComposition(t *testing.T) {
	n := newNet(t)
	hosts := n.Topo.Hosts()
	flux, err := InstallInflux(n, InfluxConfig{
		Background: AlltoallConfig{
			Workers:      hosts[:4],
			MessageBytes: 1 << 20,
			OffTime:      2 * eventsim.Millisecond,
		},
		Burst: PoissonConfig{
			Hosts:    hosts[4:],
			CDF:      SolarRPC(),
			Load:     0.4,
			Start:    5 * eventsim.Millisecond,
			Duration: 10 * eventsim.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(30 * eventsim.Millisecond)
	if flux.Background.RoundsDone == 0 && !flux.Background.InRound() {
		t.Error("background collective never ran")
	}
	if flux.Burst.Launched == 0 {
		t.Error("burst never arrived")
	}
	// Each started flow belongs to exactly one generator: the burst's
	// hosts never appear in the collective.
	if started := len(n.Completed) + n.IncompleteFlows(); len(flux.Background.FlowIDs)+flux.Burst.Launched != started {
		t.Errorf("collective %d + burst %d flows, network started %d", len(flux.Background.FlowIDs), flux.Burst.Launched, started)
	}
	for _, rec := range n.Completed {
		if flux.Background.FlowIDs[rec.ID] && slices.Contains(hosts[4:], rec.Src) {
			t.Fatalf("flow %d from burst host %d claimed by the collective", rec.ID, rec.Src)
		}
	}
}

func TestAlltoallRejectsBadConfig(t *testing.T) {
	n := newNet(t)
	if _, err := InstallAlltoall(n, AlltoallConfig{Workers: n.Topo.Hosts()[:1], MessageBytes: 1}); err == nil {
		t.Error("single worker accepted")
	}
	if _, err := InstallAlltoall(n, AlltoallConfig{Workers: n.Topo.Hosts()[:2], MessageBytes: 0}); err == nil {
		t.Error("zero message accepted")
	}
}
