package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/eventsim"
	"repro/internal/sim"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.4, 2}, {0.5, 3}, {0.8, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile not NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("p=1.5 did not panic")
		}
	}()
	Percentile([]float64{1}, 1.5)
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := float64(pRaw) / 255
		got := Percentile(raw, p)
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		return got >= sorted[0] && got <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean not NaN")
	}
}

func TestBucketizeSlowdowns(t *testing.T) {
	sl := []Slowdown{
		{Size: 5 << 10, Value: 2},
		{Size: 8 << 10, Value: 4},
		{Size: 50 << 10, Value: 3},
		{Size: 10 << 20, Value: 10},
	}
	stats := BucketizeSlowdowns(sl, DefaultSizeBuckets())
	if len(stats) != 5 {
		t.Fatalf("%d buckets", len(stats))
	}
	if stats[0].Count != 2 || stats[0].Mean != 3 {
		t.Errorf("bucket 0: %+v", stats[0])
	}
	if stats[2].Count != 1 || stats[2].Mean != 3 {
		t.Errorf("bucket <=120KB: %+v", stats[2])
	}
	if last := stats[len(stats)-1]; last.Count != 1 || last.Mean != 10 {
		t.Errorf("catch-all bucket: %+v", last)
	}
	if stats[0].Label != "<=10KB" {
		t.Errorf("label %q", stats[0].Label)
	}
	if got := stats[len(stats)-1].Label; got != ">1MB" {
		t.Errorf("tail label %q", got)
	}
}

func TestCDF(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	pts := CDF(vals, 4)
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].X != 1 || pts[0].P != 0.25 {
		t.Errorf("first point %+v", pts[0])
	}
	if pts[3].X != 4 || pts[3].P != 1 {
		t.Errorf("last point %+v", pts[3])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P <= pts[i-1].P {
			t.Errorf("CDF not monotone at %d", i)
		}
	}
	if CDF(nil, 5) != nil {
		t.Error("empty CDF not nil")
	}
}

func TestSlowdownsAndSummarize(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.Hosts()
	// Uncontended flow → slowdown ≈ 1; incast → slowdowns > 1.
	n.StartFlow(hosts[0], hosts[1], 1<<20)
	n.RunUntilIdle(eventsim.Second)
	for i := 2; i <= 5; i++ {
		n.StartFlow(hosts[i], hosts[6], 1<<20)
	}
	n.RunUntilIdle(5 * eventsim.Second)
	sl := Slowdowns(n, n.Completed)
	if len(sl) != 5 {
		t.Fatalf("%d slowdowns, want 5", len(sl))
	}
	for _, s := range sl {
		if s.Value < 1 {
			t.Errorf("slowdown %g < 1", s.Value)
		}
	}
	if sl[0].Value > 1.15 {
		t.Errorf("uncontended slowdown %g, want ≈1", sl[0].Value)
	}
	incastMax := 0.0
	for _, s := range sl[1:] {
		if s.Value > incastMax {
			incastMax = s.Value
		}
	}
	if incastMax < 1.5 {
		t.Errorf("4:1 incast max slowdown %g, want > 1.5", incastMax)
	}
	sum := Summarize(n, n.Completed)
	if sum.Count != 5 || sum.MeanSlowdown < 1 || sum.P999Slowdown < sum.MeanSlowdown {
		t.Errorf("summary %+v inconsistent", sum)
	}
	if sum.TailFCT < sum.MeanFCT {
		t.Errorf("tail FCT %v < mean %v", sum.TailFCT, sum.MeanFCT)
	}
}
