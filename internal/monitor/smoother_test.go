package monitor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/loop"
)

func fsdWithShare(eleFlows, miceFlows float64, bucket int, bytes float64) loop.FSD {
	var r Report
	r.Hist[bucket] = bytes
	r.ElephantFlowsW = eleFlows
	r.MiceFlowsW = miceFlows
	r.ElephantBytes = bytes * eleFlows / math.Max(1, eleFlows+miceFlows)
	r.MiceBytes = bytes - r.ElephantBytes
	r.Flows = int(eleFlows + miceFlows)
	return Aggregate(r)
}

func TestSmootherFirstSamplePassesThrough(t *testing.T) {
	var s loop.Smoother
	raw := fsdWithShare(3, 1, 11, 1000)
	got := s.Update(raw)
	if got != raw {
		t.Errorf("first update altered the sample: %+v vs %+v", got, raw)
	}
	// The first traffic is absorbed: the next sample blends with it.
	next := fsdWithShare(1, 3, 4, 1000)
	if s.Update(next) == next {
		t.Error("second sample passed through: the first was not absorbed")
	}
}

func TestSmootherBlends(t *testing.T) {
	s := loop.Smoother{Alpha: 0.5}
	s.Update(fsdWithShare(0, 10, 0, 1000)) // pure mice
	got := s.Update(fsdWithShare(10, 0, 12, 1000))
	if math.Abs(got.ElephantFlowShare-0.5) > 1e-9 {
		t.Errorf("blended flow share %g, want 0.5", got.ElephantFlowShare)
	}
	if math.Abs(got.Hist[0]-0.5) > 1e-9 || math.Abs(got.Hist[12]-0.5) > 1e-9 {
		t.Errorf("blended hist %g/%g, want 0.5/0.5", got.Hist[0], got.Hist[12])
	}
}

func TestSmootherIgnoresEmptyIntervals(t *testing.T) {
	var s loop.Smoother
	traffic := fsdWithShare(5, 5, 8, 500)
	s.Update(traffic)
	for i := 0; i < 10; i++ {
		got := s.Update(loop.FSD{})
		if got.ElephantFlowShare != traffic.ElephantFlowShare {
			t.Fatalf("empty interval %d changed the average", i)
		}
	}
}

func TestSmootherEmptyBeforeTraffic(t *testing.T) {
	var s loop.Smoother
	got := s.Update(loop.FSD{})
	if got.TotalBytes != 0 {
		t.Error("empty update before traffic counted")
	}
	// Nothing was absorbed: the first traffic still passes through.
	raw := fsdWithShare(3, 1, 11, 1000)
	if s.Update(raw) != raw {
		t.Error("empty update before traffic was absorbed")
	}
}

func TestQuickSmoothedHistStaysNormalized(t *testing.T) {
	f := func(shares []uint8) bool {
		var s loop.Smoother
		for i, raw := range shares {
			bucket := int(raw) % loop.NumBuckets
			fsd := fsdWithShare(float64(raw%7), float64(raw%3)+1, bucket, float64(raw)+1)
			got := s.Update(fsd)
			var sum float64
			for _, v := range got.Hist {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
			if got.ElephantFlowShare < 0 || got.ElephantFlowShare > 1 {
				return false
			}
			_ = i
		}
		return len(shares) == 0 || s.Update(loop.FSD{}).TotalBytes > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTriggerDivergence(t *testing.T) {
	a := fsdWithShare(9, 1, 11, 1000) // 90% elephants
	if d := loop.TriggerDivergence(a, a); d != 0 {
		t.Errorf("self divergence %g, want 0", d)
	}
	b := fsdWithShare(1, 9, 0, 1000) // 10% elephants
	if d := loop.TriggerDivergence(a, b); d < 0.5 {
		t.Errorf("90%%→10%% shift divergence %g, want large", d)
	}
	// Small composition wobble stays under the Table III θ.
	c := fsdWithShare(87, 13, 11, 1000)
	d := fsdWithShare(90, 10, 11, 1000)
	if div := loop.TriggerDivergence(c, d); div > 0.01 {
		t.Errorf("3%%-point wobble divergence %g, want <= theta 0.01", div)
	}
}

func TestQuickTriggerDivergenceNonNegative(t *testing.T) {
	f := func(a, b uint8) bool {
		fa := fsdWithShare(float64(a), float64(255-a)+1, 5, 100)
		fb := fsdWithShare(float64(b), float64(255-b)+1, 5, 100)
		return loop.TriggerDivergence(fa, fb) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The bucket-migration property that motivated TriggerDivergence: a
// recurring round where flows grow through buckets must not look like a
// pattern change, even though the histogram KL between phases is large.
func TestTriggerDivergenceStableAcrossRoundPhases(t *testing.T) {
	early := fsdWithShare(4, 4, 9, 1000) // flows young: mass low-bucket
	late := fsdWithShare(4, 4, 11, 1000) // same flows, grown
	if d := loop.TriggerDivergence(late, early); d > 0.01 {
		t.Errorf("bucket migration alone fired the trigger: %g", d)
	}
	if d := KL(late, early); d < 1 {
		t.Errorf("sanity: histogram KL across phases %g should be large", d)
	}
}
