package tuner

import (
	"testing"
	"testing/quick"

	"repro/internal/dcqcn"
	"repro/internal/loop"
)

// Shared fixtures: an elephant-dominant and a mice-dominant FSD, plus a
// compressed annealing schedule for fast sessions.

func elephantFSD() loop.FSD {
	var r loop.Report
	r.Hist[12] = 1000
	r.ElephantBytes = 900
	r.MiceBytes = 100
	r.ElephantFlowsW = 9
	r.MiceFlowsW = 1
	r.Flows = 10
	return loop.Aggregate(r)
}

func miceFSD() loop.FSD {
	var r loop.Report
	r.Hist[0] = 1000
	r.ElephantBytes = 100
	r.MiceBytes = 900
	r.ElephantFlowsW = 1
	r.MiceFlowsW = 29
	r.Flows = 30
	return loop.Aggregate(r)
}

func quickSA() SAConfig {
	return SAConfig{
		TotalIterNum: 3,
		CoolingRate:  0.5,
		InitialTemp:  30,
		FinalTemp:    10,
		Eta:          0.8,
		Guided:       true,
	}
}

// --- Mutation operator (moved here with the operator from core) ---

func TestGuidedMutationFollowsDominantType(t *testing.T) {
	// With elephant-dominant traffic (μ=0.9 → exploit 0.8), hai_rate
	// (throughput direction: increment) must increase in ~80% of
	// mutations; with mice dominance it must decrease similarly.
	count := func(fsd loop.FSD) (up, down int) {
		tu, _ := NewSA(quickSA(), DefaultWeights(), dcqcn.DefaultParams(), 7)
		tu.Trigger(fsd)
		base := dcqcn.DefaultParams()
		for i := 0; i < 400; i++ {
			m := tu.mutate(base)
			if m.HAIRateBps > base.HAIRateBps {
				up++
			} else if m.HAIRateBps < base.HAIRateBps {
				down++
			}
		}
		return up, down
	}
	up, down := count(elephantFSD())
	if up <= down*2 {
		t.Errorf("elephant-dominant: hai_rate up %d vs down %d, want strong up bias", up, down)
	}
	up, down = count(miceFSD())
	if down <= up*2 {
		t.Errorf("mice-dominant: hai_rate up %d vs down %d, want strong down bias", up, down)
	}
}

func TestNaiveMutationUnbiased(t *testing.T) {
	cfg := quickSA()
	cfg.Guided = false
	tu, _ := NewSA(cfg, DefaultWeights(), dcqcn.DefaultParams(), 7)
	tu.Trigger(elephantFSD())
	base := dcqcn.DefaultParams()
	up, down := 0, 0
	for i := 0; i < 600; i++ {
		m := tu.mutate(base)
		if m.HAIRateBps > base.HAIRateBps {
			up++
		} else if m.HAIRateBps < base.HAIRateBps {
			down++
		}
	}
	ratio := float64(up) / float64(up+down)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("naive mutation bias %g, want ≈0.5", ratio)
	}
}

func TestMutationRespectsEta(t *testing.T) {
	// Even with μ=1.0 (pure elephants), η=0.8 forces ≥20% anti-dominant
	// exploration.
	var r loop.Report
	r.Hist[12] = 1000
	r.ElephantBytes = 1000
	r.ElephantFlowsW = 5
	fsd := loop.Aggregate(r)
	tu, _ := NewSA(quickSA(), DefaultWeights(), dcqcn.DefaultParams(), 9)
	tu.Trigger(fsd)
	base := dcqcn.DefaultParams()
	down := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if m := tu.mutate(base); m.HAIRateBps < base.HAIRateBps {
			down++
		}
	}
	frac := float64(down) / n
	if frac < 0.12 || frac > 0.30 {
		t.Errorf("anti-dominant fraction %g, want ≈0.2 (1−η)", frac)
	}
}

func TestQuickMutationAlwaysValid(t *testing.T) {
	tu, _ := NewSA(quickSA(), DefaultWeights(), dcqcn.DefaultParams(), 11)
	f := func(elephant bool, seed int64) bool {
		if elephant {
			tu.Trigger(elephantFSD())
		} else {
			tu.Trigger(miceFSD())
		}
		p := dcqcn.DefaultParams()
		for i := 0; i < 50; i++ {
			p = tu.mutate(p)
			if p.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// --- Annealer-specific session behaviour ---

// TestElitistRecentering verifies the drift guard: with Elitist on, the
// chain returns to the best-known setting at each temperature level.
func TestElitistRecentering(t *testing.T) {
	run := func(elitist bool) float64 {
		cfg := SAConfig{
			TotalIterNum: 4, CoolingRate: 0.5,
			InitialTemp: 80, FinalTemp: 10,
			Eta: 0.8, Guided: true, Elitist: elitist,
		}
		tu, err := NewSA(cfg, Weights{TP: 1}, dcqcn.DefaultParams(), 3)
		if err != nil {
			t.Fatal(err)
		}
		tu.Trigger(elephantFSD())
		// Utility that punishes drift: best at the incumbent's hai_rate,
		// decaying as the setting moves away.
		base := dcqcn.DefaultParams()
		score := func(p dcqcn.Params) float64 {
			d := p.HAIRateBps / base.HAIRateBps
			if d < 1 {
				d = 1 / d
			}
			return 1.0 / d
		}
		lastDispatched := base
		for tu.Active() {
			p, ok := tu.Step(loop.RuntimeSample{OTP: score(lastDispatched)}, elephantFSD())
			if !ok {
				break
			}
			lastDispatched = p
		}
		return score(tu.Best())
	}
	withElitist := run(true)
	withoutElitist := run(false)
	// Elitist must settle at least as close to the optimum; typically
	// much closer because guided mutation drifts hai_rate upward.
	if withElitist < withoutElitist-1e-9 {
		t.Errorf("elitist settled worse: %g vs %g", withElitist, withoutElitist)
	}
	if withElitist < 0.5 {
		t.Errorf("elitist final score %g, want near the incumbent's 1.0", withElitist)
	}
}
