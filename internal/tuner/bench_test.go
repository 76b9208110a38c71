package tuner

import (
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/loop"
)

// warmTuner builds the named strategy and runs one full session, which lets
// trace and proposal slices reach their steady-state capacity.
func warmTuner(tb testing.TB, name string) (Tuner, loop.FSD, loop.RuntimeSample) {
	tb.Helper()
	cfg := Config{
		Weights:  DefaultWeights(),
		Base:     dcqcn.DefaultParams(),
		SA:       ShortSAConfig(),
		Bandit:   BanditConfig{Budget: 60},
		MultiECN: MultiECNConfig{Agents: 8, Budget: 60},
	}
	tu, err := New(name, cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	fsd := elephantFSD()
	sample := loop.RuntimeSample{OTP: 0.5, ORTT: 0.6, OPFC: 0.99}
	tu.Trigger(fsd)
	for tu.Active() {
		tu.Step(sample, fsd)
	}
	return tu, fsd, sample
}

// BenchmarkTunerStep measures one search iteration per strategy.
func BenchmarkTunerStep(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			tu, fsd, sample := warmTuner(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !tu.Active() {
					tu.Trigger(fsd)
				}
				tu.Step(sample, fsd)
			}
		})
	}
}

// TestStepZeroAlloc: Step sits on the per-interval control path, and every
// strategy keeps scratch buffers (SA/Bandit mutation vectors,
// MultiECN's proposal slice) so that the steady state — sessions ending and
// re-triggering included — allocates nothing.
func TestStepZeroAlloc(t *testing.T) {
	for _, name := range Names() {
		tu, fsd, sample := warmTuner(t, name)
		allocs := testing.AllocsPerRun(1000, func() {
			if !tu.Active() {
				tu.Trigger(fsd)
			}
			tu.Step(sample, fsd)
		})
		if allocs != 0 {
			t.Errorf("%s: Step allocates %.1f per iteration in steady state, want 0", name, allocs)
		}
	}
}
