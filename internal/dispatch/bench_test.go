package dispatch

import (
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
)

// BenchmarkDispatchPlan pins the per-dispatch admission cost: one full
// guardrail validation (bounds, ECN ordering, relative step, rate
// limit) plus the vector fingerprint every ACK is matched against.
// This runs on every tuner step, so it must stay allocation-free —
// TestPlanZeroAlloc holds it there.
func BenchmarkDispatchPlan(b *testing.B) {
	g := NewGuard(GuardConfig{MaxRelStep: 0.8, MinGap: eventsim.Microsecond})
	live := dcqcn.DefaultParams()
	cand := dcqcn.ExpertParams()
	now := eventsim.Time(0)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 2 * eventsim.Microsecond
		if r, _ := g.Admit(&cand, &live, now); r == RejectNone {
			sink ^= VectorHash(&cand)
		}
	}
	benchSink = sink
}

var benchSink uint64

// TestPlanZeroAlloc is the admission path's allocation gate: guardrail
// validation plus vector hashing sit on every parameter push, whether the
// push is admitted (a near move, validated in full and hashed) or refused
// (the expert vector, too far from the live one in a single step).
func TestPlanZeroAlloc(t *testing.T) {
	g := NewGuard(GuardConfig{MaxRelStep: 0.8, MinGap: eventsim.Microsecond})
	live := dcqcn.DefaultParams()
	near, far := live, dcqcn.ExpertParams()
	near.KminBytes += near.KminBytes / 10
	now := eventsim.Time(0)
	admitted, refused := 0, 0
	allocs := testing.AllocsPerRun(1000, func() {
		for _, cand := range []*dcqcn.Params{&near, &far} {
			now += 2 * eventsim.Microsecond
			if r, _ := g.Admit(cand, &live, now); r == RejectNone {
				benchSink ^= VectorHash(cand)
				admitted++
			} else {
				refused++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("guard admission plus vector hash allocates %.1f per dispatch, want 0", allocs)
	}
	if admitted == 0 || refused == 0 {
		t.Fatalf("admitted %d, refused %d: the test must exercise both verdicts", admitted, refused)
	}
}
