package eventsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file holds the ordering oracle for the production Engine: a
// container/heap scheduler that shares no code with the timing wheel and
// states the contract directly — events fire in (at, seq) order, seq being
// an explicit insertion counter the wheel does without; a rearm takes a
// fresh seq whether its target is live or stale; RunUntil is inclusive.
// The differential tests here and in wheel_test.go drive both side by side
// on identical scripts and require identical pop streams. The
// harness-level TestChaosTraceGolden extends this to a full seeded chaos
// experiment.

type refEvent struct {
	at    Time
	seq   uint64
	fn    Handler
	index int // position in the heap, -1 once fired or cancelled
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now       Time
	seq       uint64
	heap      refHeap
	processed uint64
}

func (e *refEngine) schedule(at Time, fn Handler) *refEvent {
	if at < e.now {
		panic("ref: schedule in the past")
	}
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.heap, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev != nil && ev.index >= 0 {
		heap.Remove(&e.heap, ev.index)
	}
}

// rearmAt moves a live event in place (same handle, fresh seq) and
// schedules afresh for a stale or nil one.
func (e *refEngine) rearmAt(ev *refEvent, at Time, fn Handler) *refEvent {
	if ev == nil || ev.index < 0 {
		return e.schedule(at, fn)
	}
	if at < e.now {
		panic("ref: rearm in the past")
	}
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.seq++
	heap.Fix(&e.heap, ev.index)
	return ev
}

func (e *refEngine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*refEvent)
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

func (e *refEngine) run() {
	for e.step() {
	}
}

func (e *refEngine) runUntil(deadline Time) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// abWorkload drives one scheduler through a seeded random script of
// schedules, cancels, and in-handler reschedules, recording every firing
// as "time/tag". schedule and cancel abstract over the two engines.
func abWorkload(seed int64, schedule func(at Time, fn Handler) int, cancel func(handle int)) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var handles []int
	tag := 0
	var spawn func(depth int) Handler
	spawn = func(depth int) Handler {
		id := tag
		tag++
		return func() {
			log = append(log, fmt.Sprintf("%d/%d", rng.Int63n(1000), id))
			if depth < 3 && rng.Intn(3) == 0 {
				// Handler-driven reschedule: the common "timer re-arms
				// itself" pattern, where slot reuse bugs would surface.
				handles = append(handles, schedule(Time(rng.Intn(50)+1), spawn(depth+1)))
			}
			if len(handles) > 0 && rng.Intn(4) == 0 {
				cancel(handles[rng.Intn(len(handles))])
			}
		}
	}
	for i := 0; i < 400; i++ {
		handles = append(handles, schedule(Time(rng.Intn(200)), spawn(0)))
	}
	for i := 0; i < 60; i++ {
		cancel(handles[rng.Intn(len(handles))])
	}
	return log
}

// The workload's spawned handlers consume rng draws at firing time and the
// firing log embeds them, so any divergence in firing order — not just in
// which events fire — diverges the logs. relative Schedule times are
// issued against each engine's own clock via the closure over `eng`.
func TestPooledEngineMatchesOldOrderSemantics(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ref := &refEngine{}
		var refEvs []*refEvent
		refLog := abWorkload(seed,
			func(at Time, fn Handler) int {
				refEvs = append(refEvs, ref.schedule(ref.now+at, fn))
				return len(refEvs) - 1
			},
			func(h int) { ref.cancel(refEvs[h]) },
		)
		ref.run()
		refLog = append(refLog, fmt.Sprintf("end@%d", ref.now))

		eng := NewEngine(1)
		var ids []EventID
		newLog := abWorkload(seed,
			func(at Time, fn Handler) int {
				ids = append(ids, eng.Schedule(eng.Now()+at, fn))
				return len(ids) - 1
			},
			func(h int) { eng.Cancel(ids[h]) },
		)
		eng.Run()
		newLog = append(newLog, fmt.Sprintf("end@%d", eng.Now()))

		if len(refLog) != len(newLog) {
			t.Fatalf("seed %d: fired %d events on the oracle, %d on the engine",
				seed, len(refLog), len(newLog))
		}
		for i := range refLog {
			if refLog[i] != newLog[i] {
				t.Fatalf("seed %d: firing %d diverges: oracle=%q engine=%q", seed, i, refLog[i], newLog[i])
			}
		}
		if ref.processed != eng.Processed {
			t.Fatalf("seed %d: processed %d vs %d", seed, ref.processed, eng.Processed)
		}
	}
}

// Stale EventIDs from a fired event must never cancel the slot's next
// occupant — the generation counter is what makes pointer-free Cancel safe.
func TestCancelStaleIDAfterSlotReuse(t *testing.T) {
	e := NewEngine(1)
	first := e.Schedule(1, func() {})
	e.Run() // fires; slot returns to the free-list
	fired := false
	second := e.Schedule(2, func() { fired = true }) // reuses the slot
	e.Cancel(first)                                  // stale: must be a no-op
	e.Run()
	if !fired {
		t.Fatal("cancelling a stale EventID killed the slot's new occupant")
	}
	e.Cancel(second) // cancel-after-fire stays a no-op too
	e.Cancel(EventID{})
}

func TestScheduleStepZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the slab to its steady-state footprint.
	for i := 0; i < 1024; i++ {
		e.After(Time(i%97+1), fn)
	}
	for e.Step() {
	}
	// Keep a standing backlog so Schedule and Step work on a populated
	// wheel, then measure the schedule-one / fire-one steady state.
	for i := 0; i < 256; i++ {
		e.After(Time(i%61+1), fn)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		e.After(37, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocates %.1f per op in steady state, want 0", allocs)
	}
}

// BenchmarkSchedule measures the schedule-one / fire-one steady state: the
// per-event cost every simulated packet pays at least once.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.After(Time(i%97+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(i&63+1), fn)
		e.Step()
	}
}
