package eventsim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"unsafe"
)

// queue is what a differential script needs from a scheduler. engQueue
// adapts the production Engine and refQueue the container/heap oracle of
// abguard_test.go; both issue handles as indices into every id they ever
// returned, so a script can name cancel and rearm targets the same way on
// either side.
type queue interface {
	now() Time
	schedule(via int, at Time, fn Handler)
	rearm(handle int, at Time, fn Handler) // handle -1 is the zero id
	cancel(handle int)
	handles() int
	step() bool
	runUntil(t Time)
	pending() int
	processed() uint64
}

// Entry points a schedule can take on the Engine; all must be the same code
// path.
const (
	viaSchedule = iota
	viaAfter
	viaTimerAfter
)

type engQueue struct {
	eng *Engine
	ids []EventID
}

func (q *engQueue) now() Time { return q.eng.Now() }
func (q *engQueue) schedule(via int, at Time, fn Handler) {
	var id EventID
	switch via {
	case viaAfter:
		id = q.eng.After(at-q.eng.Now(), fn)
	case viaTimerAfter:
		id = q.eng.TimerAfter(at-q.eng.Now(), fn)
	default:
		id = q.eng.Schedule(at, fn)
	}
	q.ids = append(q.ids, id)
}
func (q *engQueue) rearm(handle int, at Time, fn Handler) {
	var id EventID
	if handle >= 0 {
		id = q.ids[handle]
	}
	q.ids = append(q.ids, q.eng.RearmAfter(id, at-q.eng.Now(), fn))
}
func (q *engQueue) cancel(handle int) { q.eng.Cancel(q.ids[handle]) }
func (q *engQueue) handles() int      { return len(q.ids) }
func (q *engQueue) step() bool        { return q.eng.Step() }
func (q *engQueue) runUntil(t Time)   { q.eng.RunUntil(t) }
func (q *engQueue) pending() int      { return q.eng.Pending() }
func (q *engQueue) processed() uint64 { return q.eng.Processed }

type refQueue struct {
	ref refEngine
	evs []*refEvent
}

func (q *refQueue) now() Time { return q.ref.now }
func (q *refQueue) schedule(_ int, at Time, fn Handler) {
	q.evs = append(q.evs, q.ref.schedule(at, fn))
}
func (q *refQueue) rearm(handle int, at Time, fn Handler) {
	var ev *refEvent
	if handle >= 0 {
		ev = q.evs[handle]
	}
	q.evs = append(q.evs, q.ref.rearmAt(ev, at, fn))
}
func (q *refQueue) cancel(handle int) { q.ref.cancel(q.evs[handle]) }
func (q *refQueue) handles() int      { return len(q.evs) }
func (q *refQueue) step() bool        { return q.ref.step() }
func (q *refQueue) runUntil(t Time)   { q.ref.runUntil(t) }
func (q *refQueue) pending() int      { return len(q.ref.heap) }
func (q *refQueue) processed() uint64 { return q.ref.processed }

// scriptRun replays one scripted op sequence on a queue and records the
// pop stream as "time/tag@now" strings, interleaved with what the queue
// reports about itself after every op.
type scriptRun struct {
	q   queue
	log []string
	tag int
}

// op codes for the differential script. Each op consumes four bytes of
// the fuzz input; values are decoded modulo small ranges so every byte
// string is a valid script.
const (
	opSchedule = iota // absolute
	opAfter           // relative, short
	opTimer           // relative, spread from sub-slot to milliseconds
	opRearm           // live-or-stale rearm
	opCancel
	opStepN // interleave: pop a few events mid-script
	opSpawn // handler schedules a child at its own Now()
	opIdle  // RunUntil across a gap, possibly with nothing due
	opFar   // delay up to 2^62 ns: the top wheel levels
	opCount
)

func (r *scriptRun) fire(tag int, at Time) {
	r.log = append(r.log, fmt.Sprintf("%d/%d@%d", at, tag, r.q.now()))
}

// later is t+d, saturating at the last representable nanosecond: a script
// that has popped a far event keeps scheduling from there.
func later(t, d Time) Time {
	if d > math.MaxInt64-t {
		return math.MaxInt64
	}
	return t + d
}

// apply decodes and applies one op, returning the number of script bytes
// consumed. Handlers capture only the recorder and a tag, so both queues
// execute identical logic.
func (r *scriptRun) apply(script []byte) int {
	if len(script) < 4 {
		return len(script)
	}
	op := int(script[0]) % opCount
	a, b, c := int(script[1]), int(script[2]), int(script[3])
	now := r.q.now()
	tag := r.tag
	r.tag++
	switch op {
	case opSchedule:
		at := later(now, Time(a)*Microsecond/4)
		r.q.schedule(viaSchedule, at, func() { r.fire(tag, at) })
	case opAfter:
		at := later(now, Time(a)*Microsecond/8)
		r.q.schedule(viaAfter, at, func() { r.fire(tag, at) })
	case opTimer:
		at := later(now, Time(a)*Time(b+1)*Microsecond/16)
		r.q.schedule(viaTimerAfter, at, func() { r.fire(tag, at) })
	case opRearm:
		at := later(now, Time(a)*Microsecond/4)
		handle := -1
		if n := r.q.handles(); n > 0 {
			handle = b % n
		}
		r.q.rearm(handle, at, func() { r.fire(tag, at) })
	case opCancel:
		if n := r.q.handles(); n > 0 {
			r.q.cancel(a % n)
		}
	case opStepN:
		for i := 0; i < c%4 && r.q.step(); i++ {
		}
	case opSpawn:
		// The child lands in the level-0 list its parent is being popped
		// from, behind the peers still waiting there.
		at := later(now, Time(a)*Microsecond/4)
		r.q.schedule(viaSchedule, at, func() {
			r.fire(tag, at)
			r.q.schedule(c%3, r.q.now(), func() { r.fire(-tag, at) })
		})
	case opIdle:
		r.q.runUntil(later(now, Time(a)<<uint(c%24)))
	case opFar:
		at := later(now, Time(1)<<uint(a%63)+Time(b))
		r.q.schedule(c%3, at, func() { r.fire(tag, at) })
	}
	r.log = append(r.log, fmt.Sprintf("now=%d pending=%d", r.q.now(), r.q.pending()))
	return 4
}

// runScript applies every op, then drains the queue.
func runScript(script []byte, q queue) *scriptRun {
	r := &scriptRun{q: q}
	for len(script) > 0 {
		script = script[r.apply(script):]
	}
	for q.step() {
	}
	return r
}

// diffScript asserts the Engine and the oracle produced identical pop
// streams and identical final state.
func diffScript(t *testing.T, script []byte) {
	t.Helper()
	w := runScript(script, &engQueue{eng: NewEngine(42)})
	h := runScript(script, &refQueue{})
	if len(w.log) != len(h.log) {
		t.Fatalf("log length: engine %d, oracle %d", len(w.log), len(h.log))
	}
	for i := range w.log {
		if w.log[i] != h.log[i] {
			t.Fatalf("log line %d: engine %q, oracle %q", i, w.log[i], h.log[i])
		}
	}
	if w.q.now() != h.q.now() {
		t.Fatalf("final time: engine %v, oracle %v", w.q.now(), h.q.now())
	}
	if w.q.processed() != h.q.processed() {
		t.Fatalf("processed: engine %d, oracle %d", w.q.processed(), h.q.processed())
	}
}

// TestWheelMatchesHeap replays deterministic pseudo-random scripts — a
// seeded version of the fuzz target — so the differential check against
// the container/heap oracle always runs in plain `go test`.
func TestWheelMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		eng := NewEngine(seed + 1000)
		rng := eng.Rand()
		script := make([]byte, 400+rng.Intn(1200))
		rng.Read(script)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			diffScript(t, script)
		})
	}
}

// FuzzWheelVsOracle is the open-ended form: arbitrary byte strings decode
// to op scripts, and the Engine must pop byte-identically to the oracle on
// every one.
func FuzzWheelVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 0, 2, 200, 1, 0, 3, 50, 0, 0, 5, 0, 0, 3})
	// Far event, idle RunUntil short of it, nearer schedule, spawn, drain.
	f.Add([]byte{8, 40, 0, 0, 7, 200, 0, 12, 0, 9, 0, 0, 6, 3, 2, 1, 5, 0, 0, 3})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	// Level 0's 12-bit digit, from cursor 1000: +4096, +4097 and +4096 ns,
	// an idle run that leaves the cursor behind, +4095 ns, one pop that
	// cascades them all to level 0, then direct inserts at +4097 and at the
	// popped nanosecond.
	f.Add([]byte{7, 250, 0, 2, 8, 12, 0, 0, 8, 12, 1, 1, 8, 12, 0, 2, 7, 7, 0, 8,
		8, 11, 255, 0, 5, 0, 0, 1, 8, 0, 1, 0, 0, 0, 0, 0})
	// From cursor 1: 4097 and 4352, then 4096 and 4095 on either side of the
	// first block boundary, two pops across it, a direct insert at the
	// cascaded 4097 and a spawn.
	f.Add([]byte{7, 1, 0, 0, 8, 12, 0, 0, 8, 12, 255, 1, 7, 7, 0, 8, 8, 11, 255, 2,
		8, 11, 254, 0, 5, 0, 0, 2, 8, 0, 0, 0, 6, 0, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		diffScript(t, script)
	})
}

// TestWheelCrossOrdering pins the order at a single contended timestamp:
// events landing at the same instant pop in insertion order whichever
// entry point filed them, a rearm counting as a fresh insertion.
func TestWheelCrossOrdering(t *testing.T) {
	eng := NewEngine(1)
	at := 100 * Microsecond
	var got []string
	rec := func(s string) func() { return func() { got = append(got, s) } }
	eng.TimerAfter(at, rec("t0"))
	moved := eng.Schedule(at, rec("p1"))
	eng.After(at, rec("a2"))
	late := eng.Schedule(at+Microsecond, rec("late"))
	eng.Schedule(at, rec("p3"))
	eng.RearmAt(moved, at, rec("r4"))     // live: leaves its place, files last
	eng.RearmAt(late, at, rec("r5"))      // live, from another timestamp
	eng.RearmAt(EventID{}, at, rec("r6")) // stale: a plain Schedule
	eng.TimerAfter(at, rec("t7"))
	eng.Run()
	if want := "[t0 a2 p3 r4 r5 r6 t7]"; fmt.Sprint(got) != want {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// TestRearmAfterSemantics covers the live and stale branches explicitly.
func TestRearmAfterSemantics(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	fn := func() { fired++ }

	// Stale (zero) id schedules afresh.
	id := eng.RearmAfter(EventID{}, 5*Microsecond, fn)
	// Live id reschedules in place: same id, old deadline gone.
	id2 := eng.RearmAfter(id, 10*Microsecond, fn)
	if id2 != id {
		t.Fatalf("live rearm changed id: %v -> %v", id, id2)
	}
	eng.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1 (old deadline must be replaced)", fired)
	}
	if eng.Now() != 10*Microsecond {
		t.Fatalf("fired at %v, want 10µs", eng.Now())
	}

	// After firing the id is stale; rearming it schedules afresh.
	id3 := eng.RearmAfter(id, 3*Microsecond, fn)
	if id3 == id {
		t.Fatalf("stale rearm reused dead id %v", id)
	}
	eng.Cancel(id3)
	if eng.Step() {
		t.Fatal("cancelled rearm still fired")
	}
}

// TestWheelLongHorizon exercises multi-level cascades: timers spanning
// every wheel level, up to the last representable nanosecond, must fire in
// deadline order.
func TestWheelLongHorizon(t *testing.T) {
	eng := NewEngine(1)
	var got []Time
	delays := []Time{
		0, 1, 63, 64, 500 * Nanosecond, 3 * Microsecond, 90 * Microsecond,
		2 * Millisecond, 170 * Millisecond, 9 * Second,
		800 * Second, 90000 * Second, 1 << 48, 1 << 54, 1 << 60, 1<<62 + 1,
		math.MaxInt64 - 1, math.MaxInt64,
	}
	// Armed latest-first, so firing order owes nothing to arming order.
	for i := len(delays) - 1; i >= 0; i-- {
		eng.After(delays[i], func() { got = append(got, eng.Now()) })
	}
	eng.Run()
	if len(got) != len(delays) {
		t.Fatalf("fired %d of %d timers", len(got), len(delays))
	}
	for i, d := range delays {
		if got[i] != d {
			t.Fatalf("timer %d fired at %d, want %d", i, got[i], d)
		}
	}
}

// An idle RunUntil must leave the wheel able to take any schedule at or
// after the clock it set, including one nearer than everything pending.
func TestRunUntilIdleThenNearerSchedule(t *testing.T) {
	eng := NewEngine(1)
	var got []string
	eng.Schedule(5*Millisecond, func() { got = append(got, "5ms") })
	eng.RunUntil(Millisecond)
	if eng.Now() != Millisecond || len(got) != 0 {
		t.Fatalf("after idle run: now %v, fired %v", eng.Now(), got)
	}
	eng.Schedule(Millisecond, func() { got = append(got, "1ms") })
	eng.Schedule(2*Millisecond, func() { got = append(got, "2ms") })
	eng.Run()
	if fmt.Sprint(got) != "[1ms 2ms 5ms]" {
		t.Fatalf("fired %v, want [1ms 2ms 5ms]", got)
	}
}

// A fleet of timers on one far-off nanosecond fires in insertion order, and the
// cascades that bring it down refile each event at most once per level.
func TestSameNanosecondFleetCascadesLinearly(t *testing.T) {
	const n = 8192
	eng := NewEngine(1)
	at := 3*Second + 17
	next := 0
	for i := 0; i < n; i++ {
		i := i
		eng.Schedule(at, func() {
			if i != next {
				t.Fatalf("timer %d fired in position %d", i, next)
			}
			next++
		})
	}
	eng.Run()
	st := eng.Stats()
	if next != n || st.Processed != n || st.PeakPending != n {
		t.Fatalf("fired %d, stats %+v; want %d fired, processed and peak", next, st, n)
	}
	if st.Relinks < n || st.Relinks > n*(wheelLevels-1) {
		t.Fatalf("%d relinks for %d events, want between n and n×%d", st.Relinks, n, wheelLevels-1)
	}
}

// levelOf reports the wheel level a pending event is filed at.
func levelOf(eng *Engine, id EventID) int {
	list := int(eng.slots[id.slot].list)
	if list < level0Slots {
		return 0
	}
	return 1 + (list-level0Slots)/wheelSlots
}

// TestLevel0DigitBoundaries pins placement and order around level 0's
// 12-bit digit. From an aligned cursor +4095 ns is the last level-0 slot;
// from any other cursor +4095, +4096 and +4097 ns all leave the cursor's
// 4096-ns block, and from just below 2^18 they leave its level-1 slot too.
// However they were filed, events pop in (time, insertion order): on both
// sides of a block boundary, and when a cascade brings a level-1 slot down
// to level 0 ahead of direct inserts at the same nanosecond.
func TestLevel0DigitBoundaries(t *testing.T) {
	for _, tc := range []struct {
		cursor Time
		levels [3]int // of +4095, +4096 and +4097
	}{
		{5 * level0Slots, [3]int{0, 1, 1}},
		{5*level0Slots + 1, [3]int{1, 1, 1}},
		{5*level0Slots + 1234, [3]int{1, 1, 1}},
		{6*level0Slots - 1, [3]int{1, 1, 1}},
		{31*level0Slots + 100, [3]int{1, 1, 1}}, // level 1's highest digit bit
		{1<<18 - 1, [3]int{2, 2, 2}},
	} {
		t.Run(fmt.Sprint(tc.cursor), func(t *testing.T) {
			c := tc.cursor
			boundary := c&^(level0Slots-1) + level0Slots
			eng := NewEngine(1)
			eng.RunUntil(c)

			type armed struct {
				at  Time
				tag string
			}
			var want []armed // insertion order
			var got []string
			var moved EventID
			cascaded := false
			var rec func(tag string) Handler
			arm := func(at Time, tag string) EventID {
				want = append(want, armed{at, tag})
				return eng.Schedule(at, rec(tag))
			}
			rec = func(tag string) Handler {
				return func() {
					got = append(got, tag)
					if cascaded || eng.Now() < boundary {
						return
					}
					// The first pop past the boundary: the cascade has filed
					// the +4096 events in level 0, and what is armed at
					// their nanosecond now goes there directly, behind them.
					cascaded = true
					if id := arm(c+4096, "direct"); levelOf(eng, id) != 0 {
						t.Errorf("direct insert filed at level %d, want 0", levelOf(eng, id))
					}
					for i := range want {
						if want[i].tag == "moved" {
							want = append(want[:i], want[i+1:]...)
							break
						}
					}
					want = append(want, armed{c + 4096, "rearmed"})
					eng.RearmAt(moved, c+4096, rec("rearmed"))
				}
			}

			var ids [3]EventID
			ids[2] = arm(c+4097, "+4097")
			ids[1] = arm(c+4096, "+4096")
			ids[0] = arm(c+4095, "+4095")
			for i, id := range ids {
				if lvl := levelOf(eng, id); lvl != tc.levels[i] {
					t.Fatalf("+%d ns filed at level %d, want %d", 4095+i, lvl, tc.levels[i])
				}
			}
			arm(boundary, "boundary")
			arm(boundary-1, "boundary-1")
			arm(c+4096, "+4096 again")
			moved = arm(c+4097, "moved")
			eng.Run()

			sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
			tags := make([]string, len(want))
			for i, w := range want {
				tags[i] = w.tag
			}
			if fmt.Sprint(got) != fmt.Sprint(tags) {
				t.Fatalf("pop order %q, want %q", got, tags)
			}
		})
	}
}

// Cancelling or rearming an event that sits in the level-0 list being
// drained — same nanosecond as the running handler — takes effect.
func TestCancelAndRearmInDrainingSlot(t *testing.T) {
	eng := NewEngine(1)
	at := 70 * Microsecond
	var got []string
	rec := func(s string) func() { return func() { got = append(got, s) } }
	var victim, mover, tail EventID
	eng.Schedule(at, func() {
		got = append(got, "first")
		eng.Cancel(victim)
		// Rearmed to the running instant: a fresh insertion, behind "tail".
		if id := eng.RearmAfter(mover, 0, rec("mover@same")); id != mover {
			t.Fatalf("live rearm changed id")
		}
		// Rearmed away: leaves the draining list altogether.
		eng.RearmAfter(tail, Microsecond, rec("tail@later"))
	})
	victim = eng.Schedule(at, rec("victim"))
	mover = eng.Schedule(at, rec("mover"))
	eng.Schedule(at, rec("bystander"))
	tail = eng.Schedule(at, rec("tail"))
	eng.Run()
	if want := "[first bystander mover@same tail@later]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events left pending", eng.Pending())
	}
}

// Two events per 64-byte cache line: the slab is the engine's working set.
func TestEventIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("event is %d bytes, want 32", got)
	}
	if wheelLists > math.MaxInt16 {
		t.Fatalf("%d wheel lists overflow event.list", wheelLists)
	}
}

// TestWheelOpsZeroAlloc pins the hot path allocation-free in steady
// state: schedule, cancel, rearm, and a fire/re-arm cycle must not
// allocate once the slab has warmed up.
func TestWheelOpsZeroAlloc(t *testing.T) {
	eng := NewEngine(1)
	fn := func() {}
	// Warm the slab.
	var warm []EventID
	for i := 0; i < 64; i++ {
		warm = append(warm, eng.TimerAfter(Time(i+1)*Microsecond, fn))
	}
	for _, id := range warm {
		eng.Cancel(id)
	}

	if a := testing.AllocsPerRun(200, func() {
		id := eng.TimerAfter(40*Microsecond, fn)
		eng.Cancel(id)
	}); a != 0 {
		t.Fatalf("TimerAfter+Cancel allocates %v/op, want 0", a)
	}

	id := eng.TimerAfter(50*Microsecond, fn)
	if a := testing.AllocsPerRun(200, func() {
		id = eng.RearmAfter(id, 50*Microsecond, fn)
	}); a != 0 {
		t.Fatalf("RearmAfter allocates %v/op, want 0", a)
	}
	eng.Cancel(id)

	// Self-re-arming timer driven through Step: the recurring-timer
	// steady state of a DCQCN RP.
	var tick func()
	var tickID EventID
	tick = func() { tickID = eng.RearmAfter(tickID, 30*Microsecond, tick) }
	tickID = eng.TimerAfter(30*Microsecond, tick)
	if a := testing.AllocsPerRun(200, func() {
		if !eng.Step() {
			t.Fatal("recurring timer vanished")
		}
	}); a != 0 {
		t.Fatalf("recurring fire+rearm allocates %v/op, want 0", a)
	}
}

// BenchmarkTimerWheel measures the O(1) timer primitives under a realistic
// pending population. TestWheelOpsZeroAlloc pins the same operations at 0
// allocs/op.
func BenchmarkTimerWheel(b *testing.B) {
	fn := func() {}
	// pending timers forming the background population a DCQCN fabric
	// carries: two timers per QP across thousands of QPs.
	const pending = 32768
	build := func() (*Engine, []EventID) {
		eng := NewEngine(1)
		ids := make([]EventID, pending)
		for i := range ids {
			ids[i] = eng.TimerAfter(Time(i%4096+1)*Microsecond, fn)
		}
		return eng, ids
	}
	eng, ids := build()
	b.Run("rearm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := ids[i%pending]
			ids[i%pending] = eng.RearmAfter(id, Time(i%4096+1)*Microsecond, fn)
		}
	})
	eng2, ids2 := build()
	b.Run("cancel+schedule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng2.Cancel(ids2[i%pending])
			ids2[i%pending] = eng2.TimerAfter(Time(i%4096+1)*Microsecond, fn)
		}
	})
}
