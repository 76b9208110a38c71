// Package eventsim provides a deterministic discrete-event simulation
// engine: a virtual clock, a queue of timestamped events, and seeded
// random-number streams that components can split off so that runs are
// reproducible regardless of scheduling order.
//
// The engine is deliberately single-threaded: determinism matters more than
// parallelism for a congestion-control study, where a one-packet reordering
// changes every downstream measurement. Parallelism comes from running
// independent simulations side by side, one engine each (harness.RunAll).
//
// Events live in a slab whose slots are recycled through an intrusive
// free-list, so the steady state allocates nothing. Cancellation is safe
// without retaining pointers because every EventID carries the slot's
// generation counter, which is bumped each time the slot fires or is
// cancelled.
//
// # Event order
//
// Events fire in (time, insertion order): earlier timestamps first, and
// among events of one timestamp the one armed first (Schedule, After,
// TimerAfter, or a Rearm, which counts as a fresh insertion). No field
// records that order; position in a wheel list is the order. The queue that
// realizes it is one hierarchical timing wheel of 10 levels: level 0 has
// 4096 slots of one nanosecond — one exact timestamp each — and every level
// above it 64 slots, a level-l slot being 4096·64^(l-1) ns wide, so the
// levels span every non-negative int64 time. No comparator-driven structure
// exists beside it. Why the wheel alone yields the total order:
//
//   - Placement. The wheel keeps a cursor with cursor ≤ at for every
//     pending event. Reading times as a 12-bit lowest digit under 6-bit
//     digits, an event is filed at the level of the highest digit in which
//     at differs from the cursor (level 0 when equal), in the slot named by
//     at's digit there. Digits above that level equal the cursor's, so at
//     every level each occupied slot lies at or (above level 0) strictly
//     ahead of the cursor's own digit: there is no wrap-around, the lowest
//     set bit of a level's occupancy bitmap is its earliest slot, and every
//     event of level l precedes every event of level l+1. Level 0's bitmap
//     is 64 words under a summary word, so finding its earliest slot is
//     still two trailing-zero counts.
//   - Level 0 holds events whose time differs from the cursor in the
//     lowest 12 bits only. Each slot list there is one timestamp, and
//     events reach it in insertion order (next point), so appending at the
//     tail keeps it in insertion order. The head of the lowest occupied
//     level-0 slot is therefore the engine's next event, and popping it
//     only advances that list's head.
//   - Cascade. When level 0 is empty, the earliest slot of the lowest
//     occupied level is the earliest pending range. The cursor moves to
//     that slot's start and its events are refiled, landing one or more
//     levels down. A newly armed event is the latest insertion so far and
//     is appended to its list; a cascade only ever refiles into empty
//     levels, in list order. So every list is always in insertion order,
//     and a cascade costs one relink per event.
//   - Cursor ≤ limit. Moving the cursor within [cursor, start of the
//     earliest occupied slot) changes no event's placement, and popping a
//     level-0 event moves it to that event's time. RunUntil cascades a
//     slot only when its start is within the deadline, so the cursor never
//     passes the clock it leaves behind and a later Schedule at any
//     at ≥ Now() is still ahead of it.
//
// An instant end (AtInstantEnd) is not an event and has no place in that
// order. Run and RunUntil step events up to the earliest instant end due;
// once no event at or before its time is pending, the clock moves to that
// time and it fires. Instant ends of one time fire in arming order.
package eventsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. Nanosecond granularity is sufficient for 100–400 Gbps
// links, where even a minimum-size frame takes tens of nanoseconds to
// serialize.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts t to a standard library duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string { return t.Duration().String() }

// Handler is the callback invoked when an event fires. It runs at the
// event's scheduled virtual time.
type Handler func()

// event is one slab slot: a scheduled callback plus the links that file it
// in a wheel list and recycle the slot afterwards. 32 bytes, so two share a
// cache line (TestEventIs32Bytes).
type event struct {
	at Time
	fn Handler

	// gen is the slot's generation; it increments every time the slot is
	// released (fire or cancel), so EventIDs issued for earlier occupants
	// can never cancel the current one. A slot whose generation matches a
	// caller's EventID is therefore filed in the wheel.
	gen uint32
	// next and prev link the slot into its wheel list: next is -1 at the
	// tail, and a head's prev is stale (unlink knows the head from the
	// list). next doubles as the free-list chain while the slot is released.
	next, prev int32
	// list is the wheel list the event is filed in: its level-0 slot, or
	// level0Slots+(level-1)*wheelSlots+slot above level 0.
	list int16
}

// EventID identifies a scheduled event so it can be cancelled. It is a
// value (slot number plus generation), not a pointer: holding one keeps
// nothing alive, and a stale ID — the event fired, was cancelled, or the
// slot was reused — safely no-ops in Cancel. The zero EventID is invalid
// and cancels nothing.
type EventID struct {
	slot int32
	gen  uint32
}

// Timing-wheel geometry: level 0 is a 12-bit digit of 4096 one-nanosecond
// slots, and each level above it a 6-bit digit of 64 slots, so a level-l
// slot (l ≥ 1) is 4096·64^(l-1) ns wide and 10 levels cover all 63 value
// bits of a non-negative Time. Lists are numbered level 0 first, so list i
// has occupancy bit i%64 of word i/64 at every level.
const (
	level0Bits  = 12
	level0Slots = 1 << level0Bits
	level0Words = level0Slots / 64
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 1 + (63-level0Bits+wheelBits-1)/wheelBits
	wheelLists  = level0Slots + (wheelLevels-1)*wheelSlots
)

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now Time

	// slots is the event slab; freeHead chains released slots (-1 = none).
	slots    []event
	freeHead int32

	// The timing wheel; the package comment argues its order. cursor ≤ at
	// for every pending event. occupied[i/64] has bit i%64 set while list i
	// is non-empty, and summary has bit w set while level-0 word w is
	// non-zero; head and tail are meaningful only under a set bit, so they
	// need no -1 initialization.
	cursor   Time
	pending  int
	summary  uint64
	occupied [wheelLists / 64]uint64
	head     [wheelLists]int32
	tail     [wheelLists]int32

	// ends are the armed instant ends, by time and then arming order.
	ends    []instantEnd
	seed    int64
	rng     *rand.Rand
	stopped bool

	// Processed counts events executed since construction; useful for
	// progress reporting and overhead accounting.
	Processed uint64
	relinks   uint64
	peak      int
}

// instantEnd is a handler AtInstantEnd armed for the end of instant at.
type instantEnd struct {
	at Time
	fn Handler
}

// Stats is the engine's account of its own work since construction.
type Stats struct {
	Processed   uint64 // events executed
	Relinks     uint64 // events refiled a level down by wheel cascades
	PeakPending int    // high-water mark of Pending()
}

// NewEngine returns an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed)), freeHead: -1}
}

// Seed reports the seed the engine was built with. Devices derive their
// randomness from it as a pure function (netdev.PortSeed), so what a device
// draws depends on neither construction order nor how many streams Rand
// has handed out.
func (e *Engine) Seed() int64 { return e.seed }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Stats reports the engine's accounting counters.
func (e *Engine) Stats() Stats {
	return Stats{Processed: e.Processed, Relinks: e.relinks, PeakPending: e.peak}
}

// Reserve grows the event slab so at least n events can be pending at
// once without it reallocating. Purely a capacity hint for benchmarks and
// latency-sensitive callers that want the steady state allocation-free
// from the first event; scheduling beyond n still works and grows as
// usual.
func (e *Engine) Reserve(n int) {
	if cap(e.slots) < n {
		slots := make([]event, len(e.slots), n)
		copy(slots, e.slots)
		e.slots = slots
	}
}

// Rand returns a new deterministic random stream for a workload generator,
// whose draw order the data plane cannot perturb. Each call returns an
// independent generator seeded from the engine's master stream, so adding a
// generator does not perturb the draws seen by those created before it. A
// math/rand source is 4.9 KB, so this is not for devices, which come by the
// thousand: they use Seed.
func (e *Engine) Rand() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past is a
// programming error and panics: silently reordering time corrupts every
// queue model downstream.
func (e *Engine) Schedule(at Time, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: schedule at %v before now %v", at, e.now))
	}
	slot := e.alloc()
	e.arm(slot, at, fn)
	return EventID{slot: slot, gen: e.slots[slot].gen}
}

// After runs fn after delay d from the current virtual time.
func (e *Engine) After(d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// TimerAfter is After.
func (e *Engine) TimerAfter(d Time, fn Handler) EventID { return e.After(d, fn) }

// RearmAfter reschedules a live event to fire after delay d, replacing
// the Cancel + After pair with one reschedule-in-place: the event keeps
// its slot and EventID. A stale id (the event fired, was cancelled, or was
// never armed) schedules fn afresh, so callers can rearm unconditionally
// from inside a timer's own handler. Either way the event is filed as a
// fresh insertion, so same-timestamp tie order is that of the Cancel+After
// pair it replaces.
func (e *Engine) RearmAfter(id EventID, d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.RearmAt(id, e.now+d, fn)
}

// RearmAt is RearmAfter with an absolute deadline.
func (e *Engine) RearmAt(id EventID, at Time, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: rearm at %v before now %v", at, e.now))
	}
	if e.live(id) {
		// The slot and generation survive, so id stays valid.
		e.unlink(id.slot)
		e.arm(id.slot, at, fn)
		return id
	}
	return e.Schedule(at, fn)
}

// live reports whether id names a pending event.
func (e *Engine) live(id EventID) bool {
	return id.gen != 0 && int(id.slot) < len(e.slots) && e.slots[id.slot].gen == id.gen
}

// alloc takes a slot from the free-list, growing the slab when empty.
func (e *Engine) alloc() int32 {
	slot := e.freeHead
	if slot >= 0 {
		e.freeHead = e.slots[slot].next
		return slot
	}
	// Grow the slab. Generations start at 1 so the zero EventID never
	// matches a live slot.
	e.slots = append(e.slots, event{gen: 1})
	return int32(len(e.slots) - 1)
}

// arm fills an unfiled slot and files it.
// This is the one place the cursor catches up with an idle clock: with
// nothing pending it may sit anywhere, and at now it files near-term
// events low. It must stay out of file, which a cascade also calls:
// pulling the cursor back from the slot start while that slot's only
// event is in hand would refile the event where it came from, forever.
func (e *Engine) arm(slot int32, at Time, fn Handler) {
	if e.pending == 0 {
		e.cursor = e.now
	}
	ev := &e.slots[slot]
	ev.at = at
	ev.fn = fn
	e.file(slot)
	e.pending++
	if e.pending > e.peak {
		e.peak = e.pending
	}
}

// file appends a filled slot to the wheel list its time selects relative to
// the cursor.
func (e *Engine) file(slot int32) {
	ev := &e.slots[slot]
	var list uint
	if n := uint(bits.Len64(uint64(ev.at ^ e.cursor))); n <= level0Bits {
		list = uint(ev.at) % level0Slots
		e.summary |= 1 << (list / 64)
	} else {
		lvl := (n - level0Bits - 1) / wheelBits // level above 0, less one
		list = level0Slots + lvl*wheelSlots + uint(ev.at>>(level0Bits+lvl*wheelBits))&wheelMask
	}
	ev.list = int16(list)
	ev.next = -1
	if bit := uint64(1) << (list % 64); e.occupied[list/64]&bit == 0 {
		e.occupied[list/64] |= bit
		e.head[list], e.tail[list] = slot, slot
		return
	}
	tail := e.tail[list]
	ev.prev = tail
	e.slots[tail].next = slot
	e.tail[list] = slot
}

// unlink removes a pending event from its wheel list.
func (e *Engine) unlink(slot int32) {
	ev := &e.slots[slot]
	list := uint(ev.list)
	if e.head[list] == slot {
		e.behead(list, ev.next)
	} else {
		e.slots[ev.prev].next = ev.next
		if ev.next >= 0 {
			e.slots[ev.next].prev = ev.prev
		} else {
			e.tail[list] = ev.prev
		}
	}
	e.pending--
}

// behead drops the head of a list, whose successor is next, clearing the
// list's occupancy when it empties. A head's prev is never read, so the new
// head's is left as it was.
func (e *Engine) behead(list uint, next int32) {
	if next >= 0 {
		e.head[list] = next
		return
	}
	w := list / 64
	e.occupied[w] &^= 1 << (list % 64)
	if e.occupied[w] == 0 && w < level0Words {
		e.summary &^= 1 << w
	}
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired, cancelling twice, or cancelling the zero EventID is a
// no-op: the generation check rejects stale IDs even after slot reuse.
func (e *Engine) Cancel(id EventID) {
	if e.live(id) {
		e.unlink(id.slot)
		e.release(id.slot)
	}
}

// release returns a slot to the free-list, dropping its handler so the
// engine does not pin the closure (and whatever it captures) until reuse.
func (e *Engine) release(slot int32) {
	ev := &e.slots[slot]
	ev.fn = nil
	ev.gen++
	ev.next = e.freeHead
	e.freeHead = slot
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of events currently scheduled.
func (e *Engine) Pending() int { return e.pending }

// earliest returns the wheel list holding the earliest pending event — the
// earliest slot of the lowest occupied level — or -1 when nothing is
// pending. Level 0 is two trailing-zero counts, through its summary word;
// every level above it is one word, and list numbering follows word order.
func (e *Engine) earliest() int {
	if e.summary != 0 {
		w := bits.TrailingZeros64(e.summary)
		return w*64 + bits.TrailingZeros64(e.occupied[w])
	}
	for w := level0Words; w < len(e.occupied); w++ {
		if occ := e.occupied[w]; occ != 0 {
			return w*64 + bits.TrailingZeros64(occ)
		}
	}
	return -1
}

// cascade refiles the earliest slot above level 0 while level 0 is empty
// and that slot starts by limit, never moving the cursor past limit. It
// returns the earliest level-0 list then, or -1.
func (e *Engine) cascade(limit Time) int {
	for {
		list := e.earliest()
		if list < level0Slots {
			return list
		}
		lvl := uint(list-level0Slots) / wheelSlots // level above 0, less one
		shift := level0Bits + lvl*wheelBits
		// A shift of 64 or more yields 0, so the top level masks all bits.
		start := Time(uint64(e.cursor)&^(1<<(shift+wheelBits)-1) | uint64(list%wheelSlots)<<shift)
		if start > limit {
			return -1
		}
		e.cursor = start
		e.occupied[list/64] &^= 1 << (list % 64)
		for s := e.head[list]; s >= 0; {
			next := e.slots[s].next
			e.file(s)
			e.relinks++
			s = next
		}
	}
}

// step executes the earliest pending event if its time is ≤ limit. That
// event heads the earliest level-0 list, so popping it advances the head
// instead of taking the general unlink.
func (e *Engine) step(limit Time) bool {
	list := e.earliest()
	if list >= level0Slots {
		list = e.cascade(limit)
	}
	if list < 0 || e.cursor&^(level0Slots-1)|Time(list) > limit {
		return false
	}
	slot := e.head[list]
	ev := &e.slots[slot]
	e.behead(uint(list), ev.next)
	e.pending--
	e.now, e.cursor = ev.at, ev.at
	fn := ev.fn
	// Release before invoking: the handler may reschedule into the same
	// slot, and by then its own EventID must already be stale.
	e.release(slot)
	e.Processed++
	fn()
	return true
}

// Step executes the single earliest pending event. It reports false when no
// events remain. It fires no instant end.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// AtInstantEnd runs fn at virtual time at once no event at or before at
// is pending, including events that instant's own events schedule for it.
// It is not an event: Processed does not count it, it cannot be cancelled,
// and only Run and RunUntil fire it.
func (e *Engine) AtInstantEnd(at Time, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: instant end at %v before now %v", at, e.now))
	}
	i := len(e.ends)
	for i > 0 && e.ends[i-1].at > at {
		i--
	}
	e.ends = slices.Insert(e.ends, i, instantEnd{at, fn})
}

// run executes events and instant ends with timestamps ≤ deadline until
// Stop. The per-event path is step alone, limited by the next instant end.
func (e *Engine) run(deadline Time) {
	e.stopped = false
	for !e.stopped {
		limit, due := deadline, len(e.ends) > 0 && e.ends[0].at <= deadline
		if due {
			limit = e.ends[0].at
		}
		for !e.stopped && e.step(limit) {
		}
		if e.stopped || !due {
			return
		}
		end := e.ends[0]
		e.ends = slices.Delete(e.ends, 0, 1)
		e.now = end.at
		end.fn()
	}
}

// Run executes events and instant ends until both run out or Stop is
// called.
func (e *Engine) Run() { e.run(math.MaxInt64) }

// RunUntil executes events and instant ends with timestamps ≤ deadline,
// then advances the clock to exactly deadline. Events scheduled beyond
// deadline remain queued so the simulation can be resumed. A handler that
// calls Stop leaves the clock where it stopped, so the events still
// pending are not behind it.
func (e *Engine) RunUntil(deadline Time) {
	e.run(deadline)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}
