package eventsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestAfterAccumulatesTime(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.After(10, func() {
		e.After(15, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 25 {
		t.Errorf("nested After fired at %v, want 25", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	id := e.Schedule(10, func() { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling again must be a no-op.
	e.Cancel(id)
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	var id EventID
	id = e.Schedule(10, func() {})
	e.Run()
	e.Cancel(id) // must not panic
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine(1)
	var got []int
	ids := make([]EventID, 5)
	for i := 0; i < 5; i++ {
		i := i
		ids[i] = e.Schedule(Time(i+1), func() { got = append(got, i) })
	}
	e.Cancel(ids[2])
	e.Run()
	for _, v := range got {
		if v == 2 {
			t.Fatalf("cancelled event 2 fired: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %d events, want 4", len(got))
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Errorf("Pending() = %d, want 7", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if e.Now() != 12 {
		t.Errorf("Now() = %v, want 12 after RunUntil(12)", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("resume fired %v, want all 4", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Errorf("Now() = %v, want 500 on idle engine", e.Now())
	}
}

func TestDeterministicRandStreams(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	ra, rb := a.Rand(), b.Rand()
	for i := 0; i < 100; i++ {
		if ra.Int63() != rb.Int63() {
			t.Fatal("same-seed engines produced different component streams")
		}
	}
	// A second stream must be independent of the first.
	ra2 := a.Rand()
	same := true
	for i := 0; i < 20; i++ {
		if ra2.Int63() != rb.Int63() {
			same = false
		}
	}
	if same {
		t.Error("second component stream identical to first")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed != 7 {
		t.Errorf("Processed = %d, want 7", e.Processed)
	}
}

func TestTimeConversions(t *testing.T) {
	if Millisecond.Micros() != 1000 {
		t.Errorf("Millisecond.Micros() = %v", Millisecond.Micros())
	}
	if Second.Millis() != 1000 {
		t.Errorf("Second.Millis() = %v", Second.Millis())
	}
	if (2 * Second).Seconds() != 2 {
		t.Errorf("(2s).Seconds() = %v", (2 * Second).Seconds())
	}
	if Microsecond.Duration().Nanoseconds() != 1000 {
		t.Errorf("Microsecond.Duration() = %v", Microsecond.Duration())
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order and the engine processes exactly as many events as scheduled.
func TestQuickHeapOrdering(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		e := NewEngine(seed)
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		e := NewEngine(1)
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		firedCount := 0
		ids := make([]EventID, count)
		cancelled := make(map[int]bool)
		for i := 0; i < count; i++ {
			ids[i] = e.Schedule(Time(rng.Intn(100)+1), func() { firedCount++ })
		}
		for i := 0; i < count; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(ids[i])
				cancelled[i] = true
			}
		}
		e.Run()
		return firedCount == count-len(cancelled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j), func() {})
		}
		e.Run()
	}
}

// TestInstantEndOrder pins where instant ends fire: after every event of
// their nanosecond, including one such an event schedules for it, and in
// arming order among themselves; each is followed by the events it
// schedules for its own time, and none counts as an event.
func TestInstantEndOrder(t *testing.T) {
	e := NewEngine(1)
	var got []string
	log := func(s string) Handler { return func() { got = append(got, s) } }
	e.AtInstantEnd(5, func() {
		got = append(got, "end1")
		e.Schedule(5, log("by-end1"))
	})
	e.Schedule(5, func() {
		got = append(got, "a")
		e.Schedule(5, log("by-a"))
	})
	e.AtInstantEnd(5, log("end2"))
	e.AtInstantEnd(3, log("end-at-3"))
	e.Schedule(5, log("b"))
	e.Schedule(6, log("c"))
	e.AtInstantEnd(9, log("end-at-9"))
	e.RunUntil(8)
	want := []string{"end-at-3", "a", "b", "by-a", "end1", "by-end1", "end2", "c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if e.Processed != 5 {
		t.Errorf("Processed = %d, want the 5 events only", e.Processed)
	}
	if e.Now() != 8 {
		t.Errorf("Now() = %v, want 8", e.Now())
	}
	// The instant end beyond the deadline waits for the next run, which
	// moves an idle clock to it.
	e.RunUntil(20)
	if got[len(got)-1] != "end-at-9" {
		t.Errorf("instant end past the deadline: got %v", got)
	}
}

// TestStoppedRunUntilKeepsClock: a handler that stops RunUntil leaves the
// clock at its own time, so the events still pending are ahead of it and
// the next run fires them without the clock going back.
func TestStoppedRunUntilKeepsClock(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5, e.Stop)
	var fired Time
	e.Schedule(7, func() { fired = e.Now() })
	e.RunUntil(10)
	if e.Now() != 5 {
		t.Fatalf("Now() = %v after a stop at 5, want 5", e.Now())
	}
	e.RunUntil(10)
	if fired != 7 || e.Now() != 10 {
		t.Errorf("pending event fired at %v, clock %v; want 7 and 10", fired, e.Now())
	}
}
