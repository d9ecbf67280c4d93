package eventq

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroQueueUsable(t *testing.T) {
	var q Queue
	if q.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", q.Now())
	}
	if q.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDispatchOrder(t *testing.T) {
	var q Queue
	var got []int
	q.At(3, func(Time) { got = append(got, 3) })
	q.At(1, func(Time) { got = append(got, 1) })
	q.At(2, func(Time) { got = append(got, 2) })
	q.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
	if q.Now() != 3 {
		t.Fatalf("clock = %v, want 3", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(5, func(Time) { got = append(got, i) })
	}
	q.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: got[%d] = %d", i, v)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	var q Queue
	var at Time
	q.At(7.5, func(now Time) { at = now })
	q.Run()
	if at != 7.5 {
		t.Fatalf("handler saw now = %v, want 7.5", at)
	}
}

// TestClockTellsHandlersTheTime: with Clock set, a handler is told the
// clock's time, not its event's, while Now still moves to the event.
func TestClockTellsHandlersTheTime(t *testing.T) {
	q := Queue{Clock: func() Time { return 9.25 }}
	var told, now Time
	q.At(7.5, func(at Time) { told, now = at, q.Now() })
	q.Run()
	if told != 9.25 || now != 7.5 {
		t.Fatalf("handler told %v with Now %v, want 9.25 and 7.5", told, now)
	}
}

func TestAfterRelative(t *testing.T) {
	var q Queue
	var second Time
	q.At(2, func(now Time) {
		q.After(3, func(now2 Time) { second = now2 })
	})
	q.Run()
	if second != 5 {
		t.Fatalf("After(3) from t=2 fired at %v, want 5", second)
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	var q Queue
	var fired Time
	q.At(10, func(now Time) {
		q.At(1, func(now2 Time) { fired = now2 }) // in the past
	})
	q.Run()
	if fired != 10 {
		t.Fatalf("past event fired at %v, want clamped to 10", fired)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	var q Queue
	var fired Time
	q.At(4, func(Time) {
		q.After(-1, func(now Time) { fired = now })
	})
	q.Run()
	if fired != 4 {
		t.Fatalf("negative After fired at %v, want 4", fired)
	}
}

func TestTimerStop(t *testing.T) {
	var q Queue
	fired := false
	tm := q.At(1, func(Time) { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	q.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Active() {
		t.Fatal("stopped timer still active")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	var q Queue
	tm := q.At(1, func(Time) {})
	q.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
	if tm.Active() {
		t.Fatal("fired timer reports active")
	}
}

func TestStopOneOfMany(t *testing.T) {
	var q Queue
	var got []int
	var timers []Timer
	for i := 0; i < 10; i++ {
		i := i
		timers = append(timers, q.At(Time(i), func(Time) { got = append(got, i) }))
	}
	timers[4].Stop()
	timers[7].Stop()
	q.Run()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8", len(got))
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		q.At(at, func(now Time) { got = append(got, now) })
	}
	q.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) dispatched %d events, want 3", len(got))
	}
	if q.Now() != 3 {
		t.Fatalf("clock = %v, want 3", q.Now())
	}
	if q.Len() != 2 {
		t.Fatalf("pending = %d, want 2", q.Len())
	}
	q.RunUntil(10)
	if q.Now() != 10 {
		t.Fatalf("clock = %v, want 10 after RunUntil past all events", q.Now())
	}
	if len(got) != 5 {
		t.Fatalf("total dispatched %d, want 5", len(got))
	}
}

func TestRunUntilAdvancesEmptyClock(t *testing.T) {
	var q Queue
	q.RunUntil(42)
	if q.Now() != 42 {
		t.Fatalf("clock = %v, want 42", q.Now())
	}
}

func TestDispatchedCounter(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.At(Time(i), func(Time) {})
	}
	q.At(9, func(Time) {}).Stop()
	q.Run()
	if q.Dispatched() != 5 {
		t.Fatalf("Dispatched = %d, want 5", q.Dispatched())
	}
}

func TestTimerWhen(t *testing.T) {
	var q Queue
	tm := q.At(6.25, func(Time) {})
	if tm.When() != 6.25 {
		t.Fatalf("When = %v, want 6.25", tm.When())
	}
}

func TestZeroTimerStopSafe(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero timer Stop returned true")
	}
	if tm.Active() {
		t.Fatal("zero timer Active returned true")
	}
}

// Property: regardless of insertion order, events dispatch in nondecreasing
// time order and the clock never goes backwards.
func TestPropertyMonotoneDispatch(t *testing.T) {
	f := func(times []float64) bool {
		var q Queue
		var got []Time
		for _, ft := range times {
			at := Time(ft)
			if at < 0 {
				at = -at
			}
			q.At(at, func(now Time) { got = append(got, now) })
		}
		q.Run()
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random interleaving of schedules and cancels dispatches
// exactly the non-cancelled events.
func TestPropertyCancelConsistency(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		var q Queue
		fired := map[int]bool{}
		cancelled := map[int]bool{}
		var timers []Timer
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			i := i
			timers = append(timers, q.At(Time(rng.Float64()*100), func(Time) { fired[i] = true }))
		}
		for i, tm := range timers {
			if rng.IntN(3) == 0 {
				tm.Stop()
				cancelled[i] = true
			}
		}
		q.Run()
		for i := 0; i < count; i++ {
			if cancelled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := Time(1.5)
	if tt.Add(2.5) != 4 {
		t.Fatalf("Add: got %v", tt.Add(2.5))
	}
	if Time(4).Sub(1.5) != 2.5 {
		t.Fatalf("Sub: got %v", Time(4).Sub(1.5))
	}
	if tt.Seconds() != 1.5 {
		t.Fatalf("Seconds: got %v", tt.Seconds())
	}
	if tt.String() != "1.500s" {
		t.Fatalf("String: got %q", tt.String())
	}
	if Duration(0.25).Std().Milliseconds() != 250 {
		t.Fatalf("Std: got %v", Duration(0.25).Std())
	}
}

// TestCancelRescheduleChurn hammers the queue with the fault engine's
// pattern — schedule, cancel, reschedule in bulk — and checks no heap
// entries or handler closures leak.
func TestCancelRescheduleChurn(t *testing.T) {
	var q Queue
	rng := rand.New(rand.NewPCG(1, 2))
	fired := 0
	live := map[Timer]bool{}
	for round := 0; round < 200; round++ {
		for i := 0; i < 50; i++ {
			tm := q.After(Duration(rng.Float64()), func(Time) { fired++ })
			live[tm] = true
		}
		// Cancel a random half; rescheduling replaces, never reuses.
		for tm := range live {
			if rng.IntN(2) == 0 {
				tm.Stop()
				delete(live, tm)
			}
		}
	}
	pending := q.Len()
	if pending != len(live) {
		t.Fatalf("queue holds %d entries, want %d live (stopped timers must leave the heap)", pending, len(live))
	}
	q.Run()
	if fired != len(live) {
		t.Fatalf("fired %d handlers, want %d (every live timer exactly once)", fired, len(live))
	}
	for tm := range live {
		if tm.Active() {
			t.Fatal("timer still active after Run")
		}
		if tm.Stop() {
			t.Fatal("Stop returned true after the timer already fired")
		}
	}
}

// TestCancelThenFireRace covers the order-sensitive cases around a
// timer's firing instant: stopping a timer from an earlier same-time
// event must prevent the handler, and stopping it from inside its own
// handler must be a no-op.
func TestCancelThenFireRace(t *testing.T) {
	var q Queue
	firedB := false
	// A and B share t=1; A is scheduled first so FIFO dispatches it
	// first, and A cancels B before the queue reaches it.
	var b Timer
	q.At(1, func(Time) { b.Stop() })
	b = q.At(1, func(Time) { firedB = true })
	var self Timer
	selfStop := true
	self = q.At(2, func(Time) { selfStop = self.Stop() })
	q.Run()
	if firedB {
		t.Fatal("handler ran after a same-instant earlier event stopped it")
	}
	if selfStop {
		t.Fatal("Stop from inside the firing handler reported true")
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// TestStaleHandleCannotTouchRecycledEvent pins the free-list safety
// contract: once an event fires (or is stopped) and its entry is
// recycled into a new scheduling, the old Timer handle must be inert —
// it must not report the new event as its own, and Stop through it must
// not cancel the new event.
func TestStaleHandleCannotTouchRecycledEvent(t *testing.T) {
	var q Queue
	old := q.At(1, func(Time) {})
	q.Run() // fires; the event record returns to the free list
	fired := false
	fresh := q.At(2, func(Time) { fired = true })
	if fresh.id != old.id {
		t.Skip("free list did not recycle the entry; nothing to test")
	}
	if old.Active() {
		t.Fatal("stale handle reports the recycled event as active")
	}
	if old.Stop() {
		t.Fatal("stale handle stopped the recycled event")
	}
	q.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestFiringHandleIsInactiveInItsHandler pins what lets several timers
// share one callback and tell which of them fired: inside the handler,
// the firing timer's handle is already inactive — even once the handler
// has re-armed into the record it freed — while every sibling still
// pending, a same-time one included, is Active.
func TestFiringHandleIsInactiveInItsHandler(t *testing.T) {
	var q Queue
	var h [3]Timer
	var order []int
	fn := func(Time) {
		// Arm first: the new event takes the record the firing one freed.
		re := q.After(10, func(Time) {})
		defer re.Stop()
		var firing []int
		for i, x := range h {
			if x != (Timer{}) && !x.Active() {
				firing = append(firing, i)
			}
		}
		if len(firing) != 1 {
			t.Fatalf("at %v, handles %v read as fired; want exactly one", q.Now(), firing)
		}
		h[firing[0]] = Timer{}
		order = append(order, firing[0])
	}
	h[0] = q.At(2, fn)
	h[1] = q.At(1, fn)
	h[2] = q.At(1, fn)
	q.Run()
	if want := []int{1, 2, 0}; !slices.Equal(order, want) {
		t.Fatalf("timers fired in order %v, want %v", order, want)
	}
}

// TestFreeListReuse verifies steady-state scheduling recycles event
// records instead of allocating: schedule/fire cycles beyond the first
// must reuse the same entries.
func TestFreeListReuse(t *testing.T) {
	var q Queue
	a := q.At(1, func(Time) {})
	q.Run()
	b := q.At(2, func(Time) {})
	if a.id != b.id {
		t.Fatal("fired event was not recycled for the next scheduling")
	}
	if a.gen == b.gen {
		t.Fatal("recycled event kept its generation; stale handles would stay live")
	}
	q.Run()
}

// TestStopReleasesClosure verifies a stopped timer no longer pins its
// handler closure (the eventq leak-audit contract): the closure's
// captured state must be collectable while the Timer handle lives on.
func TestStopReleasesClosure(t *testing.T) {
	var q Queue
	big := make([]byte, 1<<20)
	tm := q.After(1, func(Time) { _ = big[0] })
	tm.Stop()
	// The event record is still reachable through the handle; its event
	// must be gone so `big` is unreachable through the queue or the handle.
	if tm.q.rec(tm.id).ev != nil {
		t.Fatal("stopped timer still holds its handler closure")
	}
	fired := q.At(0.5, func(Time) {})
	q.Run()
	if fired.q.rec(fired.id).ev != nil {
		t.Fatal("fired event still holds its handler closure")
	}
}

// TestSteadyStateAllocatesNothing pins the 0 allocations the free list
// and the inline heap exist for: once the queue has grown to its working
// depth, scheduling and firing events, and scheduling and stopping
// timers, allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue
	fn := func(Time) {}
	const depth = 1000
	cycle := func() {
		for i := 0; i < depth; i++ {
			q.After(Duration(i%97), fn)
		}
		q.Run()
	}
	cycle() // grow the heap and the free list
	if got := testing.AllocsPerRun(10, cycle); got != 0 {
		t.Errorf("schedule + fire: %v allocations per %d events, want 0", got, depth)
	}
	if got := testing.AllocsPerRun(10, func() {
		for i := 0; i < depth; i++ {
			q.After(Duration(1+i%97), fn).Stop()
		}
		q.After(0, fn)
		q.Run()
	}); got != 0 {
		t.Errorf("schedule + Stop: %v allocations per %d timers, want 0", got, depth)
	}
}

// TestFrontsKeepBirthOrder: ties filed in birth order reach the front
// in that order, across a chain of blocks and through a second
// redistribution, so no front is sorted. A Stop inside the chain, whose
// hole the bucket's newest entry fills, and a cross insert with an
// earlier birth key each break the order once: exactly one front is
// sorted, and dispatch still matches refQueue. FuzzQueueOrder's
// fallbackSeeds reach the same sort.
func TestFrontsKeepBirthOrder(t *testing.T) {
	const ties = 3*blockLen + 5 // per instant: a chain of four blocks
	for _, tc := range []struct {
		name       string
		breakOrder func(m orderModel, ev Event)
		sorts      uint64
	}{
		{"birth order", func(orderModel, Event) {}, 0},
		{"stop", func(m orderModel, _ Event) { m.stop(blockLen + 3) }, 1},
		{"earlier cross", func(m orderModel, ev Event) { m.cross(2, 0.25, 1, ev) }, 1},
	} {
		// Instants 1, 2 and 3 interleaved, born at 0.5: the 1s fill one
		// bucket, the 2s and 3s another, and the 3s reach the front
		// through a second redistribution.
		run := func(m orderModel) []int {
			var log []int
			m.runUntil(0.5)
			for h := range 3 * ties {
				m.at(Time(1+h%3), &tagEvent{h, &log})
			}
			tc.breakOrder(m, &tagEvent{-1, &log})
			for m.step() {
			}
			return log
		}
		qm := &queueModel{}
		got, want := run(qm), run(&refQueue{})
		if !slices.Equal(got, want) {
			t.Errorf("%s: dispatch order %v, reference %v", tc.name, got, want)
		}
		if qm.q.fronts != 3 || qm.q.frontSorts != tc.sorts {
			t.Errorf("%s: %d fronts, %d sorted; want 3, %d", tc.name, qm.q.fronts, qm.q.frontSorts, tc.sorts)
		}
	}
	for i, seed := range fallbackSeeds {
		m := &queueModel{}
		(&orderRunner{m: m}).run(seed)
		if m.q.frontSorts == 0 {
			t.Errorf("fallback seed %d sorts no front", i)
		}
	}
}

// TestNextAt: the earliest pending event's time, through scheduling,
// cancellation and dispatch, and Never once nothing is pending.
func TestNextAt(t *testing.T) {
	var q Queue
	if got := q.NextAt(); got != Never {
		t.Fatalf("empty queue: NextAt = %v, want Never", got)
	}
	q.At(5, func(Time) {})
	early := q.At(2, func(Time) {})
	if got := q.NextAt(); got != 2 {
		t.Fatalf("NextAt = %v, want 2", got)
	}
	early.Stop()
	if got := q.NextAt(); got != 5 {
		t.Fatalf("after Stop: NextAt = %v, want 5", got)
	}
	q.Run()
	if got := q.NextAt(); got != Never {
		t.Fatalf("drained queue: NextAt = %v, want Never", got)
	}
}
