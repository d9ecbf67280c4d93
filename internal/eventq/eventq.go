// Package eventq implements the discrete-event core of the simulator:
// a virtual clock, a specialized 4-ary-heap event queue, and cancellable
// timers.
//
// All protocol and network behaviour in this repository is driven by
// one Queue per simulation shard. Events scheduled for the same instant
// are dispatched in FIFO order (a strictly increasing sequence number
// breaks ties), which keeps simulations fully deterministic for a given
// seed.
//
// The queue is a monomorphic 4-ary heap rather than container/heap: the
// interface-based heap boxes every operation behind dynamic dispatch and
// forces one *event allocation per scheduled event. Here sift-up/down are
// inlined and popped or cancelled events return to a free list, so
// steady-state scheduling allocates nothing. Timer handles carry a
// generation counter so a recycled event can never be stopped or queried
// through a stale handle. The (time, birth-key, seq) ordering is total,
// so the heap shape never affects dispatch order — determinism is
// untouched.
//
// ShardGroup advances one or more queues under conservative lookahead,
// concurrently when there are several, exchanging cross-shard events at
// barrier epochs; see shard.go.
package eventq

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in simulated time, measured in seconds since the start
// of the simulation. float64 seconds are what the paper's scenario is
// specified in (t=1 s join, t=6 s source on, 0.1 s measurement bins) and
// give sub-nanosecond resolution over the minutes-long runs used here.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration float64

// Seconds returns the time as a plain float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time with millisecond precision, e.g. "12.345s".
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Std converts a simulated duration to a time.Duration for display.
func (d Duration) Std() time.Duration { return time.Duration(float64(d) * float64(time.Second)) }

// Seconds returns the duration as a plain float64 second count.
func (d Duration) Seconds() float64 { return float64(d) }

// Never is a sentinel time later than any event a simulation schedules.
const Never = Time(math.MaxFloat64)

// Handler is the callback invoked when an event fires. It runs on the
// simulation goroutine; it may schedule further events but must not block.
type Handler func(now Time)

// event is a single queue entry. Events are recycled through the queue's
// free list; gen distinguishes incarnations so stale Timer handles go
// inert instead of acting on the recycled entry.
//
// Besides the scheduled time, every event carries its birth key: the
// virtual time at which it was scheduled (bt) and the shard of the queue
// that scheduled it (bs). Within one queue bt is non-decreasing in seq
// and bs is constant, so the (at, bt, bs, seq) heap order below is
// exactly the classic (at, seq) FIFO order. Across queues the birth
// key is the piece of the total order that survives sharding: seq
// counters of different shards are not comparable, but (at, bt, bs) is,
// which is what makes the parallel shard runner's merge deterministic
// and shard-count-invariant.
type event struct {
	at    Time
	bt    Time   // birth time: Now() of the scheduling queue
	seq   uint64 // FIFO tie-break for identical (at, bt, bs)
	fn    Handler
	index int32  // heap index, -1 while on the free list
	gen   uint32 // incremented every time the event leaves the heap
	bs    int32  // birth shard: shard ID of the scheduling queue
}

// Timer is a handle to a scheduled event that can be stopped or queried.
// The zero Timer is inert: Stop and Active return false.
type Timer struct {
	q   *Queue
	ev  *event
	gen uint32
}

// Stop cancels the timer. It reports whether the call prevented the
// handler from firing (false if it already fired or was already stopped).
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.index < 0 {
		return false
	}
	t.q.remove(int(t.ev.index))
	// Recycling releases the handler closure: protocol agents hold Timer
	// handles long after cancellation, and under heavy cancel/reschedule
	// churn (the fault engine's pattern) retained closures are the only
	// thing keeping dead per-packet state alive.
	t.q.recycle(t.ev)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// When returns the simulated time at which the timer will fire.
// It is meaningful only while Active.
func (t Timer) When() Time { return t.ev.at }

// Queue is a discrete-event queue with a virtual clock.
// The zero value is ready to use.
type Queue struct {
	h         []*event
	free      []*event
	now       Time
	seq       uint64
	dispatchN uint64
	// shard is the queue's shard ID, stamped on every scheduled event's
	// birth key. Standalone queues are shard 0.
	shard int32
}

// setShard assigns the queue's shard ID for event birth keys. The shard
// runner calls it once at construction, before any events exist.
func (q *Queue) setShard(id int32) { q.shard = id }

// Now returns the current simulated time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Dispatched returns the number of events executed so far.
func (q *Queue) Dispatched() uint64 { return q.dispatchN }

// NextAt returns the time of the earliest pending event, or Never when
// the queue is empty — what a wall-clock driver sleeps until.
func (q *Queue) NextAt() Time {
	if len(q.h) == 0 {
		return Never
	}
	return q.h[0].at
}

// FreeLen returns the number of event records parked on the free list,
// i.e. pooled capacity not currently scheduled. Together with Len it
// bounds the queue's resident event footprint for observability.
func (q *Queue) FreeLen() int { return len(q.free) }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) is clamped to Now: the event runs next, preserving order.
func (q *Queue) At(at Time, fn Handler) Timer {
	if at < q.now {
		at = q.now
	}
	return q.insert(at, q.now, q.shard, fn)
}

// insertCross schedules fn with an explicit birth key, preserving the
// (bt, bs) of the event's true origin. The shard runner uses it at
// barrier epochs to land cross-shard deliveries in the destination
// queue under the same total order a single queue would have used.
func (q *Queue) insertCross(at, bt Time, bs int32, fn Handler) Timer {
	if at < q.now {
		at = q.now
	}
	return q.insert(at, bt, bs, fn)
}

func (q *Queue) insert(at, bt Time, bs int32, fn Handler) Timer {
	var ev *event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.bt = bt
	ev.bs = bs
	ev.seq = q.seq
	ev.fn = fn
	q.seq++
	ev.index = int32(len(q.h))
	q.h = append(q.h, ev)
	q.siftUp(len(q.h) - 1)
	return Timer{q: q, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current simulated time.
// Negative d is treated as zero.
func (q *Queue) After(d Duration, fn Handler) Timer {
	if d < 0 {
		d = 0
	}
	return q.At(q.now.Add(d), fn)
}

// Step dispatches the earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (q *Queue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	ev := q.h[0]
	q.remove(0)
	q.now = ev.at
	q.dispatchN++
	fn := ev.fn
	// Recycle before dispatch: the handler may schedule new events and
	// reuse this entry immediately — recycle bumps gen first, so every
	// outstanding handle to the firing event is already inert.
	q.recycle(ev)
	fn(q.now)
	return true
}

// Run dispatches events until the queue is empty.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// RunUntil dispatches events with timestamps <= end, then advances the
// clock to end (if the clock has not already passed it). Events scheduled
// after end remain queued.
func (q *Queue) RunUntil(end Time) {
	for len(q.h) > 0 && q.h[0].at <= end {
		q.Step()
	}
	if q.now < end {
		q.now = end
	}
}

// runBefore dispatches events with timestamps strictly before end, then
// advances the clock to end. The shard runner's epochs are half-open
// [T, T+L): an event exactly at an epoch boundary belongs to the next
// epoch, after cross-shard arrivals for that boundary have been merged
// (a cross event posted at time t lands at t+latency ≥ T+L, i.e. never
// earlier than the boundary — but possibly exactly on it).
func (q *Queue) runBefore(end Time) {
	for len(q.h) > 0 && q.h[0].at < end {
		q.Step()
	}
	if q.now < end {
		q.now = end
	}
}

// recycle invalidates outstanding Timer handles for ev, releases its
// handler closure, and returns it to the free list.
func (q *Queue) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	q.free = append(q.free, ev)
}

// less orders events by (time, birth time, birth shard, seq) — a total
// order, so dispatch order is independent of heap layout. For events
// scheduled by this queue itself, bt is non-decreasing in seq and bs is
// constant, so the order degenerates to the classic (time, seq) FIFO
// order; the extra keys only separate cross-shard arrivals, whose seq
// (assigned at merge time) would otherwise be meaningless.
func (q *Queue) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.bt != b.bt {
		return a.bt < b.bt
	}
	if a.bs != b.bs {
		return a.bs < b.bs
	}
	return a.seq < b.seq
}

// remove deletes the event at heap index i, restoring the heap property.
func (q *Queue) remove(i int) {
	h := q.h
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = int32(i)
	}
	h[n] = nil
	q.h = h[:n]
	ev.index = -1
	if i < n {
		q.siftDown(i)
		q.siftUp(i)
	}
}

// siftUp moves the event at index i toward the root until its parent is
// not later.
func (q *Queue) siftUp(i int) {
	h := q.h
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !q.less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
}

// siftDown moves the event at index i toward the leaves until no child
// precedes it. The 4-ary layout halves tree depth versus binary, and the
// wider node stays within one cache line of children pointers.
func (q *Queue) siftDown(i int) {
	h := q.h
	n := len(h)
	ev := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(h[c], h[best]) {
				best = c
			}
		}
		if !q.less(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].index = int32(i)
		i = best
	}
	h[i] = ev
	ev.index = int32(i)
}
