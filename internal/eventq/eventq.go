// Package eventq implements the discrete-event core of the simulator:
// a virtual clock, a radix-heap event queue, and cancellable timers.
//
// All protocol and network behaviour in this repository is driven by
// one Queue per simulation shard. Events scheduled for the same instant
// are dispatched in FIFO order (a strictly increasing sequence number
// breaks ties), which keeps simulations fully deterministic for a given
// seed.
//
// The queue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, J. ACM
// 1990). A simulator never schedules an event before Now, so its queue
// is monotone, and a monotone queue need not keep a total order over
// everything pending: far-future timers sit untouched in coarse buckets
// while the near-future traffic is sorted as it comes due. Each bucket
// keeps its records in birth order, which only a Stop or a cross-shard
// arrival breaks, so a group of ties mostly comes due already sorted
// and is only checked: 0.04 % of such groups need the sort on a
// national session pass, 4.5 % on Fig-17. Event records live in
// fixed-size chunks and bucket entries in blocks from one shared pool,
// both recycled, so steady-state scheduling allocates nothing. Timer
// handles carry a generation counter so a recycled record can never be
// stopped or queried through a stale handle. The (time, birth-key, seq)
// ordering is total, so the queue's layout never affects dispatch
// order — determinism is untouched.
//
// What a record runs is an Event: anything with a Fire method. A
// Handler (a plain func) is one; a pooled struct that implements Fire
// itself is another, and queueing a pointer to it costs no closure —
// storing a func or a pointer in an interface does not allocate. At,
// After and ShardGroup.Post take Handlers and are thin wrappers over
// AtEvent and ShardGroup.PostEvent, the one record path.
//
// ShardGroup advances one or more queues under conservative lookahead,
// concurrently when there are several, exchanging cross-shard events at
// barrier epochs; see shard.go.
package eventq

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// Event is what the queue runs when a scheduled time comes due. Fire
// runs on the simulation goroutine; it may schedule further events but
// must not block.
type Event interface {
	Fire(now Time)
}

// Handler is a plain callback Event: Fire calls it. Code that needs
// per-event state binds it in a closure; a pooled object that already
// holds that state implements Event itself instead and is queued with
// AtEvent or PostEvent, which allocates no closure.
type Handler func(now Time)

// Fire runs the handler.
func (h Handler) Fire(now Time) { h(now) }

// timeKey maps a time at or after 0 to the radix heap's key. The IEEE-754
// bits of a non-negative float64 order exactly like its value; clearing
// the sign bit files -0 as 0, whose raw bits would otherwise sort last.
func timeKey(t Time) uint64 { return math.Float64bits(float64(t)) &^ (1 << 63) }

func keyTime(k uint64) Time { return Time(math.Float64frombits(k)) }

// seqBits is the width of the sequence number in a record's packed
// (birth shard, seq) word; the shard takes the 16 bits above it. 2⁴⁸
// events is years of dispatch at today's rate.
const seqBits = 48

// MaxShards is the most shards a ShardGroup runs: the birth shard must
// fit in the bits of the packed word above seqBits.
const MaxShards = 1 << (64 - seqBits)

// record is a single event's storage, addressed by its int32 id. Records
// are recycled through the queue's free list; gen distinguishes
// incarnations — it is odd while the record is scheduled and even while
// it is free — so stale Timer handles go inert instead of acting on the
// recycled entry.
//
// Besides the scheduled time, every event carries its birth key: the
// virtual time at which it was scheduled (bt) and the shard of the queue
// that scheduled it (bs). Within one queue bt is non-decreasing in seq
// and bs is constant, so the (at, bt, bs, seq) order below is exactly
// the classic (at, seq) FIFO order. Across queues the birth key is the
// piece of the total order that survives sharding: seq counters of
// different shards are not comparable, but (at, bt, bs) is, which is
// what makes the parallel shard runner's merge deterministic and
// shard-count-invariant.
type record struct {
	key uint64 // timeKey of the scheduled time
	bt  Time   // birth time: Now() of the scheduling queue
	bsq uint64 // birth shard << seqBits | seq (FIFO tie-break)
	ev  Event
	pos int32 // index in the front, or in the record's bucket
	gen uint32
}

// before orders records with equal keys by (bt, bs, seq).
func before(a, b *record) bool {
	if a.bt != b.bt {
		return a.bt < b.bt
	}
	return a.bsq < b.bsq
}

// chunkLen records make one slab chunk; chunks never move once made.
const chunkLen = 1024

// blockLen bucket entries make one block. A bucket is a chain of blocks
// in filing order, oldest first, its newest (the tail) filling up last;
// keys sit inline, so a bucket is read as contiguous runs. Blocks come
// from one pool shared by every bucket, so at most ⌈Len/blockLen⌉ + 63
// are in use: once the pool has grown that far, filing records
// allocates nothing wherever their keys land.
const blockLen = 32

type block struct {
	key  [blockLen]uint64
	id   [blockLen]int32
	next int32 // next (newer) block of the bucket, -1 after the tail
	prev int32 // previous (older) block, -1 before the head
}

// bucket is a block chain from head, its oldest block, to tail, its
// newest, which holds n entries; every other block is full.
type bucket struct{ head, tail, n int32 }

// Timer is a handle to a scheduled event that can be stopped or queried.
// The zero Timer is inert: Stop and Active return false.
type Timer struct {
	q   *Queue
	id  int32
	gen uint32
}

// Stop cancels the timer. It reports whether the call prevented the
// handler from firing (false if it already fired or was already stopped).
func (t Timer) Stop() bool {
	if t.q == nil {
		return false
	}
	r := t.q.rec(t.id)
	if r.gen != t.gen {
		return false
	}
	t.q.unlink(r)
	// Recycling releases the event: protocol agents hold Timer handles
	// long after cancellation, and under heavy cancel/reschedule churn
	// (the fault engine's pattern) retained closures are the only thing
	// keeping dead per-packet state alive.
	t.q.recycle(t.id, r)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.q != nil && t.q.rec(t.id).gen == t.gen
}

// When returns the simulated time at which the timer will fire.
// It is meaningful only while Active.
func (t Timer) When() Time { return keyTime(t.q.rec(t.id).key) }

// Queue is a discrete-event queue with a virtual clock.
// The zero value is ready to use.
//
// Every pending key is at least last, the key the queue last settled
// on. Records keyed exactly last wait in front, sorted by (bt, bs, seq)
// from fhead on; any other record sits in bucket i = bits.Len64(key ^
// last), the position of the highest bit in which its key differs from
// last. When the front runs dry, the lowest non-empty bucket is
// redistributed around its smallest key, which sends each of its
// records to a strictly lower bucket or to the front — so a record is
// moved at most 63 times however long it stays queued.
//
// A bucket holds its records in the order they were filed, and that
// is birth order: a queue's own inserts are born after every record
// it holds, and a redistribution walks the bucket oldest first into
// lower buckets that are all empty. Only two things break the order:
// Stop, which fills its hole with the bucket's newest entry, and a
// cross-shard arrival (insertCross) born before records already
// filed. So a front comes out of redistribute almost always in order
// (all but 0.04 % of fronts on a national session pass), and is sorted
// only when the walk finds an inversion.
type Queue struct {
	chunks []*[chunkLen]record
	nrec   int32 // records made: each is pending or on the free list
	free   []int32

	last    uint64
	front   []int32
	fhead   int
	bkt     [64]bucket
	full    uint64 // bit i set iff bkt[i] is non-empty
	blocks  []*block
	freeBlk []int32

	now       Time
	seq       uint64
	dispatchN uint64
	// fronts counts redistributions that left more than one record in
	// the front; frontSorts, those of them that needed the sort. filed
	// counts the records file placed in a bucket: inserts not keyed to
	// the front, plus every re-file of a redistribution.
	fronts, frontSorts, filed uint64
	// Clock, when set, gives the time each handler is told it runs at,
	// in place of its event's own time; the queue's clock (Now) still
	// moves to the event's time. A queue driven by the wall clock sets
	// it, so a handler run late learns when it actually ran.
	Clock func() Time
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
func (q *Queue) Len() int { return int(q.nrec) - len(q.free) }

// Dispatched returns the number of events executed so far.
func (q *Queue) Dispatched() uint64 { return q.dispatchN }

// NextAt returns the time of the earliest pending event, or Never when
// the queue is empty — what a wall-clock driver sleeps until.
func (q *Queue) NextAt() Time {
	if len(q.front) > 0 {
		return keyTime(q.last)
	}
	if q.full == 0 {
		return Never
	}
	return keyTime(q.minKey(bits.TrailingZeros64(q.full), math.MaxUint64))
}

// FreeLen returns the number of event records parked on the free list,
// i.e. pooled capacity not currently scheduled. Together with Len it
// bounds the queue's resident event footprint for observability.
func (q *Queue) FreeLen() int { return len(q.free) }

// At schedules fn to run at absolute time at; see AtEvent.
func (q *Queue) At(at Time, fn Handler) Timer { return q.AtEvent(at, fn) }

// AtEvent schedules ev to fire at absolute time at. Scheduling in the
// past (before Now) is clamped to Now: the event runs next, preserving
// order. A time of -0 is 0. A NaN time panics: it has no place in the
// order. Events and Handlers share one FIFO order at equal times.
func (q *Queue) AtEvent(at Time, ev Event) Timer {
	return q.insertCross(at, q.now, q.shard, ev)
}

// insertCross schedules ev with an explicit birth key, preserving the
// (bt, bs) of the event's true origin. The shard runner uses it at
// barrier epochs to land cross-shard deliveries in the destination
// queue under the same total order a single queue would have used.
func (q *Queue) insertCross(at, bt Time, bs int32, ev Event) Timer {
	if at < q.now {
		at = q.now
	}
	return q.insert(at, bt, bs, ev)
}

func (q *Queue) insert(at, bt Time, bs int32, ev Event) Timer {
	if math.IsNaN(float64(at)) {
		panic("eventq: event scheduled at NaN")
	}
	id := q.alloc()
	r := q.rec(id)
	r.key = timeKey(at)
	r.bt = bt
	r.bsq = uint64(bs)<<seqBits | q.seq
	q.seq++
	r.ev = ev
	r.gen++
	if r.key == q.last {
		q.pushFront(id, r)
	} else {
		q.file(r.key, id, r)
	}
	return Timer{q: q, id: id, gen: r.gen}
}

// After schedules fn to run d after the current simulated time.
// Negative d is treated as zero.
func (q *Queue) After(d Duration, fn Handler) Timer {
	if d < 0 {
		d = 0
	}
	return q.AtEvent(q.now.Add(d), fn)
}

// Step dispatches the earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (q *Queue) Step() bool {
	if !q.settle(math.MaxUint64, true) {
		return false
	}
	q.dispatch()
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
func (q *Queue) RunUntil(end Time) { q.runTo(end, true) }

// runBefore dispatches events with timestamps strictly before end, then
// advances the clock to end. The shard runner's epochs are half-open
// [T, T+L): an event exactly at an epoch boundary belongs to the next
// epoch, after cross-shard arrivals for that boundary have been merged
// (a cross event posted at time t lands at t+latency ≥ T+L, i.e. never
// earlier than the boundary — but possibly exactly on it).
func (q *Queue) runBefore(end Time) { q.runTo(end, false) }

// runTo dispatches the events due by end (inclusive or not) and moves the
// clock to end. An end before Now (or NaN) has nothing due.
func (q *Queue) runTo(end Time, inclusive bool) {
	if !(end >= q.now) {
		return
	}
	lim := timeKey(end)
	for q.settle(lim, inclusive) {
		q.dispatch()
	}
	if q.now < end {
		q.now = end
	}
}

// settle brings the earliest pending events to the front and reports
// whether they are due: keyed below lim, or at lim when inclusive. When
// none is due the lowest bucket is still redistributed around lim, so the
// next call starts from there; that is sound because lim is never below
// last, and the caller moves the clock to lim, so no later event is keyed
// below it.
func (q *Queue) settle(lim uint64, inclusive bool) bool {
	if len(q.front) == 0 {
		if q.full == 0 {
			return false
		}
		b := bits.TrailingZeros64(q.full)
		q.redistribute(b, q.minKey(b, lim))
		if len(q.front) == 0 {
			return false
		}
	}
	return q.last < lim || inclusive && q.last == lim
}

// dispatch pops the first record of the front and fires its event.
func (q *Queue) dispatch() {
	id := q.front[q.fhead]
	q.fhead++
	if q.fhead == len(q.front) {
		q.front = q.front[:0]
		q.fhead = 0
	}
	r := q.rec(id)
	q.now = keyTime(r.key)
	q.dispatchN++
	ev := r.ev
	// Recycle before dispatch: the event may schedule new events and
	// reuse this record immediately — recycle bumps gen first, so every
	// outstanding handle to the firing event is already inert.
	q.recycle(id, r)
	if q.Clock != nil {
		ev.Fire(q.Clock())
		return
	}
	ev.Fire(q.now)
}

// redistribute empties bucket b, the lowest non-empty one, around the new
// base key: records keyed base go to the (empty) front, sorted, and the
// rest to the buckets their keys now select. base must lie between last
// and the bucket's smallest key; every record of bucket b shares its bits
// from b up with last and so with base, which leaves the higher buckets'
// contents where they are.
//
// The bucket is walked oldest block first, so its records reach the
// front and the lower buckets in the order they were filed, which is
// birth order unless a Stop's hole fill or an earlier-born cross-shard
// arrival broke it (see Queue). The walk checks that order as it sets
// each front record's pos, and the front is sorted only when the walk
// finds an inversion: for 24 of 61,748 fronts of two or more records on
// a national session pass at seed 1998, and 1,791 of 40,154 on Fig-17.
func (q *Queue) redistribute(b int, base uint64) {
	bk := q.bkt[b]
	q.full &^= 1 << b
	q.last = base
	var prev *record
	sorted := true
	for blk := bk.head; blk >= 0; {
		x := q.blocks[blk]
		n := int32(blockLen)
		if blk == bk.tail {
			n = bk.n
		}
		for j, k := range x.key[:n] {
			r := q.rec(x.id[j])
			if k != base {
				q.file(k, x.id[j], r)
				continue
			}
			if prev != nil && before(r, prev) {
				sorted = false
			}
			r.pos = int32(len(q.front))
			q.front = append(q.front, x.id[j])
			prev = r
		}
		q.freeBlk = append(q.freeBlk, blk)
		blk = x.next
	}
	if len(q.front) < 2 {
		return
	}
	q.fronts++
	if sorted {
		return
	}
	q.frontSorts++
	slices.SortFunc(q.front, func(x, y int32) int {
		rx, ry := q.rec(x), q.rec(y)
		if before(rx, ry) {
			return -1
		}
		if before(ry, rx) {
			return 1
		}
		return 0
	})
	for i, id := range q.front {
		q.rec(id).pos = int32(i)
	}
}

// minKey returns the smallest key in non-empty bucket b, or lim if that
// is smaller.
func (q *Queue) minKey(b int, lim uint64) uint64 {
	m := lim
	bk := &q.bkt[b]
	for blk := bk.head; blk >= 0; {
		x := q.blocks[blk]
		n := int32(blockLen)
		if blk == bk.tail {
			n = bk.n
		}
		for _, k := range x.key[:n] {
			m = min(m, k)
		}
		blk = x.next
	}
	return m
}

// file appends a record keyed other than last to its bucket.
func (q *Queue) file(key uint64, id int32, r *record) {
	i := bits.Len64(key ^ q.last)
	bk := &q.bkt[i]
	if q.full&(1<<i) == 0 {
		blk := q.newBlock(-1)
		bk.head, bk.tail, bk.n = blk, blk, 0
		q.full |= 1 << i
	} else if bk.n == blockLen {
		blk := q.newBlock(bk.tail)
		q.blocks[bk.tail].next = blk
		bk.tail, bk.n = blk, 0
	}
	x := q.blocks[bk.tail]
	x.key[bk.n] = key
	x.id[bk.n] = id
	r.pos = bk.tail*blockLen + bk.n
	bk.n++
	q.filed++
}

// newBlock takes a block from the pool, or makes one, to be the tail of
// a chain whose previous block is prev.
func (q *Queue) newBlock(prev int32) int32 {
	var id int32
	if n := len(q.freeBlk); n > 0 {
		id = q.freeBlk[n-1]
		q.freeBlk = q.freeBlk[:n-1]
	} else {
		id = int32(len(q.blocks))
		q.blocks = append(q.blocks, new(block))
	}
	x := q.blocks[id]
	x.next, x.prev = -1, prev
	return id
}

// pushFront inserts a record keyed last into the front at its (bt, bs,
// seq) place. A queue's own events are born in order, so the place is
// almost always the end.
func (q *Queue) pushFront(id int32, r *record) {
	q.front = append(q.front, id)
	j := len(q.front) - 1
	for ; j > q.fhead; j-- {
		p := q.rec(q.front[j-1])
		if !before(r, p) {
			break
		}
		q.front[j] = q.front[j-1]
		p.pos = int32(j)
	}
	q.front[j] = id
	r.pos = int32(j)
}

// unlink takes a pending record out of the front or its bucket.
func (q *Queue) unlink(r *record) {
	p := int(r.pos)
	if r.key == q.last {
		f := q.front
		copy(f[p:], f[p+1:])
		f = f[:len(f)-1]
		for i := p; i < len(f); i++ {
			q.rec(f[i]).pos = int32(i)
		}
		if q.fhead == len(f) {
			f, q.fhead = f[:0], 0
		}
		q.front = f
		return
	}
	// Fill the hole with the bucket's newest entry. That entry now sits
	// ahead of records born before it: one of the two ways a bucket
	// leaves birth order.
	i := bits.Len64(r.key ^ q.last)
	bk := &q.bkt[i]
	t := q.blocks[bk.tail]
	bk.n--
	if last := bk.tail*blockLen + bk.n; int32(p) != last {
		x := q.blocks[p/blockLen]
		x.key[p%blockLen] = t.key[bk.n]
		x.id[p%blockLen] = t.id[bk.n]
		q.rec(t.id[bk.n]).pos = int32(p)
	}
	if bk.n == 0 {
		q.freeBlk = append(q.freeBlk, bk.tail)
		if t.prev < 0 {
			q.full &^= 1 << i
		} else {
			bk.tail, bk.n = t.prev, blockLen
			q.blocks[bk.tail].next = -1
		}
	}
}

// rec returns the record with the given id.
func (q *Queue) rec(id int32) *record {
	return &q.chunks[uint32(id)/chunkLen][uint32(id)%chunkLen]
}

// alloc takes a record from the free list, or makes one, opening a new
// chunk when the last is full.
func (q *Queue) alloc() int32 {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		return id
	}
	id := q.nrec
	if id%chunkLen == 0 {
		q.chunks = append(q.chunks, new([chunkLen]record))
	}
	q.nrec++
	return id
}

// recycle invalidates outstanding Timer handles for a record, releases
// its event, and returns it to the free list.
func (q *Queue) recycle(id int32, r *record) {
	r.gen++
	r.ev = nil
	q.free = append(q.free, id)
}
