package eventq

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
)

// orderModel is what FuzzQueueOrder drives: the Queue itself, or
// refQueue, a brute-force reference. Every event gets the next handle
// number, in scheduling order, on either side.
type orderModel interface {
	at(at Time, ev Event)
	cross(at, bt Time, bs int32, ev Event)
	stop(h int) bool
	active(h int) bool
	when(h int) Time
	step() bool
	runUntil(end Time)
	runBefore(end Time)
	nextAt() Time
	len() int
	now() Time
}

type queueModel struct {
	q  Queue
	hs []Timer
}

// at schedules a Handler through At and anything else through AtEvent.
func (m *queueModel) at(at Time, ev Event) {
	if fn, ok := ev.(Handler); ok {
		m.hs = append(m.hs, m.q.At(at, fn))
		return
	}
	m.hs = append(m.hs, m.q.AtEvent(at, ev))
}
func (m *queueModel) cross(at, bt Time, bs int32, ev Event) {
	m.hs = append(m.hs, m.q.insertCross(at, bt, bs, ev))
}
func (m *queueModel) stop(h int) bool    { return m.hs[h].Stop() }
func (m *queueModel) active(h int) bool  { return m.hs[h].Active() }
func (m *queueModel) when(h int) Time    { return m.hs[h].When() }
func (m *queueModel) step() bool         { return m.q.Step() }
func (m *queueModel) runUntil(end Time)  { m.q.RunUntil(end) }
func (m *queueModel) runBefore(end Time) { m.q.runBefore(end) }
func (m *queueModel) nextAt() Time       { return m.q.NextAt() }
func (m *queueModel) len() int           { return m.q.Len() }
func (m *queueModel) now() Time          { return m.q.Now() }

// refQueue keeps its pending events in a slice sorted by (at, bt, bs,
// seq), the order the Queue promises, and applies the documented
// scheduling rules directly: a time before Now is Now, -0 is 0.
type refQueue struct {
	pending []*refEvent
	evs     []*refEvent
	clock   Time
	seq     uint64
}

type refEvent struct {
	at, bt Time
	bs     int32
	seq    uint64
	ev     Event
	live   bool
}

func refLess(a, b *refEvent) bool {
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

func (r *refQueue) at(at Time, ev Event) { r.cross(at, r.clock, 0, ev) }
func (r *refQueue) cross(at, bt Time, bs int32, ev Event) {
	if at < r.clock {
		at = r.clock
	}
	if at == 0 {
		at = 0
	}
	e := &refEvent{at: at, bt: bt, bs: bs, seq: r.seq, ev: ev, live: true}
	r.seq++
	r.evs = append(r.evs, e)
	i, _ := slices.BinarySearchFunc(r.pending, e, func(a, b *refEvent) int {
		if refLess(a, b) {
			return -1
		}
		return 1
	})
	r.pending = slices.Insert(r.pending, i, e)
}
func (r *refQueue) stop(h int) bool {
	e := r.evs[h]
	if !e.live {
		return false
	}
	r.pending = slices.DeleteFunc(r.pending, func(p *refEvent) bool { return p == e })
	e.live = false
	return true
}
func (r *refQueue) active(h int) bool { return r.evs[h].live }
func (r *refQueue) when(h int) Time   { return r.evs[h].at }
func (r *refQueue) step() bool {
	if len(r.pending) == 0 {
		return false
	}
	e := r.pending[0]
	r.pending = r.pending[1:]
	e.live = false
	r.clock = e.at
	e.ev.Fire(r.clock)
	return true
}
func (r *refQueue) runUntil(end Time) {
	for len(r.pending) > 0 && r.pending[0].at <= end {
		r.step()
	}
	if r.clock < end {
		r.clock = end
	}
}
func (r *refQueue) runBefore(end Time) {
	for len(r.pending) > 0 && r.pending[0].at < end {
		r.step()
	}
	if r.clock < end {
		r.clock = end
	}
}
func (r *refQueue) nextAt() Time {
	if len(r.pending) == 0 {
		return Never
	}
	return r.pending[0].at
}
func (r *refQueue) len() int  { return len(r.pending) }
func (r *refQueue) now() Time { return r.clock }

// orderRunner decodes one operation stream against a model and logs
// everything observable: each dispatch (handle and clock bits), every
// Stop/Active/When/NextAt answer, and Len and Now after each operation.
type orderRunner struct {
	m   orderModel
	n   int // handles handed out
	log []string
}

func (d *orderRunner) logf(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

// handler is event h's callback: a Handler, or for every third event a
// pointer Event, so pooled-object events and closures share the runs.
// Some events schedule a follow-up when they fire (with delay 0 it ties
// with the firing instant), and some stop an earlier event, which may
// be pending at that same instant.
func (d *orderRunner) handler(h int) Event {
	if h%3 == 2 {
		return &orderEvent{d, h}
	}
	return Handler(func(now Time) { d.fire(h, now) })
}

func (d *orderRunner) fire(h int, now Time) {
	d.logf("fire %d at %x", h, math.Float64bits(float64(now)))
	switch h % 4 {
	case 1:
		d.sched(now + Time(h%3)/4)
	case 2:
		d.logf("stop %d from %d: %v", h/2, h, d.m.stop(h/2))
	}
}

// orderEvent is a pointer Event standing for event h.
type orderEvent struct {
	d *orderRunner
	h int
}

func (e *orderEvent) Fire(now Time) { e.d.fire(e.h, now) }

func (d *orderRunner) sched(at Time) {
	h := d.n
	d.n++
	d.m.at(at, d.handler(h))
}

// gridTime maps a byte to a time on a quarter-second grid, so ties are
// common, with a few special values mixed in.
func gridTime(b byte) Time {
	switch b {
	case 255:
		return Time(math.Copysign(0, -1))
	case 254:
		return Never
	case 253:
		return Time(math.Inf(1))
	}
	return Time(b%64) / 4
}

func (d *orderRunner) run(data []byte) {
	arg := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	for i := 0; i < len(data); i += 4 {
		op, a, b, c := data[i]%12, arg(i+1), arg(i+2), arg(i+3)
		switch op {
		case 0, 1:
			d.sched(gridTime(a))
		case 2:
			d.sched(d.m.now() + Time(a%8)/4 - 0.5) // below Now at times
		case 3:
			h := d.n
			d.n++
			bt := d.m.now() - Time(b%4)/4 // an older birth key
			d.m.cross(gridTime(a), bt, int32(c%4), d.handler(h))
		case 4:
			if d.n > 0 {
				h := int(a) % d.n
				d.logf("stop %d: %v", h, d.m.stop(h))
			}
		case 5:
			if d.n > 0 {
				h := int(a) % d.n
				act := d.m.active(h)
				d.logf("active %d: %v", h, act)
				if act {
					d.logf("when %d: %x", h, math.Float64bits(float64(d.m.when(h))))
				}
			}
		case 6:
			d.logf("next %x", math.Float64bits(float64(d.m.nextAt())))
		case 7, 8:
			// Exactly on the next event's time half of the time.
			end := gridTime(a)
			if b%2 == 0 {
				end = d.m.nextAt()
			}
			if op == 7 {
				d.m.runUntil(end)
			} else {
				d.m.runBefore(end)
			}
		case 9, 10:
			d.logf("step %v", d.m.step())
		case 11:
			d.sched(Time(math.Copysign(0, -1)))
		}
		d.logf("len %d now %x", d.m.len(), math.Float64bits(float64(d.m.now())))
	}
	for d.m.step() {
	}
	d.logf("drained len %d now %x", d.m.len(), math.Float64bits(float64(d.m.now())))
}

// fallbackSeeds are FuzzQueueOrder inputs that each break a bucket's
// birth order once, so a front needs the fallback sort: 40 ties at
// t = 2 (a chain of two blocks), then a Stop of one of them, or a cross
// insert at t = 2 born before them.
var fallbackSeeds = [][]byte{
	append(tiesAt(8, 40), 4, 5, 0, 0),
	append(tiesAt(8, 40), 3, 8, 1, 1),
}

// tiesAt returns n operations that each schedule an event at
// gridTime(a).
func tiesAt(a byte, n int) []byte { return bytes.Repeat([]byte{0, a, 0, 0}, n) }

// FuzzQueueOrder checks the radix heap against refQueue on random mixes
// of At and AtEvent (every third event is a pointer Event), After-like
// offsets below Now, cross-shard inserts with older
// birth keys, Stop through live, fired and stale handles, NextAt, and
// RunUntil/runBefore on and off event boundaries, with -0, +Inf and
// Never times and handlers that schedule and stop events as they fire.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 0, 4, 0, 0, 9, 0, 0, 0, 9})
	// Three ties settled into the front by a horizon on their time, then
	// stopped from the front one after another.
	f.Add([]byte{0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 8, 0, 0, 0, 4, 0, 0, 0, 4, 2, 0, 0, 9, 0, 0, 0, 9})
	f.Add([]byte{3, 8, 2, 3, 3, 8, 0, 1, 0, 8, 0, 0, 7, 0, 0, 0, 4, 1, 0, 0, 5, 2})
	f.Add([]byte{11, 0, 0, 0, 0, 255, 0, 0, 6, 0, 0, 0, 9, 0, 0, 0, 5, 1, 0, 0})
	f.Add([]byte{0, 40, 0, 0, 0, 3, 0, 0, 8, 0, 0, 0, 2, 1, 0, 0, 0, 254, 0, 0, 0, 253, 0, 0, 7, 20, 1, 0, 9})
	seed := make([]byte, 0, 400)
	for i := 0; i < 100; i++ {
		seed = append(seed, byte(i*7%12), byte(i*37), byte(i*11), byte(i*5))
	}
	f.Add(seed)
	for _, seed := range fallbackSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		got := &orderRunner{m: &queueModel{}}
		want := &orderRunner{m: &refQueue{}}
		got.run(data)
		want.run(data)
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("step %d: queue says %q, reference %q", i, got.log[i], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("queue logged %d lines, reference %d", len(got.log), len(want.log))
		}
	})
}

// TestNegativeZeroIsZero: -0 is scheduled as 0. Its raw bits would sort
// after every other time; here it ties with 0 in FIFO order and the
// clock, When and NextAt read +0.
func TestNegativeZeroIsZero(t *testing.T) {
	var q Queue
	var got []int
	negZero := Time(math.Copysign(0, -1))
	q.At(0.5, func(Time) { got = append(got, 3) })
	a := q.At(negZero, func(Time) { got = append(got, 1) })
	q.At(0, func(Time) { got = append(got, 2) })
	if math.Signbit(float64(a.When())) || math.Signbit(float64(q.NextAt())) || q.NextAt() != 0 {
		t.Fatalf("When = %v, NextAt = %v: want +0", a.When(), q.NextAt())
	}
	q.Step()
	if math.Signbit(float64(q.Now())) {
		t.Fatal("clock reads -0 after dispatching a -0 event")
	}
	q.Run()
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("dispatch order %v, want [1 2 3]", got)
	}
}

// TestNaNTime: scheduling at NaN panics — NaN has no place in the order —
// and a NaN horizon dispatches nothing and leaves the clock alone, on a
// queue and on 1- and 2-shard groups (sync tasks included).
func TestNaNTime(t *testing.T) {
	var q Queue
	nan := Time(math.NaN())
	for name, schedule := range map[string]func(){
		"At":          func() { q.At(nan, func(Time) {}) },
		"After":       func() { q.After(Duration(nan), func(Time) {}) },
		"insertCross": func() { q.insertCross(nan, 0, 1, Handler(func(Time) {})) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			schedule()
		}()
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after refused schedules, want 0", q.Len())
	}
	q.At(1, func(Time) {})
	q.RunUntil(nan)
	q.runBefore(nan)
	if q.Len() != 1 || q.Now() != 0 {
		t.Fatalf("NaN horizon: Len = %d, Now = %v; want 1, 0", q.Len(), q.Now())
	}
	for _, shards := range []int{1, 2} {
		g := NewShardGroup(shards, 1)
		fired := false
		g.Queue(shards-1).At(1, func(Time) { fired = true })
		g.Sync(1, func(Time) { fired = true })
		g.Run(nan)
		if fired || g.Now() != 0 || g.Queue(shards-1).Len() != 1 {
			t.Fatalf("%d-shard group, NaN horizon: fired = %v, Now = %v, Len = %d; want false, 0, 1",
				shards, fired, g.Now(), g.Queue(shards-1).Len())
		}
	}
}
