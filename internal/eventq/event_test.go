package eventq

import (
	"slices"
	"testing"

	"sharqfec/internal/parallel"
)

// tagEvent is a pooled-object Event: firing it logs its tag.
type tagEvent struct {
	tag int
	log *[]int
}

func (e *tagEvent) Fire(Time) { *e.log = append(*e.log, e.tag) }

// TestEventsAndHandlersShareFIFOOrder: Events queued with AtEvent and
// Handlers queued with At at one instant dispatch in the one birth
// order, whichever kind each is.
func TestEventsAndHandlersShareFIFOOrder(t *testing.T) {
	var q Queue
	var got []int
	for i := range 12 {
		if i%3 == 0 {
			q.At(5, func(Time) { got = append(got, i) })
		} else {
			q.AtEvent(5, &tagEvent{i, &got})
		}
	}
	q.AtEvent(4, &tagEvent{-1, &got})
	q.Run()
	if want := []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}; !slices.Equal(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestCrossEventsAndHandlersShareFIFOOrder: the same at K = 2 across
// the barrier merge. Shard 0 posts Handlers and Events, alternating, to
// shard 1 for t = 1.5; shard 1 queues its own mix for that instant. The
// posts dispatch first, in posting order (birth shard 0 before 1), then
// shard 1's own, in scheduling order.
func TestCrossEventsAndHandlersShareFIFOOrder(t *testing.T) {
	g := NewShardGroup(2, 0.5)
	var got []int
	mix := func(base int, schedule func(ev Event)) {
		for i := range 6 {
			tag := base + i
			if i%2 == 0 {
				schedule(Handler(func(Time) { got = append(got, tag) }))
			} else {
				schedule(&tagEvent{tag, &got})
			}
		}
	}
	g.Queue(0).At(1, func(now Time) {
		mix(0, func(ev Event) {
			if fn, ok := ev.(Handler); ok {
				g.Post(0, 1, now.Add(0.5), fn)
			} else {
				g.PostEvent(0, 1, now.Add(0.5), ev)
			}
		})
	})
	g.Queue(1).At(1, func(now Time) {
		mix(10, func(ev Event) {
			if fn, ok := ev.(Handler); ok {
				g.Queue(1).At(now.Add(0.5), fn)
			} else {
				g.Queue(1).AtEvent(now.Add(0.5), ev)
			}
		})
	})
	g.Run(2)
	if want := []int{0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15}; !slices.Equal(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestPointerEventsAllocateNothing: queueing a pointer Event binds no
// closure. Once the queue (and for PostEvent, the outboxes and the
// merge buffer) has grown, AtEvent and PostEvent of a pointer Event,
// with its dispatch, allocate nothing. The group runs with no worker
// to win, since a worker costs a goroutine per Run.
func TestPointerEventsAllocateNothing(t *testing.T) {
	var log []int
	evs := make([]*tagEvent, 64)
	for i := range evs {
		evs[i] = &tagEvent{i, &log}
	}

	var q Queue
	queue := func() {
		log = log[:0]
		for i, ev := range evs {
			q.AtEvent(q.Now().Add(Duration(i%5)), ev)
		}
		q.Run()
	}
	queue()
	if allocs := testing.AllocsPerRun(100, queue); allocs != 0 {
		t.Errorf("AtEvent: %v allocations per %d pointer events, want 0", allocs, len(evs))
	}

	defer parallel.SetLimit(0)()
	const lookahead = 0.5
	g := NewShardGroup(2, lookahead)
	var ticks [2]Handler
	for i := range ticks {
		ticks[i] = func(now Time) {
			for p, ev := range evs {
				g.PostEvent(i, 1-i, now.Add(lookahead+Duration(p%3)), ev)
			}
		}
	}
	segment := func() {
		log = log[:0]
		now := g.Now()
		for i, tick := range ticks {
			g.Queue(i).At(now, tick)
		}
		g.Run(now.Add(4))
	}
	segment()
	if allocs := testing.AllocsPerRun(100, segment); allocs != 0 {
		t.Errorf("PostEvent: %v allocations per warm segment of %d pointer events, want 0", allocs, 2*len(evs))
	}
	if len(log) != 2*len(evs) {
		t.Errorf("%d posted events fired in the last segment, want %d", len(log), 2*len(evs))
	}
}
