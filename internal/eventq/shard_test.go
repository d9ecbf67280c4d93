package eventq

import (
	"slices"
	"sync/atomic"
	"testing"

	"sharqfec/internal/parallel"
)

// shardSim is a synthetic token-passing workload whose behaviour is
// independent of the shard count by construction: per-token delays
// depend only on (node, hop), never on shard ownership, so any
// divergence between shard counts is the runner's fault.
type shardSim struct {
	g     *ShardGroup
	owner []int
	hash  []uint64
	n     int
	fires atomic.Int64 // arrive runs on every shard's worker
}

const simLookahead = 0.013

func newShardSim(nodes, shards int) *shardSim {
	s := &shardSim{
		g:     NewShardGroup(shards, simLookahead),
		owner: make([]int, nodes),
		hash:  make([]uint64, nodes),
		n:     nodes,
	}
	for i := range s.owner {
		s.owner[i] = i % shards
	}
	return s
}

// delay is ≥ lookahead for every hop, so cross-shard sends always
// respect the conservative window; it depends only on (node, hop).
func simDelay(node, hop int) Duration {
	return simLookahead + 1e-4 + Duration((node*1009+hop*9973)%8191)*1e-7
}

func (s *shardSim) send(from, to, hop int, at Time) {
	fn := func(now Time) { s.arrive(to, hop, now) }
	if s.owner[from] == s.owner[to] {
		s.g.Queue(s.owner[from]).At(at, fn)
	} else {
		s.g.Post(s.owner[from], s.owner[to], at, fn)
	}
}

func (s *shardSim) arrive(node, hop int, now Time) {
	h := s.hash[node]
	h = h*0x100000001b3 ^ uint64(node) ^ uint64(hop)<<16 ^ uint64(float64(now)*1e9)
	s.hash[node] = h
	s.fires.Add(1)
	if hop >= 40 {
		return
	}
	if hop%7 == 3 {
		return // token dies
	}
	next := (node*7 + hop + 1) % s.n
	s.send(node, next, hop+1, now.Add(simDelay(node, hop)))
	if hop%5 == 0 {
		s.send(node, (node+hop+3)%s.n, hop+1, now.Add(simDelay(next, hop)))
	}
}

func (s *shardSim) digest() uint64 {
	d := uint64(0xcbf29ce484222325)
	for _, h := range s.hash {
		d = d*0x100000001b3 ^ h
	}
	return d
}

func (s *shardSim) run(t *testing.T) uint64 {
	t.Helper()
	// Inject one token per node via a sync task, the way the facade
	// joins agents: single-threaded at a barrier.
	s.g.Sync(0.5, func(now Time) {
		for i := 0; i < s.n; i++ {
			node := i
			s.g.Queue(s.owner[node]).At(now.Add(Duration(node)*1e-3), func(at Time) {
				s.arrive(node, 0, at)
			})
		}
	})
	s.g.Run(10)
	if s.fires.Load() == 0 {
		t.Fatal("simulation dispatched nothing")
	}
	return s.digest()
}

// TestShardCountInvariance is the runner's core contract: identical
// results at every shard count.
func TestShardCountInvariance(t *testing.T) {
	want := newShardSim(12, 1).run(t)
	for _, k := range []int{2, 3, 4, 7} {
		if got := newShardSim(12, k).run(t); got != want {
			t.Errorf("shards=%d digest %#x, want %#x (shards=1)", k, got, want)
		}
	}
}

// TestShardGroupParallelWorkers re-runs the invariance check with the
// worker budget forced wide and narrow; under -race this also proves
// the epoch barriers publish queue and outbox state correctly.
func TestShardGroupParallelWorkers(t *testing.T) {
	restore := parallel.SetLimit(3)
	wide := newShardSim(12, 4).run(t)
	restore()
	restore = parallel.SetLimit(0)
	narrow := newShardSim(12, 4).run(t)
	restore()
	if wide != narrow {
		t.Errorf("worker width changed results: wide %#x, narrow %#x", wide, narrow)
	}
}

// TestSyncRunsBeforeSameTimeEvents pins the barrier ordering contract:
// a sync task at time T runs before any shard event stamped T.
func TestSyncRunsBeforeSameTimeEvents(t *testing.T) {
	g := NewShardGroup(2, 0.5)
	var order []string
	g.Queue(0).At(2, func(Time) { order = append(order, "event") })
	g.Sync(2, func(Time) { order = append(order, "sync") })
	g.Run(3)
	if len(order) != 2 || order[0] != "sync" || order[1] != "event" {
		t.Fatalf("order = %v, want [sync event]", order)
	}
}

// TestSyncAtEndAndChaining covers tasks that re-register themselves
// (periodic snapshots) and a task landing exactly at the run horizon.
func TestSyncAtEndAndChaining(t *testing.T) {
	g := NewShardGroup(2, 0.25)
	var at []Time
	var tick func(now Time)
	tick = func(now Time) {
		at = append(at, now)
		g.Sync(now.Add(1), tick)
	}
	g.Sync(1, tick)
	g.Run(3)
	if len(at) != 3 || at[0] != 1 || at[1] != 2 || at[2] != 3 {
		t.Fatalf("sync times = %v, want [1 2 3]", at)
	}
}

// TestRunInclusiveAtHorizon pins RunUntil parity: events exactly at the
// horizon dispatch, later ones stay queued.
func TestRunInclusiveAtHorizon(t *testing.T) {
	g := NewShardGroup(2, 0.25)
	var fired []string
	g.Queue(1).At(5, func(Time) { fired = append(fired, "at-horizon") })
	g.Queue(1).At(5.0000001, func(Time) { fired = append(fired, "late") })
	g.Run(5)
	if len(fired) != 1 || fired[0] != "at-horizon" {
		t.Fatalf("fired = %v, want [at-horizon]", fired)
	}
	if g.Queue(1).Len() != 1 {
		t.Fatalf("late event should stay queued, Len=%d", g.Queue(1).Len())
	}
	for i := 0; i < g.NumShards(); i++ {
		if now := g.Queue(i).Now(); now != 5 {
			t.Fatalf("shard %d clock = %v, want 5", i, now)
		}
	}
}

// TestLookaheadViolationPanics: posting under the epoch boundary is a
// partitioning bug and must fail loudly, not corrupt causality.
func TestLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2, 0.5)
	g.Queue(0).At(1, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on lookahead violation")
			}
		}()
		g.Post(0, 1, now.Add(0.1), func(Time) {})
	})
	g.Run(2)
}

// TestCrossTieBreak verifies the (at, bt, bs) merge order directly:
// key-identical arrivals from different shards dispatch in shard order
// regardless of posting order.
func TestCrossTieBreak(t *testing.T) {
	g := NewShardGroup(3, 0.5)
	var order []int
	for _, src := range []int{2, 1} { // post in reverse shard order
		s := src
		g.Queue(s).At(1, func(now Time) {
			g.Post(s, 0, now.Add(0.5), func(Time) { order = append(order, s) })
		})
	}
	g.Run(2)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("dispatch order = %v, want [1 2]", order)
	}
}

// TestBarrierHookOrdering pins the OnBarrier contract: the hooks run
// after every epoch, after every sync task and after the final pass, in
// the order they were added, so what shards wrote before a sync task is
// folded before the task runs, and a later task at the same instant
// sees an earlier one's writes folded too.
func TestBarrierHookOrdering(t *testing.T) {
	g := NewShardGroup(2, 0.5)
	var pending, folded []string
	hooks, seconds := 0, 0
	g.OnBarrier(func() {
		hooks++
		folded = append(folded, pending...)
		pending = pending[:0]
	})
	g.OnBarrier(func() {
		seconds++
		if seconds != hooks {
			t.Errorf("second hook's run %d came after %d of the first's; want registration order", seconds, hooks)
		}
	})
	g.Queue(1).At(0.7, func(Time) { pending = append(pending, "event") })
	g.Sync(1, func(Time) {
		if len(folded) != 1 || folded[0] != "event" {
			t.Errorf("first task saw folded %v, want [event]", folded)
		}
		pending = append(pending, "first")
	})
	g.Sync(1, func(Time) {
		if len(pending) != 0 || len(folded) != 2 || folded[1] != "first" {
			t.Errorf("second task saw pending %v, folded %v; want the first task's write folded", pending, folded)
		}
	})
	g.Run(2)
	// Epochs [0,0.5), [0.5,1), [1,1.5), [1.5,2), the final pass and the
	// two sync tasks.
	if hooks != 7 || seconds != 7 {
		t.Fatalf("hooks ran %d and %d times, want 7 each", hooks, seconds)
	}
}

// TestCrossPostAndMergeAllocateNothingWhenWarm pins the cost of a cross
// event: once the outboxes and the merge buffer have grown, posting and
// the barrier merge allocate nothing. The group runs with no worker to
// win, since a worker costs a goroutine per Run.
func TestCrossPostAndMergeAllocateNothingWhenWarm(t *testing.T) {
	defer parallel.SetLimit(0)()
	const lookahead, posts = 0.5, 8
	g := NewShardGroup(2, lookahead)
	fired := 0
	land := func(Time) { fired++ }
	var ticks [2]Handler
	for i := range ticks {
		ticks[i] = func(now Time) {
			for p := range posts {
				// Equal arrivals from both shards, so the merge sorts.
				g.Post(i, 1-i, now.Add(lookahead+Duration(p%3)), land)
			}
		}
	}
	segment := func() {
		now := g.Now()
		for i, tick := range ticks {
			g.Queue(i).At(now, tick)
		}
		g.Run(now.Add(4))
	}
	segment()
	if allocs := testing.AllocsPerRun(100, segment); allocs != 0 {
		t.Errorf("%v allocations per warm segment of %d cross posts, want 0", allocs, 2*posts)
	}
	if want := 102 * 2 * posts; fired != want || g.Posted() != uint64(want) {
		t.Errorf("%d cross events fired and %d merged, want %d", fired, g.Posted(), want)
	}
}

// TestShardStatsCounts pins the engine counters on a run whose counts
// are known: per shard, the events its queue dispatched, the cross
// events it posted, and the tied fronts it settled and sorted; for the
// group, the epochs it ran. Shard 1 settles two fronts of ties. The
// one at 1.6 is in birth order. The one at 1.1 is not: shard 0's post
// born at 0.6 is merged at the 1.0 barrier, after shard 1's own event
// born at 0.7, so that front is sorted. Every insert of either shard is
// filed in a bucket, none keyed to the front; shard 0 re-files five
// records as its fronts are settled and shard 1 eight.
func TestShardStatsCounts(t *testing.T) {
	g := NewShardGroup(2, 0.5)
	nop := func(Time) {}
	for _, at := range []Time{0.1, 0.6, 1.1} {
		g.Queue(0).At(at, func(now Time) { g.Post(0, 1, now.Add(0.5), nop) })
	}
	q1 := g.Queue(1)
	q1.At(0.2, func(Time) {
		q1.At(1.1, nop)
		q1.At(1.6, nop)
	})
	q1.At(0.7, func(Time) { q1.At(1.1, nop) })
	g.Run(2)
	want := []ShardStats{
		{Events: 3, CrossPosts: 3, Filed: 3 + 5},
		{Events: 8, CrossPosts: 0, Fronts: 2, FrontSorts: 1, Filed: 8 + 8},
	}
	if st := g.Stats(); !slices.Equal(st, want) {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	// Epochs [0,0.5), [0.5,1), [1,1.5), [1.5,2) and the final pass.
	if e := g.Epochs(); e != 5 {
		t.Errorf("%d epochs, want 5", e)
	}
}
