package eventq

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"sharqfec/internal/parallel"
)

// ShardGroup advances several event queues — one per topology shard —
// in parallel under conservative lookahead, the classic Chandy/Misra
// discipline specialized to this simulator:
//
//   - Virtual time is cut into barrier epochs [T, T+L), where the
//     lookahead L is the minimum latency of any link joining two
//     different shards. Within an epoch every shard dispatches its own
//     events independently: no cross-shard influence can arrive before
//     T+L, because crossing a shard boundary costs at least L of
//     propagation delay.
//   - A shard that needs to affect another shard posts a cross event
//     (Post) into a per-sender outbox. At the epoch barrier all
//     outboxes are drained single-threaded into the destination
//     queues, merge-ordered by (arrival time, birth time, birth shard,
//     posting index) — the same total order a single queue would have
//     produced, minus per-queue sequence numbers, which do not survive
//     sharding. That makes the dispatch order — and therefore every
//     simulation result — independent of the shard count.
//   - Global work that must observe or mutate several shards at once
//     (joining all agents, starting the source, fault application,
//     census snapshots) registers as a Sync task: the group forces an
//     epoch boundary at exactly the task's time and runs it
//     single-threaded at the barrier, before any shard dispatches
//     events at that instant.
//
// Extra worker goroutines come from the process-wide parallel budget,
// so shard groups nested under ensemble pools degrade to sequential
// execution instead of oversubscribing; results never depend on how
// many workers the group actually wins.
type ShardGroup struct {
	qs        []*Queue
	lookahead Duration
	now       Time

	// end is the current epoch's boundary; Post asserts arrivals never
	// undercut it (a lookahead violation is a bug, not a data race).
	end       Time
	inclusive bool

	// outbox[src][dst] collects cross events posted by shard src for
	// shard dst during the running epoch. Each src slice is written
	// only by the goroutine executing shard src, so posting is
	// lock-free; the barrier drains them single-threaded.
	outbox  [][][]crossEvent
	postIdx []uint64
	scratch []crossEvent

	syncs []syncTask
	hooks []func()

	cursor atomic.Int64 // next shard index to advance this epoch
	posted uint64
	epochs uint64
}

// ShardStats is one shard's engine counters. Both are counts of
// simulated work, so they repeat exactly from run to run.
type ShardStats struct {
	Events     uint64 // events the shard's queue dispatched
	CrossPosts uint64 // events it posted to other shards
}

// crossEvent is one scheduled hand-off between shards: fn runs at `at`
// on the destination queue, ordered by the full (at, bt, bs, idx) key.
type crossEvent struct {
	at, bt Time
	bs     int32
	idx    uint64
	fn     Handler
}

type syncTask struct {
	at Time
	fn func(now Time)
}

// NewShardGroup creates k queues (shards 0..k-1) advancing under the
// given lookahead, which must be positive: a zero-lookahead partition
// admits instantaneous cross-shard influence and cannot be run
// conservatively.
func NewShardGroup(k int, lookahead Duration) *ShardGroup {
	if k < 1 || k > MaxShards {
		panic(fmt.Sprintf("eventq: shard group of %d shards: want 1 to %d", k, MaxShards))
	}
	if lookahead <= 0 {
		panic("eventq: shard lookahead must be positive")
	}
	g := &ShardGroup{
		qs:        make([]*Queue, k),
		lookahead: lookahead,
		outbox:    make([][][]crossEvent, k),
		postIdx:   make([]uint64, k),
	}
	for i := range g.qs {
		q := &Queue{}
		q.setShard(int32(i))
		g.qs[i] = q
		g.outbox[i] = make([][]crossEvent, k)
	}
	return g
}

// NumShards returns the shard count.
func (g *ShardGroup) NumShards() int { return len(g.qs) }

// Queue returns shard i's event queue.
func (g *ShardGroup) Queue(i int) *Queue { return g.qs[i] }

// Queues returns every shard's event queue, by shard.
func (g *ShardGroup) Queues() []*Queue { return g.qs }

// Now returns the group's barrier time (every queue's clock is at or
// past it).
func (g *ShardGroup) Now() Time { return g.now }

// Posted returns the total number of cross-shard events exchanged so
// far — the runner's coupling diagnostic.
func (g *ShardGroup) Posted() uint64 { return g.posted }

// Epochs returns the number of epochs the group has run, final passes
// included.
func (g *ShardGroup) Epochs() uint64 { return g.epochs }

// Stats returns every shard's engine counters, by shard. Call it
// between runs or from a barrier hook, never from shard event handlers.
func (g *ShardGroup) Stats() []ShardStats {
	st := make([]ShardStats, len(g.qs))
	for i, q := range g.qs {
		st[i] = ShardStats{Events: q.Dispatched(), CrossPosts: g.postIdx[i]}
	}
	return st
}

// Post schedules fn to run at time `at` on shard dst. It must be called
// only from the goroutine currently executing shard src's epoch, with
// dst != src, and the arrival must respect the lookahead contract
// (at ≥ the current epoch boundary); violations panic, because they
// mean the caller's partition or lookahead computation is wrong.
func (g *ShardGroup) Post(src, dst int, at Time, fn Handler) {
	if src == dst {
		panic("eventq: Post to own shard — schedule directly instead")
	}
	if at < g.end {
		panic(fmt.Sprintf("eventq: lookahead violation: cross event at %v before epoch end %v", at, g.end))
	}
	q := g.qs[src]
	g.outbox[src][dst] = append(g.outbox[src][dst], crossEvent{
		at: at, bt: q.Now(), bs: int32(src), idx: g.postIdx[src], fn: fn,
	})
	g.postIdx[src]++
}

// Sync registers fn to run single-threaded at the barrier the group
// forces at exactly time at (tasks in the past run at the next
// barrier). Tasks at equal times run in registration order. Sync is not
// goroutine-safe: call it before Run or from inside another sync task,
// never from shard event handlers.
func (g *ShardGroup) Sync(at Time, fn func(now Time)) {
	i := sort.Search(len(g.syncs), func(i int) bool { return g.syncs[i].at > at })
	g.syncs = append(g.syncs, syncTask{})
	copy(g.syncs[i+1:], g.syncs[i:])
	g.syncs[i] = syncTask{at: at, fn: fn}
}

// OnBarrier adds fn to the hooks that run single-threaded after every
// epoch, after every sync task and after the final pass, in the order
// they were added: the point where what the shards wrote in parallel
// can be folded on one goroutine before any later sync task or epoch
// runs.
func (g *ShardGroup) OnBarrier(fn func()) { g.hooks = append(g.hooks, fn) }

// Run advances every shard to time until, honoring the legacy RunUntil
// contract: events stamped exactly `until` are dispatched, later ones
// stay queued, and each queue's clock ends at until.
func (g *ShardGroup) Run(until Time) {
	workers := g.startWorkers()
	defer g.stopWorkers(workers)

	for {
		// Run due sync tasks at the barrier, in (time, registration)
		// order. They may register follow-ups (periodic snapshots).
		for len(g.syncs) > 0 && g.syncs[0].at <= g.now {
			t := g.syncs[0]
			g.syncs = g.syncs[1:]
			t.fn(g.now)
			g.atBarrier()
		}
		if !(g.now < until) { // NaN-safe: a NaN horizon dispatches nothing
			break
		}
		end := until
		if len(g.qs) > 1 && g.now.Add(g.lookahead) < end {
			end = g.now.Add(g.lookahead)
		}
		if len(g.syncs) > 0 && g.syncs[0].at < end {
			end = g.syncs[0].at // force a boundary exactly at the task
		}
		g.runEpoch(workers, end, false)
		g.mergeCross()
		g.now = end
		g.atBarrier()
	}
	// Final inclusive pass: dispatch events stamped exactly `until`.
	// Their cross posts arrive at ≥ until+L > until and stay queued.
	g.runEpoch(workers, until, true)
	g.mergeCross()
	g.atBarrier()
}

func (g *ShardGroup) atBarrier() {
	for _, fn := range g.hooks {
		fn()
	}
}

// runEpoch dispatches every shard up to end (exclusive, or inclusive
// for the final pass), spreading shards across the group's workers.
func (g *ShardGroup) runEpoch(workers []chan struct{}, end Time, inclusive bool) {
	g.end = end
	g.inclusive = inclusive
	g.epochs++
	if len(workers) == 0 {
		for _, q := range g.qs {
			g.advance(q, end, inclusive)
		}
		return
	}
	g.cursor.Store(0)
	for _, w := range workers {
		w <- struct{}{}
	}
	g.drain()
	for _, w := range workers {
		<-w
	}
}

func (g *ShardGroup) drain() {
	for {
		i := int(g.cursor.Add(1)) - 1
		if i >= len(g.qs) {
			return
		}
		g.advance(g.qs[i], g.end, g.inclusive)
	}
}

func (g *ShardGroup) advance(q *Queue, end Time, inclusive bool) {
	if inclusive {
		q.RunUntil(end)
	} else {
		q.runBefore(end)
	}
}

// mergeCross drains every outbox into the destination queues in the
// deterministic merge order (arrival, birth time, birth shard, posting
// index). Insertion order fixes the destination queue's seq tie-break,
// so even key-identical cross events dispatch in merge order.
func (g *ShardGroup) mergeCross() {
	for dst := range g.qs {
		buf := g.scratch[:0]
		for src := range g.qs {
			out := g.outbox[src][dst]
			if len(out) == 0 {
				continue
			}
			buf = append(buf, out...)
			g.outbox[src][dst] = out[:0]
		}
		if len(buf) == 0 {
			continue
		}
		slices.SortFunc(buf, compareCross)
		q := g.qs[dst]
		for i := range buf {
			q.insertCross(buf[i].at, buf[i].bt, buf[i].bs, buf[i].fn)
			buf[i].fn = nil
		}
		g.posted += uint64(len(buf))
		g.scratch = buf[:0]
	}
}

// compareCross orders cross events for the merge: by arrival, birth
// time, birth shard, then posting index. The key is unique per event,
// so every sort by it yields one order. It compares only the first
// field that differs: the posts of one epoch mostly tie on arrival and
// birth time, and cmp.Or, which compares every field, doubled the cost
// of sorting 256 of them.
func compareCross(a, b crossEvent) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.bt != b.bt:
		return cmp.Compare(a.bt, b.bt)
	case a.bs != b.bs:
		return cmp.Compare(a.bs, b.bs)
	}
	return cmp.Compare(a.idx, b.idx)
}

// startWorkers claims extra workers from the process-wide budget (at
// most shards-1; the Run caller is always one worker) and parks them on
// epoch barrier channels.
func (g *ShardGroup) startWorkers() []chan struct{} {
	var workers []chan struct{}
	for len(workers) < len(g.qs)-1 && parallel.TryAcquire() {
		w := make(chan struct{})
		workers = append(workers, w)
		go func() {
			defer parallel.Release()
			for range w {
				g.drain()
				w <- struct{}{}
			}
		}()
	}
	return workers
}

func (g *ShardGroup) stopWorkers(workers []chan struct{}) {
	for _, w := range workers {
		close(w)
	}
}
