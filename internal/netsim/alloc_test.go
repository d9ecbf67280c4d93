package netsim

import (
	"fmt"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/parallel"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// sink is an agent that takes deliveries and does nothing.
type sink struct{}

func (sink) Receive(eventq.Time, Delivery) {}

// TestMulticastAllocatesNothingWhenWarm pins the steady-state claim
// beside the code: once the span is cached and the hop pool has grown,
// a multicast and all its hops allocate nothing — on a New view and on
// clusters of one and two shards, over a shared zone span (tree) and
// over a per-source span (mesh). At two shards the root-zone multicast
// crosses the shard boundary, so the count covers cross-shard posts,
// the barrier merge and the hops' return home. Clusters run through
// ShardGroup.Run with no worker to win: a worker costs a goroutine per
// Run, which is not the path measured here.
func TestMulticastAllocatesNothingWhenWarm(t *testing.T) {
	defer parallel.SetLimit(0)()
	specs := map[string]*topology.Spec{
		"tree": topology.BalancedTree([]int{3, 3}, 1e6, 0.010, 0.05),
		"mesh": topology.Figure10(topology.Figure10Params{}),
	}
	for name, spec := range specs {
		h, err := scoping.Build(spec.Zones)
		if err != nil {
			t.Fatal(err)
		}
		var q eventq.Queue
		engines := map[string][]*Network{"New": {New(&q, spec.Graph, h, simrand.New(3))}}
		for _, k := range []int{1, 2} {
			owner, lookahead := topology.PartitionByZone(spec.Graph, spec.Zones, k)
			c, err := NewCluster(eventq.NewShardGroup(k, lookahead), spec.Graph, h, simrand.New(3), owner)
			if err != nil {
				t.Fatal(err)
			}
			engines[fmt.Sprintf("NewCluster/%d", k)] = c.nets
		}
		for engine, views := range engines {
			c := views[0].cluster
			for _, m := range spec.Members() {
				c.nets[c.owner[m]].Attach(m, sink{})
			}
			if shared := c.intactTree(); shared != (name == "tree") {
				t.Fatalf("%s: shared spans = %v", name, shared)
			}
			n := c.nets[c.owner[spec.Source]]
			pkt := dataPkt(512)
			send := func() {
				n.Multicast(spec.Source, h.Root(), pkt)
				n.Q.Run()
			}
			if grp := c.group; grp != nil {
				multicast := func(eventq.Time) { n.Multicast(spec.Source, h.Root(), pkt) }
				send = func() {
					now := grp.Now()
					n.Q.At(now, multicast)
					grp.Run(now.Add(1))
				}
			}
			send()
			if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
				t.Errorf("%s on %s: %v allocations per warm multicast, want 0", name, engine, allocs)
			}
			if sent, _, dropped := c.Stats(); sent != 202 || dropped == 0 {
				t.Errorf("%s on %s: %d sent, %d lost; the run exercised too little", name, engine, sent, dropped)
			}
			for i, v := range views {
				if _, delivered, _ := v.Stats(); delivered == 0 {
					t.Errorf("%s on %s: shard %d took no delivery", name, engine, i)
				}
			}
		}
	}
}

// TestCrossShardHopsGoHome pins the hop pool's bound under one-way
// cross-shard traffic: a hop that lands on the other shard is returned
// to its sender's pool at the barrier, so 1,000 multicasts from one
// shard into the other create no more hops on either view than their
// first 10 did. Hops left on the view they landed on would drain the
// sender's pool and grow new ones on every multicast.
func TestCrossShardHopsGoHome(t *testing.T) {
	spec := topology.BalancedTree([]int{3, 3}, 1e6, 0.010, 0)
	h := scoping.MustBuild(spec.Zones)
	owner, lookahead := topology.PartitionByZone(spec.Graph, spec.Zones, 2)
	grp := eventq.NewShardGroup(2, lookahead)
	c, err := NewCluster(grp, spec.Graph, h, simrand.New(3), owner)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.Members() {
		c.NetFor(m).Attach(m, sink{})
	}
	n := c.NetFor(spec.Source)
	pkt := dataPkt(512)
	multicast := func(eventq.Time) { n.Multicast(spec.Source, h.Root(), pkt) }
	send := func(times int) {
		for range times {
			now := grp.Now()
			n.Q.At(now, multicast)
			grp.Run(now.Add(1))
		}
	}
	// created counts the hops each view has made: at rest every hop is
	// idle in some view's free list or parked list.
	created := func() map[*Network]int {
		m := map[*Network]int{}
		for _, v := range c.nets {
			for _, hp := range v.hopFree {
				m[hp.n]++
			}
			for _, hp := range v.parked {
				m[hp.n]++
			}
		}
		return m
	}
	send(10)
	if grp.Posted() == 0 {
		t.Fatal("no hop crossed the shard boundary")
	}
	first := created()
	send(990)
	for i, v := range c.nets {
		if got := created()[v]; got > first[v] {
			t.Errorf("shard %d: %d hops after 1,000 multicasts, %d after the first 10", i, got, first[v])
		}
		if len(v.parked) != 0 {
			t.Errorf("shard %d: %d hops still parked after the run", i, len(v.parked))
		}
	}
}

// TestSpanBuildAllocationIsConstant pins the span builder's cost: from a
// cached routing tree, with the view's scratch grown, a per-source span
// is the span itself plus its two arrays, whether the zone has 16
// members or 1,025.
func TestSpanBuildAllocationIsConstant(t *testing.T) {
	spec := topology.BalancedTree([]int{64, 15}, 1e6, 0.010, 0)
	spec.Graph.AddLink(1, 2, 1e6, 0.010, 0) // a cycle: no shared spans, Dijkstra routes
	h := scoping.MustBuild(spec.Zones)
	var q eventq.Queue
	n := New(&q, spec.Graph, h, simrand.New(3))
	if n.cluster.intactTree() {
		t.Fatal("the graph still counts as a tree")
	}
	const src = 70 // a leaf of zone 1
	tree := n.Tree(src)
	build := func(zone scoping.ZoneID, members int) float64 {
		if got := len(h.Members(zone)); got != members {
			t.Fatalf("zone %d has %d members, want %d", zone, got, members)
		}
		key := spanKey{src, zone}
		if sp := n.buildSpan(tree, key); len(sp.nodes) < members {
			t.Fatalf("zone %d: span of %d nodes for %d members", zone, len(sp.nodes), members)
		}
		return testing.AllocsPerRun(20, func() { n.buildSpan(tree, key) })
	}
	large, small := build(h.Root(), 1025), build(1, 16)
	if small != large || small > 3 {
		t.Errorf("span build allocates %v objects for 16 members and %v for 1,025; want the same, at most 3", small, large)
	}
}

// TestTimerArmAndStopAllocateNothing pins what making fabric.Timer a value
// bought: on a warm queue, arming a timer through the fabric's scheduler
// and stopping it costs no allocation beyond the caller's own closure
// (here built once, outside the measurement) — on either engine's view.
func TestTimerArmAndStopAllocateNothing(t *testing.T) {
	spec := topology.BalancedTree([]int{2}, 1e6, 0.010, 0)
	h := scoping.MustBuild(spec.Zones)
	var q eventq.Queue
	c, err := NewCluster(eventq.NewShardGroup(1, 0.001), spec.Graph, h, simrand.New(3), make([]int32, spec.Graph.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	fn := func(eventq.Time) { fired++ }
	for engine, n := range map[string]*Network{"New": New(&q, spec.Graph, h, simrand.New(3)), "NewCluster": c.Shard(0)} {
		// Handles are kept the way protocol state keeps them — in a heap
		// record that outlives the call — so a boxed handle would have to
		// be allocated, not left on the stack.
		held := new(struct{ kept, stopped fabric.Timer })
		cycle := func() {
			held.kept = n.Sched().After(2, fn)
			held.stopped = n.Sched().After(1, fn)
			if !held.stopped.Stop() || held.stopped.Active() {
				t.Fatal("a pending timer did not stop")
			}
			n.Q.Run()
			if held.kept.Active() {
				t.Fatal("a fired timer is still active")
			}
		}
		cycle() // grows the queue's heap and free list
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("%s: %v allocations per arm, stop and fire on a warm queue, want 0", engine, allocs)
		}
	}
	if fired != 2*202 {
		t.Errorf("%d timers fired, want %d: a stopped timer ran or a kept one did not", fired, 2*202)
	}
}

// TestHopPoolGrowsInBlocks pins the cost of growing the hop pool: a hop
// the free list cannot supply is carved from a block of hopBlock, so k
// new hops cost their k bound handlers plus ⌈k/hopBlock⌉ blocks, not a
// struct apiece — and no two of them share storage.
func TestHopPoolGrowsInBlocks(t *testing.T) {
	const k = 2*hopBlock + 1
	n := &Network{}
	hops := make([]*hop, k)
	grow := func() {
		n.hopFree, n.hopBlk = nil, nil
		for i := range hops {
			hops[i] = n.acquireHop()
		}
	}
	if allocs, want := testing.AllocsPerRun(10, grow), float64(k+3); allocs != want {
		t.Errorf("%v allocations for %d new hops, want %v", allocs, k, want)
	}
	seen := make(map[*hop]bool, k)
	for _, h := range hops {
		if seen[h] || h.n != n || h.fn == nil {
			t.Fatalf("hop %p: duplicate %v, view %p, handler bound %v", h, seen[h], h.n, h.fn != nil)
		}
		seen[h] = true
	}
}
