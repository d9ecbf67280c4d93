package netsim_test

// The forwarding oracle: the recursive walk of the sender-rooted
// shortest-path tree pruned to the zone's members — how netsim forwarded
// before fan-outs were laid out as spans — kept here, and only here, as
// the reference the spans are checked against. It is deliberately plain:
// a fresh Dijkstra per multicast, a member bitmap, two recursions, and
// no state shared with the package.

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// oracleSend is one scheduled multicast; seq identifies its packet.
type oracleSend struct {
	at   eventq.Time
	src  topology.NodeID
	zone scoping.ZoneID
	seq  uint32
}

// oracleHop is one (link, direction) a packet was transmitted on, and
// the node that transmitted it.
type oracleHop struct {
	seq     uint32
	from    topology.NodeID
	li, dir int
}

// oracleDelivery is one packet handed to a member.
type oracleDelivery struct {
	seq        uint32
	node, from topology.NodeID
	at         eventq.Time
}

func oraclePacket(s oracleSend) *packet.Data {
	return &packet.Data{Origin: s.src, Seq: s.seq, Payload: make([]byte, 100)}
}

// prunedChildren returns, for each node, its children in tree worth
// forwarding to when the tree's root multicasts to zone: those whose
// subtrees contain a member.
func prunedChildren(g *topology.Graph, h *scoping.Hierarchy, tree *topology.Tree, zone scoping.ZoneID) (children [][]topology.NodeID, isMember []bool) {
	isMember = make([]bool, g.NumNodes())
	for _, m := range h.Members(zone) {
		isMember[m] = true
	}
	needed := slices.Clone(isMember)
	// Post-order accumulate: a child is forwarded to if its subtree
	// contains any member.
	var mark func(v topology.NodeID) bool
	mark = func(v topology.NodeID) bool {
		any := needed[v]
		for _, c := range tree.Children[v] {
			if mark(c) {
				any = true
			}
		}
		needed[v] = any
		return any
	}
	mark(tree.Root)
	children = make([][]topology.NodeID, g.NumNodes())
	var collect func(v topology.NodeID)
	collect = func(v topology.NodeID) {
		for _, c := range tree.Children[v] {
			if needed[c] {
				children[v] = append(children[v], c)
				collect(c)
			}
		}
	}
	collect(tree.Root)
	return children, isMember
}

// oracleMulticast returns what one multicast on an idle, lossless
// network must transmit and deliver, with the simulator's own arrival
// arithmetic (serialize at line rate, then propagate) hop by hop.
func oracleMulticast(g *topology.Graph, h *scoping.Hierarchy, s oracleSend) (hops []oracleHop, dlv []oracleDelivery) {
	tree := g.SPFTree(s.src)
	children, isMember := prunedChildren(g, h, tree, s.zone)
	size := oraclePacket(s).WireSize()
	var forward func(t eventq.Time, u, v topology.NodeID)
	forward = func(t eventq.Time, u, v topology.NodeID) {
		li := tree.ParentLink[v]
		link := g.Link(li)
		dir := 0
		if u == link.B {
			dir = 1
		}
		hops = append(hops, oracleHop{s.seq, u, li, dir})
		arrive := t.Add(eventq.Duration(float64(size*8) / link.Bandwidth)).Add(link.Latency)
		if isMember[v] {
			dlv = append(dlv, oracleDelivery{s.seq, v, s.src, arrive})
		}
		for _, c := range children[v] {
			forward(arrive, v, c)
		}
	}
	for _, c := range children[s.src] {
		forward(s.at, s.src, c)
	}
	return hops, dlv
}

// oracleWorld is one scenario: a graph, a zone layout, and three phases
// — all links up, one link down, the link back up with one member gone —
// in each of which every node multicasts once into every zone. It holds
// the sends and what the oracle says they must transmit and deliver.
type oracleWorld struct {
	graph     *topology.Graph
	hier      [3]*scoping.Hierarchy // per phase
	downLink  int
	phaseAt   [3]eventq.Time // when the phase's state is applied
	sends     []oracleSend
	hops      []oracleHop
	dlv       []oracleDelivery
	until     eventq.Time
	lookahead eventq.Duration // the shortest link: any partition may use it
}

func newOracleWorld(t *testing.T, g *topology.Graph, zones []topology.ZoneSpec, downLink int, leaver topology.NodeID) *oracleWorld {
	t.Helper()
	h, err := scoping.Build(zones)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := h.WithoutMember(leaver)
	if err != nil {
		t.Fatal(err)
	}
	w := &oracleWorld{graph: g, hier: [3]*scoping.Hierarchy{h, h, gone}, downLink: downLink, lookahead: g.Link(0).Latency}

	// Sends are spaced so that each finds every link idle: further apart
	// than any packet can take to cross the whole graph.
	size := oraclePacket(oracleSend{}).WireSize()
	var slowest eventq.Duration
	for li := 0; li < g.NumLinks(); li++ {
		l := g.Link(li)
		slowest = max(slowest, l.Latency+eventq.Duration(float64(size*8)/l.Bandwidth))
		w.lookahead = min(w.lookahead, l.Latency)
	}
	gap := eventq.Duration(g.NumNodes()) * slowest
	og := g.Clone()
	now := eventq.Time(0)
	for phase := range w.hier {
		w.phaseAt[phase] = now.Add(gap / 2)
		og.SetLinkUp(downLink, phase != 1)
		for v := 0; v < g.NumNodes(); v++ {
			for z := range zones {
				now = now.Add(gap)
				s := oracleSend{at: now, src: topology.NodeID(v), zone: scoping.ZoneID(z), seq: uint32(len(w.sends))}
				hops, dlv := oracleMulticast(og, w.hier[phase], s)
				w.sends = append(w.sends, s)
				w.hops = append(w.hops, hops...)
				w.dlv = append(w.dlv, dlv...)
			}
		}
	}
	w.until = now.Add(gap)
	return w
}

// randomOracleWorld seeds a world: a random tree over randomly labelled
// nodes plus extraLinks more links, a three-level zone layout over a
// random subset of the nodes (the rest only route), a random link to
// fail and a random member to leave.
func randomOracleWorld(t *testing.T, seed uint64, nodes, extraLinks int) *oracleWorld {
	t.Helper()
	rng := simrand.New(seed).Stream("oracle")
	lats := []eventq.Duration{0.010, 0.020, 0.030} // few values: equal-cost paths abound
	bws := []float64{1e6, 10e6}
	g := topology.New(nodes)
	label := rng.Perm(nodes) // so that a node's ID says nothing about its depth
	link := func(a, b int) {
		g.AddLink(topology.NodeID(label[a]), topology.NodeID(label[b]), bws[rng.IntN(len(bws))], lats[rng.IntN(len(lats))], 0)
	}
	for v := 1; v < nodes; v++ {
		link(rng.IntN(v), v)
	}
	for i := 0; i < extraLinks; i++ {
		a := rng.IntN(nodes)
		link(a, (a+1+rng.IntN(nodes-1))%nodes) // now and then parallel to an existing link
	}
	zones := []topology.ZoneSpec{
		{ID: 0, Parent: -1}, {ID: 1, Parent: 0}, {ID: 2, Parent: 0}, {ID: 3, Parent: 1}, {ID: 4, Parent: 2},
	}
	var members []topology.NodeID
	for v := 0; v < nodes; v++ {
		if z := rng.IntN(len(zones) + 2); z < len(zones) {
			zones[z].Leaves = append(zones[z].Leaves, topology.NodeID(v))
			members = append(members, topology.NodeID(v))
		}
	}
	return newOracleWorld(t, g, zones, rng.IntN(g.NumLinks()), members[rng.IntN(len(members))])
}

// run replays the world on a fresh fabric — netsim.New when shards is 0,
// else a cluster of that many shards with nodes dealt to shards round
// robin, so that most links cross a boundary — and returns every
// transmission and delivery it made.
func (w *oracleWorld) run(t *testing.T, shards int) (hops []oracleHop, dlv []oracleDelivery) {
	t.Helper()
	g := w.graph.Clone()
	var (
		views []*netsim.Network
		owner = make([]int32, g.NumNodes())
		queue func(v topology.NodeID) *eventq.Queue
		sync  func(at eventq.Time, fn func(eventq.Time))
		run   func(until eventq.Time)
	)
	if shards == 0 {
		var q eventq.Queue
		views = []*netsim.Network{netsim.New(&q, g, w.hier[0], simrand.New(1))}
		queue = func(topology.NodeID) *eventq.Queue { return &q }
		sync = func(at eventq.Time, fn func(eventq.Time)) { q.At(at, fn) }
		run = func(until eventq.Time) { q.RunUntil(until) }
	} else {
		for v := range owner {
			owner[v] = int32(v % shards)
		}
		grp := eventq.NewShardGroup(shards, w.lookahead)
		c, err := netsim.NewCluster(grp, g, w.hier[0], simrand.New(1), owner)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			views = append(views, c.Shard(i))
		}
		queue = func(v topology.NodeID) *eventq.Queue { return grp.Queue(int(owner[v])) }
		sync = grp.Sync
		run = grp.Run
	}

	// One record slice per view and per node: each is appended to only
	// from its own shard's goroutine.
	viewHops := make([][]oracleHop, len(views))
	for i, n := range views {
		n.SetHopTap(func(li, dir int, pkt packet.Packet) {
			from := g.Link(li).A
			if dir == 1 {
				from = g.Link(li).B
			}
			viewHops[i] = append(viewHops[i], oracleHop{pkt.(*packet.Data).Seq, from, li, dir})
		})
	}
	nodeDlv := make([][]oracleDelivery, g.NumNodes())
	for v := range nodeDlv {
		v := topology.NodeID(v)
		views[owner[v]].Attach(v, agentFunc(func(now eventq.Time, d netsim.Delivery) {
			nodeDlv[v] = append(nodeDlv[v], oracleDelivery{d.Pkt.(*packet.Data).Seq, v, d.From, now})
		}))
	}
	for phase, at := range w.phaseAt {
		sync(at, func(eventq.Time) {
			views[0].SetLinkUp(w.downLink, phase != 1)
			views[0].SetHierarchy(w.hier[phase])
		})
	}
	for _, s := range w.sends {
		queue(s.src).At(s.at, func(eventq.Time) {
			if err := views[owner[s.src]].MulticastE(s.src, s.zone, oraclePacket(s)); err != nil {
				t.Error(err)
			}
		})
	}
	run(w.until)
	return slices.Concat(viewHops...), slices.Concat(nodeDlv...)
}

// sortHops groups transmissions by packet and transmitting node and
// keeps each group in the order it was made: one node's transmissions of
// one packet all happen on one view, in the order it visits its
// children — the order its loss draws on each direction are taken in.
func sortHops(h []oracleHop) []oracleHop {
	slices.SortStableFunc(h, func(a, b oracleHop) int {
		return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.from, b.from))
	})
	return h
}

func sortDeliveries(d []oracleDelivery) []oracleDelivery {
	slices.SortFunc(d, func(a, b oracleDelivery) int {
		return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.node, b.node))
	})
	return d
}

// check replays w at each shard count and requires the (link, direction)
// transmissions each node makes and their order, the set of nodes
// delivered to, every arrival time and every Delivery.From to be the
// oracle's.
func (w *oracleWorld) check(t *testing.T, shardCounts ...int) {
	t.Helper()
	if len(w.dlv) == 0 || len(w.hops) <= len(w.dlv) {
		t.Fatalf("oracle saw %d hops and %d deliveries; the scenario is vacuous", len(w.hops), len(w.dlv))
	}
	wantHops, wantDlv := sortHops(w.hops), sortDeliveries(w.dlv)
	for _, shards := range shardCounts {
		hops, dlv := w.run(t, shards)
		if !slices.Equal(sortHops(hops), wantHops) {
			t.Errorf("shards=%d: %d transmissions differ from the oracle's %d", shards, len(hops), len(wantHops))
		}
		if got := sortDeliveries(dlv); !slices.Equal(got, wantDlv) {
			t.Errorf("shards=%d: %d deliveries differ from the oracle's %d", shards, len(got), len(wantDlv))
			for i := range min(len(got), len(wantDlv)) {
				if got[i] != wantDlv[i] {
					t.Errorf("first difference: got %+v, want %+v (send %+v)", got[i], wantDlv[i], w.sends[wantDlv[i].seq])
					break
				}
			}
		}
	}
}

// TestFanoutMatchesPrunedTreeOracle checks the span fan-out against the
// oracle on seeded random trees (shared zone spans; per-source spans for
// senders off the zone's span; the Dijkstra fallback while a link is
// down) and meshes (per-source spans, equal-cost ties, the odd parallel
// link), from every node into every zone, across a link failure, its
// repair and a membership change, on New and on clusters of 1 and 3
// shards.
func TestFanoutMatchesPrunedTreeOracle(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		nodes, extra, kind := 18, 0, "tree"
		if seed%2 == 0 {
			extra, kind = 9, "mesh"
		}
		t.Run(fmt.Sprintf("%s-seed%d", kind, seed), func(t *testing.T) {
			randomOracleWorld(t, seed, nodes, extra).check(t, 0, 1, 3)
		})
	}
}

// TestParallelLinksForwardOnTheRoutedLink is the regression test for
// fan-outs that looked a hop's link up by its end points: on 0═1─2,
// where a 50 ms link (added first) and a 10 ms link both join 0 and 1,
// the route runs over the 10 ms one, and forwarding must too — also
// while the 50 ms link is down, which used to kill every packet on a
// cluster.
func TestParallelLinksForwardOnTheRoutedLink(t *testing.T) {
	g := topology.New(3)
	slow := g.AddLink(0, 1, 10e6, 0.050, 0)
	g.AddLink(0, 1, 10e6, 0.010, 0)
	g.AddLink(1, 2, 10e6, 0.010, 0)
	zones := []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, 1, 2}}}
	w := newOracleWorld(t, g, zones, slow, 1)
	for _, h := range w.hops {
		if h.li == slow {
			t.Fatalf("the oracle routes packet %d over the 50 ms link", h.seq)
		}
	}
	if d := w.dlv[1]; d.node != 2 || d.at.Sub(w.sends[0].at) >= 0.050 {
		t.Fatalf("the oracle delivers node 0's first multicast as %+v, want it at node 2 within two 10 ms hops", d)
	}
	w.check(t, 0, 1, 2)
}
