// The multicast fabric: the state every view of one simulated network
// shares, and the fan-out structure packets follow through it.
//
// A fabric has one view (Network) per event queue. New makes one over
// the caller's queue. NewCluster splits the network across an
// eventq.ShardGroup: every node belongs to exactly one shard
// (topology.PartitionByZone keeps each top-level zone's subtree
// together), each shard advances its own queue, and a packet crossing a
// shard boundary becomes a cross-shard post delivered at the next
// barrier epoch — which conservative lookahead guarantees is always
// soon enough.
//
// Every link direction draws its loss from its own "netsim/loss"-derived
// stream keyed (link, dir), under either constructor. Per-direction draw
// order is owner-shard-local and fixed by the deterministic event order,
// so results are byte-identical across shard counts — the property the
// root package's shard digest matrix pins. (One stream shared by every
// direction would be consumed in global dispatch order, an ordering
// that cannot exist under parallel execution.)
//
// Shared mutable state obeys a strict ownership discipline:
//
//   - linkFree[li][dir] and the per-direction loss streams are written
//     only by the shard owning the direction's upstream node;
//   - spans and route trees are immutable once built, cached under an
//     RWMutex (concurrent builders produce identical values);
//   - loss models, link state and hierarchy swaps mutate only with
//     every view quiescent (ShardGroup.Sync barriers when sharded).
package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"sharqfec/internal/eventq"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// Cluster is one simulated network's multicast fabric. Use NewCluster,
// attach agents through the per-shard views (Shard, NetFor), and drive
// time through the group.
type Cluster struct {
	group *eventq.ShardGroup // nil under New: one view, nothing to post to
	G     *topology.Graph
	owner []int32

	nets []*Network
	src  *simrand.Source

	// lossStreams[li][dir] is the stream the direction's Bernoulli draws
	// come from: its own, created on first use by the (unique) shard
	// owning the upstream node.
	// lossModels overrides it per direction; it is mutated only with
	// the fabric quiescent.
	lossStreams [][2]*simrand.Rand
	lossModels  [][2]LossModel
	// linkFree[li][dir]: when the direction's current transmission
	// ends; dir 0 = A→B, 1 = B→A. Written only by the upstream owner.
	linkFree [][2]eventq.Time

	mu    sync.RWMutex
	spans map[spanKey]*span
	trees map[topology.NodeID]*topology.Tree
	// isTree marks graphs where shortest paths are unique by
	// construction, letting spans build by parent-pointer climbing
	// (O(Steiner size)) instead of per-source Dijkstra — the difference
	// between megabytes and terabytes of routing state at 10⁵ nodes.
	isTree bool
}

// NewCluster shards the network over the group. owner maps every node
// to a shard (see topology.PartitionByZone); the per-shard Networks it
// creates share the graph, hierarchy, link occupancy and loss state
// through the cluster.
func NewCluster(group *eventq.ShardGroup, g *topology.Graph, h *scoping.Hierarchy,
	src *simrand.Source, owner []int32) (*Cluster, error) {

	if len(owner) != g.NumNodes() {
		return nil, fmt.Errorf("netsim: owner map covers %d nodes, graph has %d", len(owner), g.NumNodes())
	}
	for v, s := range owner {
		if s < 0 || int(s) >= group.NumShards() {
			return nil, fmt.Errorf("netsim: node %d assigned to shard %d of %d", v, s, group.NumShards())
		}
	}
	qs := make([]*eventq.Queue, group.NumShards())
	for i := range qs {
		qs[i] = group.Queue(i)
	}
	c := newFabric(group, qs, g, h, src, owner)
	if len(qs) > 1 {
		group.OnBarrier(c.returnHops)
	}
	return c, nil
}

// returnHops sends every hop that landed on a view other than its own
// back to its home pool. It runs at the group's barrier, on one
// goroutine with every shard idle, so it may touch every view's pool.
func (c *Cluster) returnHops() {
	for _, n := range c.nets {
		for i, h := range n.parked {
			h.n.hopFree = append(h.n.hopFree, h)
			n.parked[i] = nil
		}
		n.parked = n.parked[:0]
	}
}

// newFabric builds the shared state and one view per queue.
func newFabric(group *eventq.ShardGroup, qs []*eventq.Queue, g *topology.Graph,
	h *scoping.Hierarchy, src *simrand.Source, owner []int32) *Cluster {

	c := &Cluster{
		group:       group,
		G:           g,
		owner:       owner,
		src:         src,
		lossStreams: make([][2]*simrand.Rand, g.NumLinks()),
		lossModels:  make([][2]LossModel, g.NumLinks()),
		linkFree:    make([][2]eventq.Time, g.NumLinks()),
		spans:       make(map[spanKey]*span),
		trees:       make(map[topology.NodeID]*topology.Tree),
		isTree:      g.NumLinks() == g.NumNodes()-1,
		nets:        make([]*Network, len(qs)),
	}
	for i, q := range qs {
		c.nets[i] = &Network{
			Q: q, G: g, H: h, agents: make([]Agent, g.NumNodes()),
			cluster: c, shard: int32(i),
		}
	}
	return c
}

// Shard returns shard i's network view. Agents attach to the view of
// the shard owning their node.
func (c *Cluster) Shard(i int) *Network { return c.nets[i] }

// Owner returns the shard owning node v.
func (c *Cluster) Owner(v topology.NodeID) int { return int(c.owner[v]) }

// NetFor returns the network view that node v's agent must attach to.
func (c *Cluster) NetFor(v topology.NodeID) *Network { return c.nets[c.owner[v]] }

// Stats sums the per-shard counters.
func (c *Cluster) Stats() (sent, delivered, dropped uint64) {
	for _, n := range c.nets {
		s, d, l := n.Stats()
		sent += s
		delivered += d
		dropped += l
	}
	return
}

// lossStream returns the stream a direction's Bernoulli draws come from,
// creating its private one on first use. Only the upstream owner shard
// ever touches a given direction, so creation and draws are
// single-threaded per stream, and the (seed, link, dir) keying makes
// draw sequences independent of both shard count and the traffic on
// every other link.
func (c *Cluster) lossStream(link, dir int) *simrand.Rand {
	r := c.lossStreams[link][dir]
	if r == nil {
		r = c.src.StreamN2("netsim/loss", link, dir)
		c.lossStreams[link][dir] = r
	}
	return r
}

// cached returns m[key], building and caching it on a miss. Concurrent
// builders race benignly: values are pure functions of immutable routing
// state, so the losing builder's identical value is simply discarded.
func cached[K comparable, V any](mu *sync.RWMutex, m map[K]*V, key K, build func() *V) *V {
	mu.RLock()
	v := m[key]
	mu.RUnlock()
	if v != nil {
		return v
	}
	v = build()
	mu.Lock()
	if w, ok := m[key]; ok {
		v = w
	} else {
		m[key] = v
	}
	mu.Unlock()
	return v
}

// tree returns (building and caching) the Dijkstra tree rooted at src.
func (c *Cluster) tree(src topology.NodeID) *topology.Tree {
	return cached(&c.mu, c.trees, src, func() *topology.Tree { return c.G.SPFTree(src) })
}

// span is a multicast fan-out: the Steiner subtree of a routing tree
// spanning a zone's members (and, for a per-source span, the sender),
// as compact adjacency lists — nodes in ID order, each node's
// neighbours in ID order. A sender floods the span from its own
// position, forwarding to neighbours minus the inbound edge, which
// visits exactly the child sets, in the order, of the sender-rooted
// shortest-path tree pruned to the zone (oracle_test.go holds that
// walk). On an intact tree graph paths are unique, so the subtree is
// the same no matter which member transmits and one span per zone
// replaces one per (source, zone): with 10⁵ members multicasting into
// the root zone, that is the difference between megabytes and hundreds
// of gigabytes of routing state.
type span struct {
	nodes []spanNode
	edges []spanEdge
}

type spanNode struct {
	v      topology.NodeID
	member bool  // deliver here
	lo, hi int32 // adjacency range in span.edges
}

type spanEdge struct {
	to   int32 // span index of the receiving neighbour
	link int32
	dir  uint8 // link direction transmitter→neighbour (0 = A→B)
}

// spanKey names a cached span: the zone's shared one when src is
// topology.NoNode, else the one for src sending into zone.
type spanKey struct {
	src  topology.NodeID
	zone scoping.ZoneID
}

// find returns v's index in the span, if it is on it.
func (sp *span) find(v topology.NodeID) (int32, bool) {
	i, ok := slices.BinarySearchFunc(sp.nodes, v, func(nd spanNode, v topology.NodeID) int {
		return cmp.Compare(nd.v, v)
	})
	return int32(i), ok
}

// intactTree reports whether every Steiner tree is a subtree of one
// orientation of the graph, so spans can be shared and found by
// climbing. A downed link partitions a tree graph; during such fault
// windows routing falls back to per-source Dijkstra, which still routes
// correctly inside the source's component.
func (c *Cluster) intactTree() bool { return c.isTree && c.G.AllLinksUp() }

// fanout returns the span a multicast from `from` into zone follows and
// from's index on it. On an intact tree graph every span is a subtree
// of the tree rooted at node 0, found in O(subtree): the zone's shared
// span when from is on it, else — a sender outside it, such as a
// parent-zone repairer sending into a child zone — the (from, zone)
// one. On a mesh or in a fault window it is the (from, zone) span of
// the sender's own shortest-path tree, O(nodes) per sender.
func (n *Network) fanout(from topology.NodeID, zone scoping.ZoneID) (*span, int32) {
	root := from
	if n.cluster.intactTree() {
		root = 0
		sp := n.span(spanKey{topology.NoNode, zone}, root)
		if at, ok := sp.find(from); ok {
			return sp, at
		}
	}
	sp := n.span(spanKey{from, zone}, root)
	at, _ := sp.find(from)
	return sp, at
}

// span returns the fabric's cached span for key, building it on a miss
// from the routing tree rooted at root, with this view's scratch.
func (n *Network) span(key spanKey, root topology.NodeID) *span {
	c := n.cluster
	return cached(&c.mu, c.spans, key, func() *span { return n.buildSpan(c.tree(root), key) })
}

// spanScratch is a view's working memory for buildSpan: per-node marks
// valid for one build (gen stamps them, so nothing is cleared between
// builds) and the list of kept nodes.
type spanScratch struct {
	marks []spanMark
	gen   uint32
	list  []topology.NodeID
}

type spanMark struct {
	gen  uint32          // kept in the build with this stamp
	kids int32           // kept tree children
	kid  topology.NodeID // the last of them: the only one when kids == 1
}

// buildSpan lays out the Steiner subtree of tree spanning key.zone's
// members and key.src (when there is one). It keeps the union of the
// terminals' paths to the tree root, trims the terminal-free chain
// above their lowest common ancestor, and writes what is left as sorted
// adjacency. Time and allocation are O(subtree) — it never walks a
// node's full child list — and it uses no map: the only per-node state
// is the view's stamped scratch, sized once.
func (n *Network) buildSpan(tree *topology.Tree, key spanKey) *span {
	s := &n.scratch
	if s.marks == nil {
		s.marks = make([]spanMark, n.G.NumNodes())
	}
	s.gen++
	s.list = s.list[:0]
	kept := func(v topology.NodeID) bool { return s.marks[v].gen == s.gen }
	keep := func(v topology.NodeID) {
		s.marks[v] = spanMark{gen: s.gen}
		s.list = append(s.list, v)
	}
	// climb keeps m's path to the root, stopping where it joins a path
	// already kept. Nodes the tree cannot reach (severed by a downed
	// link) are skipped.
	climb := func(m topology.NodeID) {
		if tree.Parent[m] < 0 || kept(m) {
			return
		}
		keep(m)
		for v := m; v != tree.Root; {
			p := tree.Parent[v]
			joined := kept(p)
			if !joined {
				keep(p)
			}
			s.marks[p].kids++
			s.marks[p].kid = v
			if joined {
				return
			}
			v = p
		}
	}
	if key.src != topology.NoNode {
		climb(key.src)
	}
	for _, m := range n.H.Members(key.zone) {
		climb(m)
	}
	terminal := func(v topology.NodeID) bool { return v == key.src || n.H.Contains(key.zone, v) }
	for r := tree.Root; kept(r) && s.marks[r].kids == 1 && !terminal(r); r = s.marks[r].kid {
		s.marks[r].gen = 0
	}
	s.list = slices.DeleteFunc(s.list, func(v topology.NodeID) bool { return !kept(v) })
	slices.Sort(s.list)

	// Every kept node but the top one contributes the edge to its tree
	// parent, in both directions. Count degrees (in hi), turn them into
	// adjacency ranges, fill, then order each node's neighbours by ID —
	// span indices are in ID order, so by index.
	sp := &span{nodes: make([]spanNode, len(s.list))}
	for i, v := range s.list {
		sp.nodes[i] = spanNode{v: v, member: n.H.Contains(key.zone, v)}
	}
	up := func(v topology.NodeID) (int32, bool) {
		if v == tree.Root || !kept(tree.Parent[v]) {
			return 0, false
		}
		return sp.find(tree.Parent[v])
	}
	for i, v := range s.list {
		if pi, ok := up(v); ok {
			sp.nodes[i].hi++
			sp.nodes[pi].hi++
		}
	}
	total := int32(0)
	for i := range sp.nodes {
		nd := &sp.nodes[i]
		nd.lo, nd.hi, total = total, total, total+nd.hi
	}
	sp.edges = make([]spanEdge, total)
	put := func(from, to int32, li int) {
		e := spanEdge{to: to, link: int32(li)}
		if sp.nodes[from].v == n.G.Link(li).B {
			e.dir = 1
		}
		sp.edges[sp.nodes[from].hi] = e
		sp.nodes[from].hi++
	}
	for i, v := range s.list {
		if pi, ok := up(v); ok {
			// The tree's own link, not just any joining the two nodes:
			// with parallel links only it is on the shortest path.
			put(int32(i), pi, tree.ParentLink[v])
			put(pi, int32(i), tree.ParentLink[v])
		}
	}
	for _, nd := range sp.nodes {
		slices.SortFunc(sp.edges[nd.lo:nd.hi], func(a, b spanEdge) int { return cmp.Compare(a.to, b.to) })
	}
	return sp
}
