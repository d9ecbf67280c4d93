// Package topology models the simulated network: nodes joined by duplex
// links with bandwidth, propagation latency and per-direction loss rates,
// plus shortest-path routing and source-rooted multicast trees.
//
// It also provides builders for every network the paper uses: chains,
// stars and balanced trees (ZCR-election tests, §6.1), the Figure-10
// hybrid mesh-tree used for all data/repair simulations (§6.2), and the
// 4-level national distribution hierarchy of Figures 7–8.
package topology

import (
	"fmt"
	"math"

	"sharqfec/internal/eventq"
)

// NodeID identifies a node. IDs are dense, starting at zero.
type NodeID int

// NoNode is the sentinel for "no node" (unknown ZCR, absent peer).
const NoNode = NodeID(-1)

// Link is a duplex link between two nodes.
type Link struct {
	A, B NodeID
	// Bandwidth is the transmission rate in bits per second (per
	// direction).
	Bandwidth float64
	// Latency is the one-way propagation delay.
	Latency eventq.Duration
	// LossAB and LossBA are the packet loss probabilities in each
	// direction, applied to loss-eligible packets only.
	LossAB, LossBA float64
}

// edge is one direction of a link in the adjacency structure.
type edge struct {
	peer NodeID
	link int // index into Graph.links
}

// Graph is an undirected multigraph of nodes and duplex links.
type Graph struct {
	n     int
	links []Link
	adj   [][]edge
	// down marks administratively disabled links (fault injection).
	// nil until the first SetLinkUp(false), so static simulations pay
	// nothing for the feature. ndown counts currently disabled links.
	down  []bool
	ndown int
}

// New creates a graph with n nodes and no links.
func New(n int) *Graph {
	if n < 1 {
		panic("topology: graph needs at least one node")
	}
	return &Graph{n: n, adj: make([][]edge, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumLinks returns the number of duplex links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns the i'th link.
func (g *Graph) Link(i int) Link { return g.links[i] }

// AddLink adds a duplex link with symmetric loss and returns its index.
func (g *Graph) AddLink(a, b NodeID, bandwidth float64, latency eventq.Duration, loss float64) int {
	return g.AddLinkAsym(a, b, bandwidth, latency, loss, loss)
}

// AddLinkAsym adds a duplex link with per-direction loss rates and returns
// its index.
func (g *Graph) AddLinkAsym(a, b NodeID, bandwidth float64, latency eventq.Duration, lossAB, lossBA float64) int {
	if a < 0 || int(a) >= g.n || b < 0 || int(b) >= g.n {
		panic(fmt.Sprintf("topology: link %d-%d out of range (n=%d)", a, b, g.n))
	}
	if a == b {
		panic("topology: self-link")
	}
	if bandwidth <= 0 {
		panic("topology: non-positive bandwidth")
	}
	if latency < 0 {
		panic("topology: negative latency")
	}
	idx := len(g.links)
	g.links = append(g.links, Link{A: a, B: b, Bandwidth: bandwidth, Latency: latency, LossAB: lossAB, LossBA: lossBA})
	g.adj[a] = append(g.adj[a], edge{peer: b, link: idx})
	g.adj[b] = append(g.adj[b], edge{peer: a, link: idx})
	return idx
}

// SetLinkUp enables or disables link i. Disabled links are skipped by
// SPFTree, so routing recomputes around them; callers that cache trees
// must discard them after a change. A simulation changes link state
// through netsim.Network.SetLinkUp, which calls this and does so.
func (g *Graph) SetLinkUp(i int, up bool) {
	if i < 0 || i >= len(g.links) {
		panic(fmt.Sprintf("topology: SetLinkUp on unknown link %d", i))
	}
	if g.down == nil {
		if up {
			return
		}
		g.down = make([]bool, len(g.links))
	}
	if g.down[i] == !up {
		return
	}
	g.down[i] = !up
	if up {
		g.ndown--
	} else {
		g.ndown++
	}
}

// LinkUp reports whether link i is enabled (all links start enabled).
func (g *Graph) LinkUp(i int) bool { return g.down == nil || !g.down[i] }

// AllLinksUp reports whether no link is currently disabled — the guard
// for fast paths (like netsim's shared zone spans on tree graphs) that
// assume the graph's static connectivity.
func (g *Graph) AllLinksUp() bool { return g.ndown == 0 }

// Clone returns a deep copy of the graph, so fault-injection runs can
// mutate link state without contaminating a shared topology spec.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, links: append([]Link(nil), g.links...), adj: make([][]edge, g.n)}
	for v := range g.adj {
		c.adj[v] = append([]edge(nil), g.adj[v]...)
	}
	if g.down != nil {
		c.down = append([]bool(nil), g.down...)
		c.ndown = g.ndown
	}
	return c
}

// LossFrom returns the loss probability for traffic flowing out of node
// from over link i.
func (g *Graph) LossFrom(i int, from NodeID) float64 {
	l := g.links[i]
	if from == l.A {
		return l.LossAB
	}
	return l.LossBA
}

// Neighbors returns the IDs of nodes adjacent to v.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	out := make([]NodeID, len(g.adj[v]))
	for i, e := range g.adj[v] {
		out[i] = e.peer
	}
	return out
}

// Tree is a source-rooted routing tree: the union of latency-shortest
// paths from Root to every reachable node.
type Tree struct {
	Root NodeID
	// Parent[v] is v's parent toward the root; Parent[Root] = Root.
	// Unreachable nodes have Parent = -1.
	Parent []NodeID
	// ParentLink[v] is the index of the link joining v to Parent[v],
	// or -1 for the root / unreachable nodes.
	ParentLink []int
	// Children[v] lists v's children in the tree.
	Children [][]NodeID
	// Dist[v] is the total propagation latency from the root to v
	// (eventq.Never if unreachable).
	Dist []eventq.Duration
}

// SPFTree computes the shortest-path (by propagation latency) tree rooted
// at src using Dijkstra's algorithm. Ties are broken toward the
// lower-numbered parent for determinism.
func (g *Graph) SPFTree(src NodeID) *Tree {
	const inf = eventq.Duration(math.MaxFloat64)
	dist := make([]eventq.Duration, g.n)
	parent := make([]NodeID, g.n)
	plink := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = inf
		parent[i] = -1
		plink[i] = -1
	}
	dist[src] = 0
	parent[src] = src

	// Lazy-deletion binary heap keyed (dist, node id). This replaces the
	// original O(n²) selection scan — which that scan's "first strictly
	// smaller" rule made pick the lowest-numbered node among the
	// minimum-distance frontier — with the identical extraction order at
	// O((n+m) log n), the difference between seconds and hours on the
	// 10⁵-node sharded-scaling topologies. Entries are pushed only on
	// strict distance improvements; an equal-distance parent improvement
	// leaves the node's key unchanged, so no re-push is needed and the
	// pop order (hence the whole tree) is byte-identical to the scan.
	type heapNode struct {
		d eventq.Duration
		v NodeID
	}
	h := make([]heapNode, 0, 64)
	hless := func(a, b heapNode) bool {
		if a.d != b.d {
			return a.d < b.d
		}
		return a.v < b.v
	}
	push := func(d eventq.Duration, v NodeID) {
		h = append(h, heapNode{d, v})
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !hless(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() heapNode {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && hless(h[c+1], h[c]) {
				c++
			}
			if !hless(h[c], h[i]) {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		return top
	}
	push(0, src)
	for len(h) > 0 {
		top := pop()
		best := top.v
		if done[best] || top.d != dist[best] {
			continue // stale entry superseded by a strict improvement
		}
		done[best] = true
		for _, e := range g.adj[best] {
			if g.down != nil && g.down[e.link] {
				continue
			}
			nd := dist[best] + g.links[e.link].Latency
			if nd < dist[e.peer] {
				dist[e.peer] = nd
				parent[e.peer] = best
				plink[e.peer] = e.link
				push(nd, e.peer)
			} else if nd == dist[e.peer] && parent[e.peer] >= 0 && best < parent[e.peer] && !done[e.peer] {
				// Tie toward the lower-numbered parent, as before; the
				// node's distance key is unchanged, so its existing heap
				// entry stays valid.
				parent[e.peer] = best
				plink[e.peer] = e.link
			}
		}
	}

	// Every child list is a window of one array: count each parent's
	// children, turn the counts into window ends, then fill the windows
	// back to front so each lists its children in node order. A window
	// is capped at its end, so appending to one list cannot overwrite
	// the next.
	end := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		if NodeID(v) != src && parent[v] >= 0 {
			end[parent[v]]++
		}
	}
	total := 0
	for p := range end {
		total += end[p]
		end[p] = total
	}
	all := make([]NodeID, total)
	for v := g.n - 1; v >= 0; v-- {
		if NodeID(v) != src && parent[v] >= 0 {
			end[parent[v]]--
			all[end[parent[v]]] = NodeID(v)
		}
	}
	children := make([][]NodeID, g.n)
	for p, lo := range end { // end[p] is now the window's start
		hi := total
		if p+1 < g.n {
			hi = end[p+1]
		}
		if hi > lo {
			children[p] = all[lo:hi:hi]
		}
	}
	for v := range dist {
		if dist[v] == inf {
			dist[v] = eventq.Duration(math.MaxFloat64)
		}
	}
	return &Tree{Root: src, Parent: parent, ParentLink: plink, Children: children, Dist: dist}
}

// PathLinks returns the link indices along the tree path from the root to
// v, in root→v order. It returns nil for the root and for unreachable
// nodes.
func (t *Tree) PathLinks(v NodeID) []int {
	if v == t.Root || t.Parent[v] < 0 {
		return nil
	}
	var rev []int
	for u := v; u != t.Root; u = t.Parent[u] {
		rev = append(rev, t.ParentLink[u])
	}
	out := make([]int, len(rev))
	for i, l := range rev {
		out[len(rev)-1-i] = l
	}
	return out
}

// CompoundLoss returns the probability that a loss-eligible packet sent by
// the root fails to reach v, compounding per-link loss along the tree
// path: 1 - Π(1 - loss_i).
func (g *Graph) CompoundLoss(t *Tree, v NodeID) float64 {
	if v == t.Root {
		return 0
	}
	pOK := 1.0
	u := v
	for u != t.Root {
		li := t.ParentLink[u]
		if li < 0 {
			return 1
		}
		pOK *= 1 - g.LossFrom(li, t.Parent[u])
		u = t.Parent[u]
	}
	return 1 - pOK
}

// RTT returns the round-trip propagation latency between a and b along
// shortest paths (2 × one-way latency; the graphs here are symmetric).
func (g *Graph) RTT(a, b NodeID) eventq.Duration {
	t := g.SPFTree(a)
	return 2 * t.Dist[b]
}
