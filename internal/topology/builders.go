package topology

import (
	"fmt"
	"math/rand/v2"

	"sharqfec/internal/eventq"
)

// ZoneSpec describes one administratively scoped zone as plain data, so
// builders can hand zone layouts to the scoping package without an import
// cycle. Zones form a tree via Parent (Parent == -1 for the root zone).
// Leaves lists the nodes whose *smallest* zone this is; membership in
// ancestor zones is implied.
type ZoneSpec struct {
	ID     int
	Parent int
	Leaves []NodeID
}

// Spec bundles a built graph with the roles and zone layout an experiment
// needs.
type Spec struct {
	Graph  *Graph
	Source NodeID
	// Receivers lists every session member other than the source.
	Receivers []NodeID
	// Zones is the administrative scoping layout (root zone first).
	Zones []ZoneSpec
	// Name describes the topology for logs and experiment output.
	Name string
}

// Members returns the source plus all receivers.
func (s *Spec) Members() []NodeID {
	out := make([]NodeID, 0, len(s.Receivers)+1)
	out = append(out, s.Source)
	out = append(out, s.Receivers...)
	return out
}

// Chain builds a linear chain of n nodes (0—1—…—n-1) with the given link
// parameters and node 0 as the source. A single global zone covers all
// nodes. Used by the §6.1 ZCR-election tests.
func Chain(n int, bandwidth float64, latency eventq.Duration, loss float64) *Spec {
	if n < 2 {
		panic("topology: chain needs >= 2 nodes")
	}
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddLink(NodeID(i), NodeID(i+1), bandwidth, latency, loss)
	}
	return &Spec{
		Graph:     g,
		Source:    0,
		Receivers: seqNodes(1, n),
		Zones:     []ZoneSpec{{ID: 0, Parent: -1, Leaves: seqNodes(0, n)}},
		Name:      fmt.Sprintf("chain-%d", n),
	}
}

// Star builds a hub-and-spoke graph: node 0 is the source at the hub with
// n-1 spokes. Spoke i's latency is latency×i to make election distances
// distinct. Used by the §6.1 ZCR "fork" tests.
func Star(n int, bandwidth float64, latency eventq.Duration, loss float64) *Spec {
	if n < 2 {
		panic("topology: star needs >= 2 nodes")
	}
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddLink(0, NodeID(i), bandwidth, latency*eventq.Duration(i), loss)
	}
	return &Spec{
		Graph:     g,
		Source:    0,
		Receivers: seqNodes(1, n),
		Zones:     []ZoneSpec{{ID: 0, Parent: -1, Leaves: seqNodes(0, n)}},
		Name:      fmt.Sprintf("star-%d", n),
	}
}

// BalancedTree builds a rooted tree where level i has fanout[i] children
// per node. Node 0 (the root) is the source. Each subtree under a depth-1
// node becomes a child zone of the global zone. Used by §6.1 tests.
func BalancedTree(fanout []int, bandwidth float64, latency eventq.Duration, loss float64) *Spec {
	if len(fanout) == 0 {
		panic("topology: empty fanout")
	}
	total := 1
	level := 1
	for _, f := range fanout {
		level *= f
		total += level
	}
	g := New(total)
	next := NodeID(1)
	frontier := []NodeID{0}
	for _, f := range fanout {
		var newFrontier []NodeID
		for _, p := range frontier {
			for c := 0; c < f; c++ {
				g.AddLink(p, next, bandwidth, latency, loss)
				newFrontier = append(newFrontier, next)
				next++
			}
		}
		frontier = newFrontier
	}
	spec := &Spec{
		Graph:     g,
		Source:    0,
		Receivers: seqNodes(1, total),
		Name:      fmt.Sprintf("tree-%v", fanout),
	}
	// Zones: global zone holds the root; each depth-1 subtree is a zone.
	spec.Zones = append(spec.Zones, ZoneSpec{ID: 0, Parent: -1, Leaves: []NodeID{0}})
	tree := g.SPFTree(0)
	for i, c := range tree.Children[0] {
		zone := ZoneSpec{ID: i + 1, Parent: 0}
		var collect func(v NodeID)
		collect = func(v NodeID) {
			zone.Leaves = append(zone.Leaves, v)
			for _, ch := range tree.Children[v] {
				collect(ch)
			}
		}
		collect(c)
		spec.Zones = append(spec.Zones, zone)
	}
	return spec
}

// Figure10Params control the calibrated parts of the Figure-10 topology.
// Zero values select the defaults described in DESIGN.md.
type Figure10Params struct {
	// MeshPathLoss[i] is the compound loss applied on the source→mesh
	// link for mesh node i+1. Defaults reproduce the loss spread the
	// paper states (worst subtree ≈28.3 % compound, best ≈13.4 %).
	MeshPathLoss [7]float64
	// MeshLatency[i] is the backbone latency for mesh node i+1.
	MeshLatency [7]eventq.Duration
}

func (p *Figure10Params) applyDefaults() {
	var zeroLoss [7]float64
	if p.MeshPathLoss == zeroLoss {
		// Calibrated so compound source→leaf loss spans ≈13.4 %…28.3 %:
		// through a tree, compound = 1-(1-m)(1-0.08)(1-0.04).
		// m=0.188 → 28.3 %; m=0.020 → 13.4 %. Tree 4 (receivers 53–67)
		// gets the worst path; trees 6 and 7 the best, matching the
		// receiver ranges the paper calls out.
		p.MeshPathLoss = [7]float64{0.08, 0.05, 0.11, 0.188, 0.14, 0.02, 0.02}
	}
	var zeroLat [7]eventq.Duration
	if p.MeshLatency == zeroLat {
		p.MeshLatency = [7]eventq.Duration{0.010, 0.015, 0.020, 0.040, 0.030, 0.025, 0.012}
	}
}

// Figure10 builds the §6 evaluation topology: source node 0 feeds a mesh
// of 7 backbone nodes (45 Mbit/s links); each mesh node roots a balanced
// tree of 3 children × 4 grandchildren (10 Mbit/s, 20 ms links), for 112
// receivers / 113 nodes. Tree-link losses are 8 % (mesh→child) and 4 %
// (child→grandchild) as the paper states. Mesh latencies and losses are
// calibrated per DESIGN.md. Zones: Z0 global; one intermediate zone per
// mesh subtree; one leaf zone per child subtree.
func Figure10(params Figure10Params) *Spec {
	params.applyDefaults()
	const (
		meshBW  = 45e6
		treeBW  = 10e6
		treeLat = eventq.Duration(0.020)
	)
	g := New(113)
	// Mesh nodes 1..7, each with a direct backbone path from the source
	// and lateral mesh links joining neighbours (a ring), so repair
	// traffic between subtrees has non-source routes.
	for i := 0; i < 7; i++ {
		g.AddLink(0, NodeID(i+1), meshBW, params.MeshLatency[i], params.MeshPathLoss[i])
	}
	for i := 0; i < 7; i++ {
		a, b := NodeID(i+1), NodeID((i+1)%7+1)
		g.AddLink(a, b, meshBW, 0.035, 0.03)
	}
	spec := &Spec{Graph: g, Source: 0, Name: "figure10"}
	spec.Zones = append(spec.Zones, ZoneSpec{ID: 0, Parent: -1, Leaves: []NodeID{0}})

	next := NodeID(8)
	zoneID := 1
	for m := 0; m < 7; m++ {
		mesh := NodeID(m + 1)
		spec.Receivers = append(spec.Receivers, mesh)
		interZone := ZoneSpec{ID: zoneID, Parent: 0, Leaves: []NodeID{mesh}}
		interID := zoneID
		zoneID++
		var leafZones []ZoneSpec
		for c := 0; c < 3; c++ {
			child := next
			next++
			g.AddLink(mesh, child, treeBW, treeLat, 0.08)
			spec.Receivers = append(spec.Receivers, child)
			leaf := ZoneSpec{ID: zoneID, Parent: interID, Leaves: []NodeID{child}}
			zoneID++
			for gc := 0; gc < 4; gc++ {
				grand := next
				next++
				g.AddLink(child, grand, treeBW, treeLat, 0.04)
				spec.Receivers = append(spec.Receivers, grand)
				leaf.Leaves = append(leaf.Leaves, grand)
			}
			leafZones = append(leafZones, leaf)
		}
		spec.Zones = append(spec.Zones, interZone)
		spec.Zones = append(spec.Zones, leafZones...)
	}
	if int(next) != 113 {
		panic("topology: figure10 node count mismatch")
	}
	return spec
}

// NationalParams describe the Figure-7 national distribution hierarchy:
// Regions regions, each with Cities cities, each with Suburbs suburbs of
// SubscribersPerSuburb receivers; dedicated caching receivers act as ZCRs
// at each bifurcation point.
type NationalParams struct {
	Regions              int
	Cities               int
	Suburbs              int
	SubscribersPerSuburb int
}

// PaperNational returns the parameters of the paper's worked example:
// 10 regions × 20 cities × 100 suburbs × 500 subscribers (10,000,210
// receivers including the dedicated caches).
func PaperNational() NationalParams {
	return NationalParams{Regions: 10, Cities: 20, Suburbs: 100, SubscribersPerSuburb: 500}
}

// TotalReceivers returns the total receiver count including the dedicated
// regional and city caches (the paper's 10,000,210 for PaperNational).
func (p NationalParams) TotalReceivers() int {
	return p.Regions + p.Regions*p.Cities + p.Regions*p.Cities*p.Suburbs*p.SubscribersPerSuburb
}

// National builds a (scaled-down) national hierarchy graph for measured
// session-scaling experiments. For the paper-scale analytic table use
// internal/analysis, which does not materialize the graph.
func National(p NationalParams, bandwidth float64, latency eventq.Duration, loss float64) *Spec {
	cities := p.Regions * p.Cities
	suburbs := cities * p.Suburbs
	total := 1 + p.Regions + cities + suburbs*p.SubscribersPerSuburb
	g := New(total)
	// The builder knows every count up front: a link per non-source
	// node, each node's degree, each zone's leaves. The links, the
	// adjacency, the zones, the receivers and the leaves are sized from
	// them, and AddLink's appends fill each in place, in the order (and
	// so at the link and edge indices) plain appends would.
	g.links = make([]Link, 0, total-1)
	edges := make([]edge, 2*(total-1))
	leaves := make([]NodeID, total)
	reserve := func(v NodeID, degree int) { g.adj[v], edges = edges[:0:degree], edges[degree:] }
	take := func(n int) (l []NodeID) {
		l, leaves = leaves[:0:n], leaves[n:]
		return l
	}
	spec := &Spec{
		Graph: g, Source: 0, Name: fmt.Sprintf("national-%d", total),
		Receivers: make([]NodeID, 0, total-1),
		Zones:     make([]ZoneSpec, 0, 1+p.Regions+cities+suburbs),
	}
	reserve(0, p.Regions)
	spec.Zones = append(spec.Zones, ZoneSpec{ID: 0, Parent: -1, Leaves: append(take(1), 0)})
	next := NodeID(1)
	zoneID := 1
	for r := 0; r < p.Regions; r++ {
		region := next
		next++
		reserve(region, 1+p.Cities)
		g.AddLink(0, region, bandwidth, latency, loss)
		spec.Receivers = append(spec.Receivers, region)
		regionZone := zoneID
		spec.Zones = append(spec.Zones, ZoneSpec{ID: regionZone, Parent: 0, Leaves: append(take(1), region)})
		zoneID++
		for c := 0; c < p.Cities; c++ {
			city := next
			next++
			reserve(city, 1+p.Suburbs*p.SubscribersPerSuburb)
			g.AddLink(region, city, bandwidth, latency, loss)
			spec.Receivers = append(spec.Receivers, city)
			cityZone := zoneID
			spec.Zones = append(spec.Zones, ZoneSpec{ID: cityZone, Parent: regionZone, Leaves: append(take(1), city)})
			zoneID++
			for s := 0; s < p.Suburbs; s++ {
				suburbZone := ZoneSpec{ID: zoneID, Parent: cityZone}
				zoneID++
				if p.SubscribersPerSuburb > 0 {
					suburbZone.Leaves = take(p.SubscribersPerSuburb)
				}
				for k := 0; k < p.SubscribersPerSuburb; k++ {
					sub := next
					next++
					reserve(sub, 1)
					g.AddLink(city, sub, bandwidth, latency, loss)
					spec.Receivers = append(spec.Receivers, sub)
					suburbZone.Leaves = append(suburbZone.Leaves, sub)
				}
				spec.Zones = append(spec.Zones, suburbZone)
			}
		}
	}
	return spec
}

func seqNodes(from, to int) []NodeID {
	out := make([]NodeID, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, NodeID(i))
	}
	return out
}

// RandomTree builds a random rooted tree of n nodes: each new node
// attaches under a uniformly chosen existing node (capped at maxFanout
// children), with per-link loss drawn uniformly from [lossLo, lossHi]
// and latency from [5, 45] ms. Depth-1 subtrees become child zones.
// Used by robustness property tests: the protocol must recover on any
// such topology.
func RandomTree(rng *rand.Rand, n, maxFanout int, lossLo, lossHi float64) *Spec {
	if n < 2 {
		panic("topology: random tree needs >= 2 nodes")
	}
	if maxFanout < 1 {
		maxFanout = 1
	}
	g := New(n)
	children := make([]int, n)
	for v := 1; v < n; v++ {
		// Pick a parent with spare fanout.
		var candidates []NodeID
		for p := 0; p < v; p++ {
			if children[p] < maxFanout {
				candidates = append(candidates, NodeID(p))
			}
		}
		parent := candidates[rng.IntN(len(candidates))]
		children[parent]++
		loss := lossLo + (lossHi-lossLo)*rng.Float64()
		latency := eventq.Duration(0.005 + 0.040*rng.Float64())
		g.AddLink(parent, NodeID(v), 10e6, latency, loss)
	}
	spec := &Spec{
		Graph:     g,
		Source:    0,
		Receivers: seqNodes(1, n),
		Name:      fmt.Sprintf("random-tree-%d", n),
	}
	spec.Zones = append(spec.Zones, ZoneSpec{ID: 0, Parent: -1, Leaves: []NodeID{0}})
	tree := g.SPFTree(0)
	for i, c := range tree.Children[0] {
		zone := ZoneSpec{ID: i + 1, Parent: 0}
		var collect func(v NodeID)
		collect = func(v NodeID) {
			zone.Leaves = append(zone.Leaves, v)
			for _, ch := range tree.Children[v] {
				collect(ch)
			}
		}
		collect(c)
		spec.Zones = append(spec.Zones, zone)
	}
	return spec
}
