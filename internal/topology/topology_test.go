package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sharqfec/internal/eventq"
)

func TestChainBasics(t *testing.T) {
	s := Chain(5, 10e6, 0.01, 0.02)
	if s.Graph.NumNodes() != 5 || s.Graph.NumLinks() != 4 {
		t.Fatalf("chain-5: %d nodes %d links", s.Graph.NumNodes(), s.Graph.NumLinks())
	}
	if len(s.Receivers) != 4 {
		t.Fatalf("receivers = %d", len(s.Receivers))
	}
	if len(s.Members()) != 5 {
		t.Fatalf("members = %d", len(s.Members()))
	}
}

func TestSPFTreeChain(t *testing.T) {
	s := Chain(5, 10e6, 0.01, 0)
	tr := s.Graph.SPFTree(0)
	for v := 1; v < 5; v++ {
		if tr.Parent[v] != NodeID(v-1) {
			t.Fatalf("parent[%d] = %d", v, tr.Parent[v])
		}
		want := eventq.Duration(0.01 * float64(v))
		if math.Abs(float64(tr.Dist[v]-want)) > 1e-12 {
			t.Fatalf("dist[%d] = %v, want %v", v, tr.Dist[v], want)
		}
	}
	if tr.Parent[0] != 0 {
		t.Fatal("root parent should be itself")
	}
}

func TestSPFPicksShorterPath(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 1e6, 0.050, 0)
	g.AddLink(0, 2, 1e6, 0.010, 0)
	g.AddLink(2, 1, 1e6, 0.010, 0)
	tr := g.SPFTree(0)
	if tr.Parent[1] != 2 {
		t.Fatalf("node 1 should route via 2, parent = %d", tr.Parent[1])
	}
	if tr.Dist[1] != 0.020 {
		t.Fatalf("dist[1] = %v", tr.Dist[1])
	}
}

func TestTreeChildrenConsistent(t *testing.T) {
	s := BalancedTree([]int{3, 2}, 10e6, 0.02, 0)
	tr := s.Graph.SPFTree(0)
	count := 0
	for v := 0; v < s.Graph.NumNodes(); v++ {
		for _, c := range tr.Children[v] {
			if tr.Parent[c] != NodeID(v) {
				t.Fatalf("child %d of %d has parent %d", c, v, tr.Parent[c])
			}
			count++
		}
	}
	if count != s.Graph.NumNodes()-1 {
		t.Fatalf("tree edge count %d, want %d", count, s.Graph.NumNodes()-1)
	}
}

// TestTreeChildrenShareOneArray checks SPFTree's child lists on random
// graphs — some nodes unreachable, latencies drawn from few values so
// ties occur — against the per-parent append they replaced, and that an
// append to one list leaves its siblings' windows intact.
func TestTreeChildrenShareOneArray(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(40)
		g := New(n)
		for e := rng.IntN(3 * n); e > 0; e-- {
			a, b := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
			if a != b {
				g.AddLink(a, b, 1e6, eventq.Duration(1+rng.IntN(3))*0.01, 0)
			}
		}
		src := NodeID(rng.IntN(n))
		tr := g.SPFTree(src)
		want := make([][]NodeID, n)
		for v := 0; v < n; v++ {
			if NodeID(v) != src && tr.Parent[v] >= 0 {
				want[tr.Parent[v]] = append(want[tr.Parent[v]], NodeID(v))
			}
		}
		if !reflect.DeepEqual(tr.Children, want) {
			t.Fatalf("trial %d: children %v, want %v", trial, tr.Children, want)
		}
		for v := range tr.Children {
			tr.Children[v] = append(tr.Children[v], -1)
			for u := range want {
				if u != v && !slices.Equal(tr.Children[u], want[u]) {
					t.Fatalf("trial %d: appending to node %d's children changed node %d's: %v, want %v",
						trial, v, u, tr.Children[u], want[u])
				}
			}
			tr.Children[v] = tr.Children[v][:len(want[v])]
		}
	}
}

func TestPathLinks(t *testing.T) {
	s := Chain(4, 1e6, 0.01, 0)
	tr := s.Graph.SPFTree(0)
	p := tr.PathLinks(3)
	if len(p) != 3 {
		t.Fatalf("path to node 3 has %d links", len(p))
	}
	if tr.PathLinks(0) != nil {
		t.Fatal("path to root should be nil")
	}
	// links must connect consecutively from the root
	at := NodeID(0)
	for _, li := range p {
		l := s.Graph.Link(li)
		switch at {
		case l.A:
			at = l.B
		case l.B:
			at = l.A
		default:
			t.Fatalf("path link %d does not touch node %d", li, at)
		}
	}
	if at != 3 {
		t.Fatalf("path ends at %d, want 3", at)
	}
}

func TestCompoundLoss(t *testing.T) {
	s := Chain(3, 1e6, 0.01, 0.1)
	tr := s.Graph.SPFTree(0)
	got := s.Graph.CompoundLoss(tr, 2)
	want := 1 - 0.9*0.9
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("compound loss = %v, want %v", got, want)
	}
	if s.Graph.CompoundLoss(tr, 0) != 0 {
		t.Fatal("loss to root should be 0")
	}
}

func TestAsymmetricLoss(t *testing.T) {
	g := New(2)
	li := g.AddLinkAsym(0, 1, 1e6, 0.01, 0.2, 0.05)
	if g.LossFrom(li, 0) != 0.2 {
		t.Fatalf("LossFrom A = %v", g.LossFrom(li, 0))
	}
	if g.LossFrom(li, 1) != 0.05 {
		t.Fatalf("LossFrom B = %v", g.LossFrom(li, 1))
	}
}

func TestRTTSymmetric(t *testing.T) {
	s := BalancedTree([]int{2, 2}, 1e6, 0.01, 0)
	for _, a := range []NodeID{0, 1, 3} {
		for _, b := range []NodeID{2, 4, 5} {
			if s.Graph.RTT(a, b) != s.Graph.RTT(b, a) {
				t.Fatalf("RTT(%d,%d) asymmetric", a, b)
			}
		}
	}
}

func TestStarLatencies(t *testing.T) {
	s := Star(4, 1e6, 0.01, 0)
	tr := s.Graph.SPFTree(0)
	for i := 1; i < 4; i++ {
		want := eventq.Duration(0.01 * float64(i))
		if math.Abs(float64(tr.Dist[i]-want)) > 1e-12 {
			t.Fatalf("star dist[%d] = %v, want %v", i, tr.Dist[i], want)
		}
	}
}

func TestBalancedTreeZones(t *testing.T) {
	s := BalancedTree([]int{3, 2}, 1e6, 0.01, 0)
	if len(s.Zones) != 4 { // global + 3 subtrees
		t.Fatalf("zones = %d, want 4", len(s.Zones))
	}
	seen := map[NodeID]bool{}
	for _, z := range s.Zones {
		for _, v := range z.Leaves {
			if seen[v] {
				t.Fatalf("node %d in two leaf zones", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != s.Graph.NumNodes() {
		t.Fatalf("leaf zones cover %d of %d nodes", len(seen), s.Graph.NumNodes())
	}
}

func TestFigure10Shape(t *testing.T) {
	s := Figure10(Figure10Params{})
	if s.Graph.NumNodes() != 113 {
		t.Fatalf("figure10 nodes = %d, want 113", s.Graph.NumNodes())
	}
	if len(s.Receivers) != 112 {
		t.Fatalf("figure10 receivers = %d, want 112", len(s.Receivers))
	}
	// 7 source links + 7 ring links + 7*3 child + 7*12 grandchild = 119
	if s.Graph.NumLinks() != 119 {
		t.Fatalf("figure10 links = %d, want 119", s.Graph.NumLinks())
	}
	// zones: 1 global + 7 intermediate + 21 leaf = 29
	if len(s.Zones) != 29 {
		t.Fatalf("figure10 zones = %d, want 29", len(s.Zones))
	}
}

func TestFigure10LossCalibration(t *testing.T) {
	s := Figure10(Figure10Params{})
	tr := s.Graph.SPFTree(0)
	var worst, best float64 = 0, 1
	for v := NodeID(8); v < 113; v++ {
		// grandchildren are the leaves: nodes with no children
		if len(tr.Children[v]) != 0 {
			continue
		}
		l := s.Graph.CompoundLoss(tr, v)
		if l > worst {
			worst = l
		}
		if l < best {
			best = l
		}
	}
	if math.Abs(worst-0.283) > 0.01 {
		t.Fatalf("worst leaf loss %.4f, want ≈0.283", worst)
	}
	if math.Abs(best-0.134) > 0.01 {
		t.Fatalf("best leaf loss %.4f, want ≈0.134", best)
	}
}

func TestFigure10WorstSubtreeIsTree4(t *testing.T) {
	s := Figure10(Figure10Params{})
	tr := s.Graph.SPFTree(0)
	// Tree 4 occupies nodes 53..67 per DESIGN.md numbering.
	l53 := s.Graph.CompoundLoss(tr, 57) // a grandchild in tree 4
	for v := NodeID(8); v < 113; v++ {
		if len(tr.Children[v]) != 0 || (v >= 53 && v <= 67) {
			continue
		}
		if s.Graph.CompoundLoss(tr, v) > l53+1e-9 {
			t.Fatalf("node %d lossier (%.4f) than tree-4 leaves (%.4f)", v, s.Graph.CompoundLoss(tr, v), l53)
		}
	}
}

func TestFigure10ZonesNested(t *testing.T) {
	s := Figure10(Figure10Params{})
	byID := map[int]ZoneSpec{}
	for _, z := range s.Zones {
		byID[z.ID] = z
	}
	roots := 0
	for _, z := range s.Zones {
		if z.Parent == -1 {
			roots++
			continue
		}
		if _, ok := byID[z.Parent]; !ok {
			t.Fatalf("zone %d has unknown parent %d", z.ID, z.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("zone roots = %d, want 1", roots)
	}
}

func TestNationalCounts(t *testing.T) {
	p := NationalParams{Regions: 2, Cities: 3, Suburbs: 2, SubscribersPerSuburb: 4}
	s := National(p, 1e6, 0.01, 0)
	wantReceivers := 2 + 2*3 + 2*3*2*4
	if len(s.Receivers) != wantReceivers {
		t.Fatalf("national receivers = %d, want %d", len(s.Receivers), wantReceivers)
	}
	if p.TotalReceivers() != wantReceivers {
		t.Fatalf("TotalReceivers = %d, want %d", p.TotalReceivers(), wantReceivers)
	}
	// zones: 1 + regions + regions*cities + regions*cities*suburbs
	wantZones := 1 + 2 + 6 + 12
	if len(s.Zones) != wantZones {
		t.Fatalf("national zones = %d, want %d", len(s.Zones), wantZones)
	}
}

// appendedNational builds the national hierarchy with plain appends
// and no sizing: the reference National's sized build must equal.
func appendedNational(p NationalParams, bandwidth float64, latency eventq.Duration, loss float64) *Spec {
	total := 1 + p.Regions + p.Regions*p.Cities + p.Regions*p.Cities*p.Suburbs*p.SubscribersPerSuburb
	g := New(total)
	spec := &Spec{Graph: g, Source: 0, Name: fmt.Sprintf("national-%d", total)}
	spec.Zones = append(spec.Zones, ZoneSpec{ID: 0, Parent: -1, Leaves: []NodeID{0}})
	next, zoneID := NodeID(1), 1
	for r := 0; r < p.Regions; r++ {
		region, regionZone := next, zoneID
		next++
		zoneID++
		g.AddLink(0, region, bandwidth, latency, loss)
		spec.Receivers = append(spec.Receivers, region)
		spec.Zones = append(spec.Zones, ZoneSpec{ID: regionZone, Parent: 0, Leaves: []NodeID{region}})
		for c := 0; c < p.Cities; c++ {
			city, cityZone := next, zoneID
			next++
			zoneID++
			g.AddLink(region, city, bandwidth, latency, loss)
			spec.Receivers = append(spec.Receivers, city)
			spec.Zones = append(spec.Zones, ZoneSpec{ID: cityZone, Parent: regionZone, Leaves: []NodeID{city}})
			for s := 0; s < p.Suburbs; s++ {
				suburb := ZoneSpec{ID: zoneID, Parent: cityZone}
				zoneID++
				for k := 0; k < p.SubscribersPerSuburb; k++ {
					g.AddLink(city, next, bandwidth, latency, loss)
					spec.Receivers = append(spec.Receivers, next)
					suburb.Leaves = append(suburb.Leaves, next)
					next++
				}
				spec.Zones = append(spec.Zones, suburb)
			}
		}
	}
	return spec
}

// TestNationalMatchesAppendedBuild: National sizes its links, adjacency,
// zones, receivers and leaves from the hierarchy's counts; link for
// link and edge for edge, it builds what plain appends build.
func TestNationalMatchesAppendedBuild(t *testing.T) {
	for _, p := range []NationalParams{
		{Regions: 2, Cities: 3, Suburbs: 2, SubscribersPerSuburb: 4},
		{Regions: 3, Cities: 2, Suburbs: 4, SubscribersPerSuburb: 0},
		{Regions: 1, Cities: 1, Suburbs: 1, SubscribersPerSuburb: 1},
		{Regions: 4, Cities: 5, Suburbs: 3, SubscribersPerSuburb: 7},
	} {
		got, want := National(p, 10e6, 0.01, 0.02), appendedNational(p, 10e6, 0.01, 0.02)
		if !reflect.DeepEqual(got.Graph.links, want.Graph.links) {
			t.Errorf("%+v: links differ", p)
		}
		if !reflect.DeepEqual(got.Graph.adj, want.Graph.adj) {
			t.Errorf("%+v: adjacency differs", p)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: specs differ:\n got %+v\nwant %+v", p, got, want)
		}
	}
}

func TestPaperNationalScale(t *testing.T) {
	if got := PaperNational().TotalReceivers(); got != 10000210 {
		t.Fatalf("paper national receivers = %d, want 10000210", got)
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddLink(0, 0, 1e6, 0.01, 0) },
		func() { g.AddLink(0, 5, 1e6, 0.01, 0) },
		func() { g.AddLink(0, 1, 0, 0.01, 0) },
		func() { g.AddLink(0, 1, 1e6, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid AddLink did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNeighbors(t *testing.T) {
	s := Star(4, 1e6, 0.01, 0)
	nb := s.Graph.Neighbors(0)
	if len(nb) != 3 {
		t.Fatalf("hub neighbors = %d", len(nb))
	}
	if len(s.Graph.Neighbors(2)) != 1 {
		t.Fatal("spoke should have one neighbor")
	}
}

// Property: in any chain, compound loss is monotonically nondecreasing
// with distance from the source.
func TestPropertyChainLossMonotone(t *testing.T) {
	f := func(nRaw, lossRaw uint8) bool {
		n := int(nRaw%20) + 2
		loss := float64(lossRaw%50) / 100
		s := Chain(n, 1e6, 0.01, loss)
		tr := s.Graph.SPFTree(0)
		prev := -1.0
		for v := 0; v < n; v++ {
			l := s.Graph.CompoundLoss(tr, NodeID(v))
			if l < prev-1e-12 {
				return false
			}
			prev = l
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SPF distances satisfy the triangle property along tree edges:
// dist[child] = dist[parent] + latency(link).
func TestPropertyTreeDistances(t *testing.T) {
	s := Figure10(Figure10Params{})
	tr := s.Graph.SPFTree(0)
	for v := 1; v < s.Graph.NumNodes(); v++ {
		li := tr.ParentLink[v]
		if li < 0 {
			t.Fatalf("node %d unreachable", v)
		}
		want := tr.Dist[tr.Parent[v]] + s.Graph.Link(li).Latency
		if math.Abs(float64(tr.Dist[v]-want)) > 1e-12 {
			t.Fatalf("dist[%d] inconsistent", v)
		}
	}
}

func TestRandomTreeShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s := RandomTree(rng, 20, 3, 0.02, 0.2)
	if s.Graph.NumNodes() != 20 || s.Graph.NumLinks() != 19 {
		t.Fatalf("random tree: %d nodes %d links", s.Graph.NumNodes(), s.Graph.NumLinks())
	}
	tr := s.Graph.SPFTree(0)
	for v := 0; v < 20; v++ {
		if len(tr.Children[v]) > 3 {
			t.Fatalf("node %d fanout %d > 3", v, len(tr.Children[v]))
		}
	}
	// Zones partition all nodes.
	seen := map[NodeID]bool{}
	for _, z := range s.Zones {
		for _, v := range z.Leaves {
			if seen[v] {
				t.Fatalf("node %d in two leaf zones", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("zones cover %d/20 nodes", len(seen))
	}
}

// Property: random trees are connected with in-range losses.
func TestPropertyRandomTreeValid(t *testing.T) {
	f := func(seed uint64, nRaw, fanRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := int(nRaw%30) + 2
		fan := int(fanRaw%4) + 1
		s := RandomTree(rng, n, fan, 0.01, 0.3)
		tr := s.Graph.SPFTree(0)
		for v := 0; v < n; v++ {
			if tr.Parent[v] < 0 {
				return false // disconnected
			}
		}
		for i := 0; i < s.Graph.NumLinks(); i++ {
			l := s.Graph.Link(i)
			if l.LossAB < 0.01 || l.LossAB > 0.3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestParse: the -topology grammar builds each named shape, gives the
// chain its two-zone layout, and names the bad input in its error.
func TestParse(t *testing.T) {
	for _, c := range []struct {
		s            string
		nodes, zones int
	}{
		{"figure10", 113, len(Figure10(Figure10Params{}).Zones)},
		{"chain:2", 2, 1},
		{"chain:8", 8, 2},
		{"star:5", 5, 1},
		{"tree:3x2", 1 + 3 + 6, 4},
	} {
		s, err := Parse(c.s, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", c.s, err)
		}
		if s.Graph.NumNodes() != c.nodes || len(s.Zones) != c.zones {
			t.Errorf("%s: %d nodes, %d zones; want %d, %d", c.s, s.Graph.NumNodes(), len(s.Zones), c.nodes, c.zones)
		}
	}
	for s, want := range map[string]string{
		"chain:1":  `bad chain size in "chain:1"`,
		"star:x":   `bad star size in "star:x"`,
		"tree:3x0": `bad tree fanout in "tree:3x0"`,
		"tree:":    `bad tree fanout in "tree:"`,
		"chain":    `unknown topology "chain"`,
		"ring:4":   `unknown topology "ring:4"`,
	} {
		if _, err := Parse(s, 0); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", s, err, want)
		}
	}
}
