package scoping

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sharqfec/internal/topology"
)

// threeLevel builds the Figure-3-style hierarchy used across these tests:
//
//	Z0 {0} — Z1 {1} — Z3 {3,4}, Z4 {5,6}
//	        \ Z2 {2} — Z5 {7,8}, Z6 {9,10}
func threeLevel(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := Build([]topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1}},
		{ID: 2, Parent: 0, Leaves: []topology.NodeID{2}},
		{ID: 3, Parent: 1, Leaves: []topology.NodeID{3, 4}},
		{ID: 4, Parent: 1, Leaves: []topology.NodeID{5, 6}},
		{ID: 5, Parent: 2, Leaves: []topology.NodeID{7, 8}},
		{ID: 6, Parent: 2, Leaves: []topology.NodeID{9, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuildBasics(t *testing.T) {
	h := threeLevel(t)
	if h.NumZones() != 7 {
		t.Fatalf("zones = %d", h.NumZones())
	}
	if h.Level(h.Root()) != 0 {
		t.Fatal("root level != 0")
	}
}

func TestLevels(t *testing.T) {
	h := threeLevel(t)
	if h.Level(1) != 1 || h.Level(3) != 2 {
		t.Fatalf("levels wrong: %d %d", h.Level(1), h.Level(3))
	}
}

func TestLeafZone(t *testing.T) {
	h := threeLevel(t)
	cases := map[topology.NodeID]ZoneID{0: 0, 1: 1, 2: 2, 3: 3, 5: 4, 8: 5, 10: 6}
	for n, want := range cases {
		if got := h.LeafZone(n); got != want {
			t.Fatalf("LeafZone(%d) = %d, want %d", n, got, want)
		}
	}
	if h.LeafZone(99) != NoZone {
		t.Fatal("non-member should have NoZone")
	}
}

func TestZonesOfChain(t *testing.T) {
	h := threeLevel(t)
	got := h.ZonesOf(5)
	want := []ZoneID{4, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("ZonesOf(5) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ZonesOf(5) = %v, want %v", got, want)
		}
	}
	if h.ZonesOf(42) != nil {
		t.Fatal("ZonesOf(non-member) should be nil")
	}
}

func TestMembersAggregation(t *testing.T) {
	h := threeLevel(t)
	if got := len(h.Members(0)); got != 11 {
		t.Fatalf("|members(Z0)| = %d, want 11", got)
	}
	if got := len(h.Members(1)); got != 5 { // 1,3,4,5,6
		t.Fatalf("|members(Z1)| = %d, want 5", got)
	}
	if got := len(h.Members(4)); got != 2 {
		t.Fatalf("|members(Z4)| = %d, want 2", got)
	}
	// Members must be sorted.
	m := h.Members(1)
	for i := 1; i < len(m); i++ {
		if m[i-1] >= m[i] {
			t.Fatalf("members not sorted: %v", m)
		}
	}
}

func TestContains(t *testing.T) {
	h := threeLevel(t)
	if !h.Contains(0, 10) {
		t.Fatal("Z0 should contain node 10")
	}
	if !h.Contains(2, 7) {
		t.Fatal("Z2 should contain node 7")
	}
	if h.Contains(1, 7) {
		t.Fatal("Z1 should not contain node 7")
	}
	if h.Contains(3, 99) {
		t.Fatal("non-member contained")
	}
}

func TestIsAncestor(t *testing.T) {
	h := threeLevel(t)
	if !h.IsAncestor(0, 6) || !h.IsAncestor(2, 5) || !h.IsAncestor(3, 3) {
		t.Fatal("ancestor relations wrong")
	}
	if h.IsAncestor(1, 5) {
		t.Fatal("Z1 is not an ancestor of Z5")
	}
}

func TestEscalate(t *testing.T) {
	h := threeLevel(t)
	if h.Escalate(4) != 1 {
		t.Fatalf("Escalate(Z4) = %d", h.Escalate(4))
	}
	if h.Escalate(1) != 0 {
		t.Fatalf("Escalate(Z1) = %d", h.Escalate(1))
	}
	if h.Escalate(0) != 0 {
		t.Fatal("Escalate(root) should be root")
	}
}

func TestCommonZone(t *testing.T) {
	h := threeLevel(t)
	if z := h.CommonZone(3, 4); z != 3 {
		t.Fatalf("CommonZone(3,4) = %d, want 3", z)
	}
	if z := h.CommonZone(3, 5); z != 1 {
		t.Fatalf("CommonZone(3,5) = %d, want 1", z)
	}
	if z := h.CommonZone(3, 9); z != 0 {
		t.Fatalf("CommonZone(3,9) = %d, want 0", z)
	}
	if z := h.CommonZone(3, 99); z != NoZone {
		t.Fatal("CommonZone with non-member should be NoZone")
	}
}

func TestParentChildren(t *testing.T) {
	h := threeLevel(t)
	if h.Parent(h.Root()) != NoZone {
		t.Fatal("root parent should be NoZone")
	}
	if len(h.Children(0)) != 2 || len(h.Children(1)) != 2 || len(h.Children(3)) != 0 {
		t.Fatal("children counts wrong")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name  string
		specs []topology.ZoneSpec
	}{
		{"empty", nil},
		{"no root", []topology.ZoneSpec{{ID: 0, Parent: 1}, {ID: 1, Parent: 0}}},
		{"two roots", []topology.ZoneSpec{{ID: 0, Parent: -1}, {ID: 1, Parent: -1}}},
		{"unknown parent", []topology.ZoneSpec{{ID: 0, Parent: -1}, {ID: 1, Parent: 9}}},
		{"duplicate id", []topology.ZoneSpec{{ID: 0, Parent: -1}, {ID: 0, Parent: 0}}},
		{"dup leaf node", []topology.ZoneSpec{
			{ID: 0, Parent: -1, Leaves: []topology.NodeID{1}},
			{ID: 1, Parent: 0, Leaves: []topology.NodeID{1}},
		}},
		{"negative leaf node", []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, -3}}}},
	}
	for _, c := range cases {
		if _, err := Build(c.specs); err == nil {
			t.Fatalf("%s: Build succeeded, want error", c.name)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on invalid spec")
		}
	}()
	MustBuild(nil)
}

func TestFigure10Hierarchy(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	h, err := Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumZones() != 29 {
		t.Fatalf("zones = %d", h.NumZones())
	}
	if got := len(h.Members(h.Root())); got != 113 {
		t.Fatalf("global members = %d, want 113", got)
	}
	// Every receiver's zone chain has length 3 (leaf, intermediate,
	// global) except mesh nodes (2) and the source (1).
	for _, r := range spec.Receivers {
		n := len(h.ZonesOf(r))
		if r >= 1 && r <= 7 {
			if n != 2 {
				t.Fatalf("mesh node %d chain length %d, want 2", r, n)
			}
		} else if n != 3 {
			t.Fatalf("receiver %d chain length %d, want 3", r, n)
		}
	}
	if len(h.ZonesOf(spec.Source)) != 1 {
		t.Fatal("source should subscribe only to the global zone")
	}
}

// Property: for every node in the Figure-10 hierarchy, Members(z) for each
// z in ZonesOf(node) contains the node, and member sets grow (nest) as the
// scope widens.
func TestPropertyNestedMembership(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	h := MustBuild(spec.Zones)
	for _, n := range spec.Members() {
		chain := h.ZonesOf(n)
		prev := 0
		for _, z := range chain {
			ms := h.Members(z)
			found := false
			for _, m := range ms {
				if m == n {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d missing from zone %d members", n, z)
			}
			if len(ms) < prev {
				t.Fatalf("zone %d smaller than descendant", z)
			}
			prev = len(ms)
		}
	}
}

// Property: for random zone trees, every invariant of the membership
// model holds: each member's chain is strictly nested, Members(root)
// covers everyone, and CommonZone is an ancestor of both arguments'
// leaf zones.
func TestPropertyRandomHierarchies(t *testing.T) {
	f := func(seed uint64, zRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		zones := int(zRaw%10) + 1
		nodes := int(nRaw%40) + 1
		specs := []topology.ZoneSpec{{ID: 0, Parent: -1}}
		for z := 1; z < zones; z++ {
			specs = append(specs, topology.ZoneSpec{ID: z, Parent: rng.IntN(z)})
		}
		for n := 0; n < nodes; n++ {
			z := rng.IntN(zones)
			specs[z].Leaves = append(specs[z].Leaves, topology.NodeID(n))
		}
		h, err := Build(specs)
		if err != nil {
			return false
		}
		if len(h.Members(h.Root())) != nodes {
			return false
		}
		for n := 0; n < nodes; n++ {
			chain := h.ZonesOf(topology.NodeID(n))
			if len(chain) == 0 || chain[len(chain)-1] != h.Root() {
				return false
			}
			for i := 1; i < len(chain); i++ {
				if h.Parent(chain[i-1]) != chain[i] {
					return false
				}
			}
		}
		if nodes >= 2 {
			a, b := topology.NodeID(0), topology.NodeID(1)
			cz := h.CommonZone(a, b)
			if cz == NoZone || !h.Contains(cz, a) || !h.Contains(cz, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tables Build precomputes (dense leaf-zone index, shared
// zone chains, sorted member sets) answer every query exactly as the
// naive definitions do — a spec lookup and a parent walk — for members,
// for non-members inside the index range, and for node IDs outside it.
func TestPropertyPrecomputedTablesMatchParentWalk(t *testing.T) {
	f := func(seed uint64, zRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		zones := int(zRaw%12) + 1
		specs := []topology.ZoneSpec{{ID: 0, Parent: -1}}
		for z := 1; z < zones; z++ {
			specs = append(specs, topology.ZoneSpec{ID: z, Parent: rng.IntN(z)})
		}
		leafOf := map[topology.NodeID]ZoneID{}
		maxID := topology.NodeID(-1)
		for n := topology.NodeID(0); n < topology.NodeID(nRaw%48); n++ {
			if rng.IntN(3) == 0 {
				continue // a router: inside the index range, not a member
			}
			z := rng.IntN(zones)
			specs[z].Leaves = append(specs[z].Leaves, n)
			leafOf[n], maxID = ZoneID(z), n
		}
		h, err := Build(specs)
		if err != nil {
			return false
		}
		walk := func(n topology.NodeID) []ZoneID {
			z, ok := leafOf[n]
			if !ok {
				return nil
			}
			var chain []ZoneID
			for ; z != NoZone; z = h.Parent(z) {
				chain = append(chain, z)
			}
			return chain
		}
		contains := func(chain []ZoneID, z ZoneID) bool {
			for _, c := range chain {
				if c == z {
					return true
				}
			}
			return false
		}
		members := make([][]topology.NodeID, zones)
		for a := topology.NodeID(-2); a <= maxID+3; a++ {
			wa := walk(a)
			if z, ok := leafOf[a]; (ok && h.LeafZone(a) != z) || (!ok && h.LeafZone(a) != NoZone) {
				return false
			}
			if got := h.ZonesOf(a); len(got) != len(wa) || (wa == nil) != (got == nil) {
				return false
			} else {
				for i := range wa {
					if got[i] != wa[i] {
						return false
					}
				}
			}
			for z := ZoneID(0); int(z) < zones; z++ {
				if h.Contains(z, a) != contains(wa, z) {
					return false
				}
				if contains(wa, z) {
					members[z] = append(members[z], a) // ascending a: sorted
				}
			}
			for b := topology.NodeID(-2); b <= maxID+3; b++ {
				want, wb := NoZone, walk(b)
				for _, z := range wa {
					if contains(wb, z) {
						want = z
						break
					}
				}
				if h.CommonZone(a, b) != want {
					return false
				}
			}
		}
		for z := range members {
			got := h.Members(ZoneID(z))
			if len(got) != len(members[z]) {
				return false
			}
			for i := range got {
				if got[i] != members[z][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllocationsDoNotGrowWithZones: Build carves every zone's
// leaves, children and members from backings sized once, so a national
// hierarchy of 1,111 zones costs the same allocations as one of 15, give
// or take the few the zone-ID index and the input sizes add.
func TestBuildAllocationsDoNotGrowWithZones(t *testing.T) {
	allocs := func(fan, subs int) float64 {
		specs := topology.National(topology.NationalParams{Regions: fan, Cities: fan, Suburbs: fan, SubscribersPerSuburb: subs}, 10e6, 0.01, 0).Zones
		return testing.AllocsPerRun(5, func() { MustBuild(specs) })
	}
	small, large := allocs(2, 2), allocs(10, 10)
	if large > small+8 {
		t.Fatalf("Build: %v allocs on 15 zones, %v on 1,111; want within 8", small, large)
	}
}

// TestCarvedSlicesStayIsolated: a zone's Children, Members and Leaves
// are capped shares of one backing each, so appending to one of them
// reallocates it and leaves every other zone's slice as it was; a zone
// with none of them keeps a nil slice.
func TestCarvedSlicesStayIsolated(t *testing.T) {
	h, err := Build([]topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1, 2}},
		{ID: 2, Parent: 0},
		{ID: 3, Parent: 1, Leaves: []topology.NodeID{3, 4}},
		{ID: 4, Parent: 1, Leaves: []topology.NodeID{5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Leaves(2) != nil || h.Members(2) != nil || h.Children(2) != nil || h.Children(3) != nil {
		t.Fatalf("empty zone 2 / leaf zone 3: leaves %#v, members %#v, children %#v and %#v; want nil",
			h.Leaves(2), h.Members(2), h.Children(2), h.Children(3))
	}
	type view struct {
		leaves, members []topology.NodeID
		children        []ZoneID
	}
	snap := func() []view {
		var v []view
		for z := ZoneID(0); int(z) < h.NumZones(); z++ {
			v = append(v, view{slices.Clone(h.Leaves(z)), slices.Clone(h.Members(z)), slices.Clone(h.Children(z))})
		}
		return v
	}
	want := snap()
	for z := ZoneID(0); int(z) < h.NumZones(); z++ {
		_ = append(h.Leaves(z), 99)
		_ = append(h.Members(z), 99)
		_ = append(h.Children(z), 99)
	}
	if got := snap(); !reflect.DeepEqual(got, want) {
		t.Fatalf("appending to one zone's slices changed the hierarchy:\n got %v\nwant %v", got, want)
	}
}
