// Package scoping models a hierarchy of administratively scoped multicast
// zones (SHARQFEC §3.2). Zones form a tree rooted at the global zone Z0.
// Each session member has a *smallest* (leaf) zone and is implicitly a
// member of every ancestor zone up to the root, so a packet multicast
// "with the scope of" zone Z reaches exactly the members whose leaf-zone
// chain includes Z.
package scoping

import (
	"fmt"

	"sharqfec/internal/topology"
)

// ZoneID identifies a zone within a Hierarchy.
type ZoneID int

// NoZone is returned by lookups that find no zone.
const NoZone = ZoneID(-1)

type zone struct {
	id       ZoneID
	parent   ZoneID
	children []ZoneID
	level    int // 0 = root
	leaves   []topology.NodeID
	members  []topology.NodeID // leaves of this zone and all descendants
	chain    []ZoneID          // this zone and its ancestors, root last
}

// Hierarchy is an immutable zone tree built from a topology zone spec.
type Hierarchy struct {
	zones    []zone
	root     ZoneID
	leafZone []ZoneID // indexed by NodeID; NoZone for non-members
}

// Build constructs a Hierarchy from builder zone specs. Exactly one spec
// must have Parent == -1 (the global zone). Every node may appear in at
// most one spec's Leaves, and leaf IDs must be non-negative.
func Build(specs []topology.ZoneSpec) (*Hierarchy, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("scoping: no zones")
	}
	h := &Hierarchy{
		zones: make([]zone, len(specs)),
		root:  NoZone,
	}
	index := make(map[int]ZoneID, len(specs))
	for i, s := range specs {
		if _, dup := index[s.ID]; dup {
			return nil, fmt.Errorf("scoping: duplicate zone id %d", s.ID)
		}
		index[s.ID] = ZoneID(i)
	}
	// Leaves and child lists are capped shares of one backing each, so
	// Build's allocations do not grow with the zone count, and appending
	// to one zone's slice never writes into a neighbour's. A zone with
	// none keeps a nil slice.
	nLeaves := 0
	for _, s := range specs {
		nLeaves += len(s.Leaves)
	}
	leaves := make([]topology.NodeID, nLeaves)
	nChildren := make([]int, len(specs))
	for i, s := range specs {
		z := &h.zones[i]
		z.id = ZoneID(i)
		if n := len(s.Leaves); n > 0 {
			z.leaves, leaves = leaves[:n:n], leaves[n:]
			copy(z.leaves, s.Leaves)
		}
		if s.Parent == -1 {
			if h.root != NoZone {
				return nil, fmt.Errorf("scoping: multiple root zones")
			}
			h.root = ZoneID(i)
			z.parent = NoZone
			continue
		}
		p, ok := index[s.Parent]
		if !ok {
			return nil, fmt.Errorf("scoping: zone %d has unknown parent %d", s.ID, s.Parent)
		}
		z.parent = p
		nChildren[p]++
	}
	if h.root == NoZone {
		return nil, fmt.Errorf("scoping: no root zone")
	}
	children := make([]ZoneID, len(specs)-1)
	for i := range h.zones {
		if c := nChildren[i]; c > 0 {
			h.zones[i].children, children = children[:0:c], children[c:]
		}
	}
	for i := range h.zones {
		if p := h.zones[i].parent; p != NoZone {
			h.zones[p].children = append(h.zones[p].children, ZoneID(i))
		}
	}
	// Levels + cycle detection via BFS from root.
	seen := make([]bool, len(h.zones))
	queue := append(make([]ZoneID, 0, len(h.zones)), h.root)
	seen[h.root] = true
	for len(queue) > 0 {
		z := queue[0]
		queue = queue[1:]
		for _, c := range h.zones[z].children {
			if seen[c] {
				return nil, fmt.Errorf("scoping: cycle at zone %d", c)
			}
			seen[c] = true
			h.zones[c].level = h.zones[z].level + 1
			queue = append(queue, c)
		}
	}
	for i, s := range seen {
		if !s {
			return nil, fmt.Errorf("scoping: zone %d unreachable from root", i)
		}
	}
	// Zone chains, carved from one backing array.
	total := 0
	for i := range h.zones {
		total += h.zones[i].level + 1
	}
	backing := make([]ZoneID, 0, total)
	for i := range h.zones {
		start := len(backing)
		for cur := ZoneID(i); cur != NoZone; cur = h.zones[cur].parent {
			backing = append(backing, cur)
		}
		h.zones[i].chain = backing[start:len(backing):len(backing)]
	}
	// Leaf-zone table and member sets.
	maxNode := topology.NodeID(-1)
	for i := range h.zones {
		for _, n := range h.zones[i].leaves {
			if n < 0 {
				return nil, fmt.Errorf("scoping: negative node id %d", n)
			}
			if n > maxNode {
				maxNode = n
			}
		}
	}
	h.leafZone = make([]ZoneID, maxNode+1)
	for n := range h.leafZone {
		h.leafZone[n] = NoZone
	}
	for i := range h.zones {
		for _, n := range h.zones[i].leaves {
			if h.leafZone[n] != NoZone {
				return nil, fmt.Errorf("scoping: node %d has two leaf zones", n)
			}
			h.leafZone[n] = ZoneID(i)
		}
	}
	// A zone's members are the leaves of every zone whose chain holds
	// it; ascending node order leaves every member set sorted.
	nMembers := make([]int, len(h.zones))
	total = 0
	for i := range h.zones {
		for _, cur := range h.zones[i].chain {
			nMembers[cur] += len(h.zones[i].leaves)
		}
		total += len(h.zones[i].leaves) * len(h.zones[i].chain)
	}
	members := make([]topology.NodeID, total)
	for i := range h.zones {
		if c := nMembers[i]; c > 0 {
			h.zones[i].members, members = members[:0:c], members[c:]
		}
	}
	for n, z := range h.leafZone {
		if z == NoZone {
			continue
		}
		for _, cur := range h.zones[z].chain {
			h.zones[cur].members = append(h.zones[cur].members, topology.NodeID(n))
		}
	}
	return h, nil
}

// MustBuild is Build but panics on error; for builders whose specs are
// constructed programmatically and cannot be invalid.
func MustBuild(specs []topology.ZoneSpec) *Hierarchy {
	h, err := Build(specs)
	if err != nil {
		panic(err)
	}
	return h
}

// Specs reconstructs the builder zone specs this hierarchy was built
// from, in zone-ID order, so a modified copy can be rebuilt with
// identical ZoneID numbering.
func (h *Hierarchy) Specs() []topology.ZoneSpec {
	specs := make([]topology.ZoneSpec, len(h.zones))
	for i := range h.zones {
		parent := -1
		if h.zones[i].parent != NoZone {
			parent = int(h.zones[i].parent)
		}
		specs[i] = topology.ZoneSpec{
			ID:     i,
			Parent: parent,
			Leaves: append([]topology.NodeID(nil), h.zones[i].leaves...),
		}
	}
	return specs
}

// WithoutMember returns a new hierarchy with node n removed from the
// session (its leaf zone keeps its place in the tree, so ZoneIDs are
// unchanged). It is the membership-change seam the fault engine uses for
// mid-session leaves; pair it with netsim.Network.SetHierarchy so cached
// delivery sets are invalidated.
func (h *Hierarchy) WithoutMember(n topology.NodeID) (*Hierarchy, error) {
	z := h.LeafZone(n)
	if z == NoZone {
		return nil, fmt.Errorf("scoping: node %d is not a session member", n)
	}
	specs := h.Specs()
	leaves := specs[z].Leaves[:0]
	for _, l := range specs[z].Leaves {
		if l != n {
			leaves = append(leaves, l)
		}
	}
	specs[z].Leaves = leaves
	return Build(specs)
}

// Root returns the global zone.
func (h *Hierarchy) Root() ZoneID { return h.root }

// NumZones returns the number of zones.
func (h *Hierarchy) NumZones() int { return len(h.zones) }

// Parent returns z's parent zone, or NoZone for the root.
func (h *Hierarchy) Parent(z ZoneID) ZoneID { return h.zones[z].parent }

// Children returns z's child zones.
func (h *Hierarchy) Children(z ZoneID) []ZoneID { return h.zones[z].children }

// Level returns z's depth (root = 0).
func (h *Hierarchy) Level(z ZoneID) int { return h.zones[z].level }

// LeafZone returns the smallest zone containing node n, or NoZone if n is
// not a session member.
func (h *Hierarchy) LeafZone(n topology.NodeID) ZoneID {
	if n < 0 || int(n) >= len(h.leafZone) {
		return NoZone
	}
	return h.leafZone[n]
}

// ZonesOf returns the chain of zones containing n, smallest first and the
// root last. It returns nil for non-members. The returned slice is
// shared; do not modify it.
func (h *Hierarchy) ZonesOf(n topology.NodeID) []ZoneID {
	z := h.LeafZone(n)
	if z == NoZone {
		return nil
	}
	return h.zones[z].chain
}

// Members returns every session member of zone z (nodes whose leaf-zone
// chain includes z), sorted by node ID. The returned slice is shared; do
// not modify it.
func (h *Hierarchy) Members(z ZoneID) []topology.NodeID { return h.zones[z].members }

// Leaves returns the nodes whose smallest zone is z. The returned slice
// is shared; do not modify it.
func (h *Hierarchy) Leaves(z ZoneID) []topology.NodeID { return h.zones[z].leaves }

// Contains reports whether node n is a member of zone z.
func (h *Hierarchy) Contains(z ZoneID, n topology.NodeID) bool {
	for _, c := range h.ZonesOf(n) {
		if c == z {
			return true
		}
	}
	return false
}

// IsAncestor reports whether a is an ancestor of (or equal to) b.
func (h *Hierarchy) IsAncestor(a, b ZoneID) bool {
	for cur := b; cur != NoZone; cur = h.zones[cur].parent {
		if cur == a {
			return true
		}
	}
	return false
}

// Escalate returns the next-largest zone above z, or z itself if z is
// already the root. Receivers use it to widen NACK scope (§4, repair
// phase rules).
func (h *Hierarchy) Escalate(z ZoneID) ZoneID {
	if p := h.zones[z].parent; p != NoZone {
		return p
	}
	return z
}

// CommonZone returns the smallest zone containing both a and b, or NoZone
// if either is not a member.
func (h *Hierarchy) CommonZone(a, b topology.NodeID) ZoneID {
	za, zb := h.ZonesOf(a), h.ZonesOf(b)
	// Both chains end at the root, so a shared zone sits at the same
	// distance from the end of each: drop the deeper chain's extra head
	// and walk the two in step.
	if d := len(za) - len(zb); d > 0 {
		za = za[d:]
	} else {
		zb = zb[-d:]
	}
	for i, z := range za {
		if zb[i] == z {
			return z
		}
	}
	return NoZone
}
