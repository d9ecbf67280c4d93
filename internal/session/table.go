package session

import (
	"slices"

	"sharqfec/internal/topology"
)

// table is the session layer's one peer-keyed container: rows held by
// value in NodeID order in a single pointer-free slice the collector
// never scans. Lookup is a binary search, iteration is ascending NodeID
// (so everything derived from a table — session-message entries included
// — is the same on every run), and only the first sighting of a peer
// moves or, past the capacity the table was made with, allocates
// anything.
type table[V any] []row[V]

type row[V any] struct {
	id  topology.NodeID
	val V
}

// find returns id's index, or the index it would be inserted at.
func (t table[V]) find(id topology.NodeID) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t) && t[lo].id == id
}

// get returns id's value, or nil when absent. The pointer is valid until
// the next put.
func (t table[V]) get(id topology.NodeID) *V {
	if i, ok := t.find(id); ok {
		return &t[i].val
	}
	return nil
}

// put returns id's value, inserting a zero one (fresh = true) when absent.
func (t *table[V]) put(id topology.NodeID) (v *V, fresh bool) {
	i, ok := t.find(id)
	if !ok {
		*t = slices.Insert(*t, i, row[V]{id: id})
	}
	return &(*t)[i].val, !ok
}
