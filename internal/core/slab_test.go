package core

import (
	"testing"
	"unsafe"

	"sharqfec/internal/eventq"
	"sharqfec/internal/scoping"
)

// TestGroupSlabLanes exercises the bitset arena directly: lane
// isolation, clear semantics, growth across many groups (the arena
// reallocates; offsets must survive), and the footprint figure.
func TestGroupSlabLanes(t *testing.T) {
	var s groupSlab
	const k = 16
	refs := make([]int32, 100)
	for i := range refs {
		refs[i] = s.alloc(k)
	}
	// Set a distinct pattern per group and lane, then verify nothing
	// bled across lane or group boundaries.
	for gi, base := range refs {
		s.set(base, laneSeen, gi%k)
		s.set(base, laneCounted, (gi+1)%k)
		s.set(base, laneLossed, (gi+2)%k)
	}
	for gi, base := range refs {
		for i := 0; i < k; i++ {
			if got := s.get(base, laneSeen, i); got != (i == gi%k) {
				t.Fatalf("group %d seen[%d] = %v", gi, i, got)
			}
			if got := s.get(base, laneCounted, i); got != (i == (gi+1)%k) {
				t.Fatalf("group %d counted[%d] = %v", gi, i, got)
			}
			if got := s.get(base, laneLossed, i); got != (i == (gi+2)%k) {
				t.Fatalf("group %d lossed[%d] = %v", gi, i, got)
			}
		}
	}
	s.clear(refs[7], laneCounted, 8)
	if s.get(refs[7], laneCounted, 8) {
		t.Fatal("clear did not clear")
	}
	if s.get(refs[7], laneSeen, 7) != true {
		t.Fatal("clear disturbed another lane")
	}
	if s.bytes() < 100*numLanes*8 {
		t.Fatalf("footprint %d bytes below the %d words allocated", s.bytes(), 100*numLanes)
	}
}

// TestGroupSlabWideK covers k > 64: multiple words per lane.
func TestGroupSlabWideK(t *testing.T) {
	var s groupSlab
	base := s.alloc(130)
	for _, i := range []int{0, 63, 64, 129} {
		s.set(base, laneLossed, i)
	}
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 63 || i == 64 || i == 129
		if got := s.get(base, laneLossed, i); got != want {
			t.Fatalf("wide lossed[%d] = %v, want %v", i, got, want)
		}
		if s.get(base, laneSeen, i) || s.get(base, laneCounted, i) {
			t.Fatalf("wide k bled into another lane at %d", i)
		}
	}
}

// TestFootprintBytesGrows pins that the census memory figure moves with
// protocol state: an agent that has tracked groups reports strictly
// more than a fresh one.
func TestFootprintBytesGrows(t *testing.T) {
	a := &Agent{cfg: Config{GroupK: 16, NumPackets: 64}, chain: []scoping.ZoneID{0}}
	empty := a.footprintBytes()
	g := a.ensureGroup(0)
	g.shares = make([][]byte, 16, 32)
	g.shares[3] = make([]byte, 512)
	grown := a.footprintBytes()
	if grown <= empty+512+32*24 {
		t.Fatalf("footprint %d after a group with a 512B share in 32 slots; empty was %d", grown, empty)
	}
	g.shares = nil
	if freed := a.footprintBytes(); freed != grown-512-32*24 {
		t.Fatalf("footprint %d after releasing the store, want %d", freed, grown-512-32*24)
	}
}

// TestFootprintCountsKeptSharesAndDecodeArea: across a completion the
// footprint grows by exactly the completing share's payload and the
// decode area the first completion makes (K payloads plus K slice
// headers). The store's slots stay counted as the kept shares' slots.
func TestFootprintCountsKeptSharesAndDecodeArea(t *testing.T) {
	f := newShareFeed(t, 91, 0)
	k := f.a.cfg.GroupK
	f.a.OnComplete = func(eventq.Time, uint32, [][]byte) {}
	for idx := 1; idx < k; idx++ {
		f.deliver(idx)
	}
	slots := cap(f.a.group(0).shares)
	before := f.a.footprintBytes()
	f.deliver(0)
	f.wantComplete()
	if got := cap(f.a.group(0).kept); got != slots {
		t.Fatalf("kept shares have %d slots, the store had %d", got, slots)
	}
	header := int(unsafe.Sizeof([]byte(nil)))
	if got, want := f.a.footprintBytes()-before, payloadSize+k*payloadSize+k*header; got != want {
		t.Fatalf("footprint grew %d bytes across the completion, want %d", got, want)
	}
}
