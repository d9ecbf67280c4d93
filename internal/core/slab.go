package core

// Per-agent memory for group state. Two kinds live here.
//
// The slab: a struct-of-arrays backing store for per-group receiver
// state. Every group used to carry three separate []bool slices (seen /
// counted / lossed), i.e. three heap objects plus headers per group — at
// 10⁵–10⁶ agents times hundreds of groups that is the dominant
// allocation count of a large run. The slab packs all three as bit lanes
// in one contiguous []uint64 arena per agent: one append-only allocation
// site, 3·⌈k/64⌉ words per group (a single word for the usual k=16), and
// an exact byte figure for the census memory-footprint gauge. References
// are word offsets, not sub-slices, so arena growth (which reallocates
// the backing array) never invalidates them. Lanes are
// write-once-grow-only bookkeeping; nothing is ever freed — group
// lifetime is the run, matching the previous slices' behavior exactly.
//
// The free lists: objects private to the agent that it hands back once
// it is done with them — share-slot arrays, cut from blocks and returned
// when an ordinary receiver retires a group, and the burst cursors and
// ZLC samples its timers run (repair.go). Nothing that leaves the agent
// is pooled: packets, payloads and ancestor lists are each handed out
// once (packet.Carve*, and one payload buffer per repair burst).
// footprintBytes counts an open group's slot array at its capacity, 2k;
// like a retired group's array before it was reused, the arrays on the
// free list and a block's uncut tail are not counted.

import "unsafe"

// Bit lanes of one group's allocation, in arena order.
const (
	laneSeen    = iota // original data index arrived as a data packet
	laneCounted        // index counted into the LLC as lost
	laneLossed         // index ever emitted a loss_detected event
	numLanes
)

// groupSlab is one agent's arena. The zero value is ready to use; k is
// fixed at first alloc (GroupK is constant per run).
type groupSlab struct {
	words []uint64
	wpl   int32 // words per lane, ⌈k/64⌉
}

// alloc reserves the lanes for one k-share group and returns the base
// word offset. All bits start clear, like freshly made []bool slices.
func (s *groupSlab) alloc(k int) int32 {
	if s.wpl == 0 {
		s.wpl = int32((k + 63) / 64)
	}
	base := int32(len(s.words))
	for i := int32(0); i < s.wpl*numLanes; i++ {
		s.words = append(s.words, 0)
	}
	return base
}

// get reads bit i of the given lane of the group at base.
func (s *groupSlab) get(base int32, lane, i int) bool {
	w := base + int32(lane)*s.wpl + int32(i>>6)
	return s.words[w]&(1<<uint(i&63)) != 0
}

// set sets bit i of the given lane of the group at base.
func (s *groupSlab) set(base int32, lane, i int) {
	w := base + int32(lane)*s.wpl + int32(i>>6)
	s.words[w] |= 1 << uint(i&63)
}

// clear clears bit i of the given lane of the group at base.
func (s *groupSlab) clear(base int32, lane, i int) {
	w := base + int32(lane)*s.wpl + int32(i>>6)
	s.words[w] &^= 1 << uint(i&63)
}

// bytes is the arena's retained footprint (capacity, not length: the
// slack is held memory too).
func (s *groupSlab) bytes() int { return cap(s.words) * 8 }

// footprintBytes estimates the agent's total resident protocol memory:
// the bitset arena, the group table, every block of group and per-level
// records carved so far (opened or not — capacity, like the arena), the
// share store's and the kept shares' slices (capacity too) and the
// payload bytes they hold, the decode area once a completion has made
// it, and the source's transmit store. Purely observational — reading
// it mutates nothing.
func (a *Agent) footprintBytes() int {
	const header = int(unsafe.Sizeof([]byte(nil)))
	b := a.slab.bytes()
	b += cap(a.groups) * int(unsafe.Sizeof(a.groups[0]))
	b += a.carved * (int(unsafe.Sizeof(group{})) + len(a.chain)*int(unsafe.Sizeof(level{})))
	for _, g := range a.groups {
		if g == nil {
			continue
		}
		b += (cap(g.shares) + cap(g.kept)) * header
		for _, p := range g.shares {
			b += len(p)
		}
		for _, p := range g.kept {
			b += len(p)
		}
	}
	if d := a.decoded; d != nil {
		b += cap(d.buf) + cap(d.held)*header
	}
	for _, d := range a.sendData {
		b += int(unsafe.Sizeof(d)) // the pre-sized slot, sent or not
		for _, p := range d {
			b += len(p)
		}
	}
	return b
}

// freeLists is what an agent reuses of its own data-path objects. It is
// made on first need, so a session-only member pays nothing for it.
type freeLists struct {
	slotBlock [][]byte   // unused tail of the newest share-slot block
	slots     [][][]byte // slot arrays retired groups gave back, all entries nil
	bursts    []*burst
	samples   []*zlcSample
}

// freeList returns the agent's free lists, making them on first use.
func (a *Agent) freeList() *freeLists {
	if a.free == nil {
		a.free = new(freeLists)
	}
	return a.free
}

// slotArray returns an empty share store for a group: k slots, every one
// nil, with room for k repairs — their indices are handed out
// consecutively from k, so only a group that has been sent more repairs
// than it has data shares outgrows it. A retired group's array is taken
// first; otherwise the array is cut from a block of groupBlock groups'
// worth (capacity-clipped, so an append past it never reaches the next).
func (a *Agent) slotArray() [][]byte {
	f, k := a.freeList(), a.cfg.GroupK
	if n := len(f.slots); n > 0 {
		s := f.slots[n-1]
		f.slots = f.slots[:n-1]
		return s
	}
	if len(f.slotBlock) < 2*k {
		f.slotBlock = make([][]byte, min(groupBlock, a.cfg.NumGroups())*2*k)
	}
	s := f.slotBlock[: k : 2*k]
	f.slotBlock = f.slotBlock[2*k:]
	return s
}

// releaseSlots takes back a retired group's slot array: it drops every
// payload reference it holds, up to its capacity, and keeps the array
// for the next group to open.
func (a *Agent) releaseSlots(s [][]byte) {
	k := a.cfg.GroupK
	clear(s[:cap(s)])
	f := a.freeList()
	f.slots = append(f.slots, s[:k:2*k])
}
