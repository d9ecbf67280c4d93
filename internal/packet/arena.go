package packet

import "sync"

// Packets and their lists are carved from blocks that are never reused:
// a slot handed out once is never handed out again, so a packet still in
// flight — or held by a receiver, as a NACK heard last or a share kept —
// is never overwritten, and nothing needs to know when a delivery ends.
// The blocks' owner is an arena in a package-level pool, taken for one
// carve at a time, so the senders that run on one goroutine share its
// blocks, whatever layer they are in, and the unused tail is at most one
// block per type per P, not one per sender.
const (
	arenaPackets = 256  // packets of one type per block
	arenaEntries = 2048 // list entries per block; a longer list gets a block of its own size
)

type arena struct {
	data      []Data
	repairs   []Repair
	nacks     []NACK
	sessions  []Session
	entries   []SessionEntry
	ancestors []AncestorRTT
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// cut hands out the next n elements of *free, capacity n, first making a
// block of max(n, block) elements when fewer than n are left.
func cut[T any](free *[]T, n, block int) []T {
	if n > len(*free) {
		*free = make([]T, max(n, block))
	}
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}

// CarveData returns a zero data packet cut from a pooled arena.
func CarveData() *Data {
	a := arenas.Get().(*arena)
	p := &cut(&a.data, 1, arenaPackets)[0]
	arenas.Put(a)
	return p
}

// CarveRepair returns a zero repair packet cut from a pooled arena.
func CarveRepair() *Repair {
	a := arenas.Get().(*arena)
	p := &cut(&a.repairs, 1, arenaPackets)[0]
	arenas.Put(a)
	return p
}

// CarveNACK returns a zero NACK cut from a pooled arena.
func CarveNACK() *NACK {
	a := arenas.Get().(*arena)
	p := &cut(&a.nacks, 1, arenaPackets)[0]
	arenas.Put(a)
	return p
}

// CarveAncestors returns n zero ancestor entries (nil when n is 0), with
// capacity n, cut from a pooled arena.
func CarveAncestors(n int) []AncestorRTT {
	if n == 0 {
		return nil
	}
	a := arenas.Get().(*arena)
	s := cut(&a.ancestors, n, arenaEntries)
	arenas.Put(a)
	return s
}

// CarveSession returns a zero session message with n zero entries (nil
// when n is 0), with capacity n, cut from a pooled arena.
func CarveSession(n int) *Session {
	a := arenas.Get().(*arena)
	msg := &cut(&a.sessions, 1, arenaPackets)[0]
	if n > 0 {
		msg.Entries = cut(&a.entries, n, arenaEntries)
	}
	arenas.Put(a)
	return msg
}
