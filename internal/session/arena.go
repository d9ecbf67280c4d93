package session

import (
	"sync"

	"sharqfec/internal/packet"
)

// Session messages and their entries are carved from blocks that are
// never reused: a slot handed out once is never handed out again, so a
// message still in flight — or held by a receiver — is never
// overwritten, and nothing needs to know when a delivery ends. The
// blocks' owner is an arena in a package-level pool, taken for one
// message at a time, so the members that run on one goroutine share its
// blocks and the unused tail is at most one block per P, not one per
// member.
const (
	arenaMsgs    = 256  // messages per block
	arenaEntries = 2048 // entries per block; a longer message gets a block of its own size
)

type arena struct {
	msgs    []packet.Session
	entries []packet.SessionEntry
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// carveSession returns a zero session message with n zero entries (nil
// when n is 0), cut from a pooled arena.
func carveSession(n int) *packet.Session {
	a := arenas.Get().(*arena)
	if len(a.msgs) == 0 {
		a.msgs = make([]packet.Session, arenaMsgs)
	}
	msg := &a.msgs[0]
	a.msgs = a.msgs[1:]
	if n > 0 {
		if n > len(a.entries) {
			a.entries = make([]packet.SessionEntry, max(n, arenaEntries))
		}
		msg.Entries, a.entries = a.entries[:n:n], a.entries[n:]
	}
	arenas.Put(a)
	return msg
}
