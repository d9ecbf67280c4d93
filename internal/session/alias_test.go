package session

import (
	"slices"
	"testing"
	"unsafe"

	"sharqfec/internal/packet"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// TestSessionMessagesNeverAlias: a message handed to the network is never
// written again. Two messages to one zone, with the zone's heard table
// and the direct RTTs changed between them, have disjoint entries, and
// the first still reads what it was sent with.
func TestSessionMessagesNeverAlias(t *testing.T) {
	net := &stubNet{h: modelZones()}
	net.q.RunUntil(10)
	m := New(3, net, DefaultConfig(), simrand.New(7).StreamN("session", 3))
	leaf := &m.zones[0]
	hear := func(echo float64) {
		now := net.q.Now()
		m.HandleSession(now, &packet.Session{
			Origin: 4, Zone: int16(leaf.id), SentAt: now.Seconds(), ZCR: topology.NoNode,
			Entries: []packet.SessionEntry{{Peer: m.node, Echo: now.Seconds() - echo}},
		})
	}
	send := func() *packet.Session {
		m.sendSessionFor(net.q.Now(), leaf)
		return net.sent[len(net.sent)-1].Pkt.(*packet.Session)
	}

	hear(0.04)
	first := send()
	sent := slices.Clone(first.Entries)
	if len(sent) != 1 || sent[0].Peer != 4 || sent[0].RTT == 0 {
		t.Fatalf("set-up: first message's entries %+v", sent)
	}
	net.q.RunUntil(11)
	hear(0.08) // a new arrival and SentAt for peer 4, and a new RTT sample
	second := send()
	if second.Entries[0] == sent[0] {
		t.Fatalf("set-up: the second message's entry %+v did not change", second.Entries[0])
	}
	if !slices.Equal(first.Entries, sent) {
		t.Errorf("the first message's entries changed after it was sent: %+v, sent %+v", first.Entries, sent)
	}
	span := func(e []packet.SessionEntry) (lo, hi uintptr) {
		lo = uintptr(unsafe.Pointer(unsafe.SliceData(e)))
		return lo, lo + uintptr(cap(e))*unsafe.Sizeof(e[0])
	}
	lo1, hi1 := span(first.Entries)
	lo2, hi2 := span(second.Entries)
	if first == second || (lo1 < hi2 && lo2 < hi1) {
		t.Error("the two messages share memory")
	}
}
