package core

// Tests for what the data path carves and what it recycles: a packet, its
// payload and its ancestor list are handed out once and never written
// again; only the agent's own share-slot arrays, burst cursors and ZLC
// samples are reused.

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// sendLog stands between one member and its network and records every
// packet the member multicasts, with the packet's wire bytes at the
// moment it left.
type sendLog struct {
	fabric.Network
	sent []sentPacket
}

type sentPacket struct {
	pkt  packet.Packet
	wire []byte
}

func (l *sendLog) Multicast(from topology.NodeID, z scoping.ZoneID, p packet.Packet) {
	wire, err := p.MarshalBinary()
	if err != nil {
		panic(err)
	}
	l.sent = append(l.sent, sentPacket{p, wire})
	l.Network.Multicast(from, z, p)
}

// loggedRun runs a full session over spec with every member's sends
// logged, and returns the logs.
func loggedRun(t *testing.T, spec *topology.Spec, cfg Config, seed uint64, until float64) []*sendLog {
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Error(err)
		return nil
	}
	var q eventq.Queue
	src := simrand.New(seed)
	n := netsim.New(&q, spec.Graph, h, src)
	cfg.Source = spec.Source
	var logs []*sendLog
	var agents []*Agent
	for _, m := range spec.Members() {
		l := &sendLog{Network: n}
		ag, err := New(m, l, cfg, src)
		if err != nil {
			t.Error(err)
			return nil
		}
		logs, agents = append(logs, l), append(agents, ag)
		if m == spec.Source {
			q.At(6, func(eventq.Time) { ag.StartSource() })
		}
	}
	q.At(1, func(eventq.Time) {
		for _, ag := range agents {
			ag.Join()
		}
	})
	q.RunUntil(eventq.Time(until))
	return logs
}

// span is the memory a packet's variable part occupies.
type span struct{ lo, hi uintptr }

func spanOf[T any](s []T) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(*new(T))}
}

// TestCarvedPacketsNeverAlias: every data packet, repair, NACK and session
// message a member sends is its own, and so are its payload, its
// ancestor list and its entries. Two runs on two goroutines, as the
// shards of one run would be, carve from the one packet arena at once.
// Once both are over, no two packets sent in either share memory, and
// each still reads the bytes it was sent with.
func TestCarvedPacketsNeverAlias(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := smallCfg()
	var runs [2][]*sendLog
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = loggedRun(t, spec, cfg, uint64(60+i), 40)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	seen := map[packet.Packet]bool{}
	var spans []span
	var data, repairs, nacks, ancestors, burstRuns int
	for _, logs := range runs {
		for _, l := range logs {
			var prev *packet.Repair
			for _, s := range l.sent {
				switch s.pkt.(type) {
				case *packet.Data, *packet.Repair, *packet.NACK, *packet.Session:
					// Carved: one packet per send. (A ZCR takeover is
					// one message sent to two zones.)
					if seen[s.pkt] {
						t.Fatalf("a %v packet was sent twice", s.pkt.Kind())
					}
					seen[s.pkt] = true
				}
				if wire, _ := s.pkt.MarshalBinary(); !bytes.Equal(wire, s.wire) {
					t.Fatalf("a %v packet changed after it was sent", s.pkt.Kind())
				}
				switch p := s.pkt.(type) {
				case *packet.Data:
					data++
					spans = append(spans, spanOf(p.Payload))
				case *packet.Repair:
					repairs++
					spans = append(spans, spanOf(p.Payload))
					if prev != nil && prev.Group == p.Group && prev.Index+1 == p.Index {
						burstRuns++ // consecutive shares of one burst
					}
					prev = p
				case *packet.NACK:
					nacks++
					if len(p.Ancestors) > 0 {
						ancestors++
						spans = append(spans, spanOf(p.Ancestors))
					}
				case *packet.Session:
					if len(p.Entries) > 0 {
						spans = append(spans, spanOf(p.Entries))
					}
				}
			}
		}
	}
	if data == 0 || burstRuns == 0 || ancestors < 2 {
		t.Fatalf("set-up: %d data packets, %d repairs (%d consecutive in a burst), %d NACKs (%d with ancestors)",
			data, repairs, burstRuns, nacks, ancestors)
	}
	slices.SortFunc(spans, func(a, b span) int { return int(int64(a.lo - b.lo)) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two sent packets share memory: [%#x, %#x) and [%#x, %#x)",
				spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	t.Logf("%d packets: %d data, %d repairs, %d NACKs (%d with ancestors); %d spans disjoint",
		len(seen), data, repairs, nacks, ancestors, len(spans))
}

// TestRetiredSlotsAreReused: an ordinary receiver hands a group's slot
// array back when it retires the group's kept shares, and the next group
// it opens takes that array, every slot nil. A member with ZCR duty keeps
// its shares, and never hands one back.
func TestRetiredSlotsAreReused(t *testing.T) {
	for _, zcr := range []bool{false, true} {
		w := quietWorld(t, topology.ScopedChain(4, 0), smallCfg(), 99)
		a := w.agents[2]
		a.joined = true
		if zcr {
			a.sess.SeedZCR(a.chain[0], a.node)
		}
		if a.anyZCRDuty() != zcr {
			t.Fatalf("set-up: ZCR duty %v, want %v", a.anyZCRDuty(), zcr)
		}
		f := &shareFeed{t: t, a: a, gid: 0, data: newShareFeed(t, 99, 0).data}
		f.deliver(f.a.cfg.GroupK + 2) // a repair, so a slot past k is used too
		for idx := 1; idx < a.cfg.GroupK; idx++ {
			f.deliver(idx)
		}
		f.wantComplete()
		slots := unsafe.SliceData(a.group(0).kept)
		w.net.Q.RunUntil(w.net.Q.Now() + eventq.Time(retainData) + 1)
		if retired := a.group(0).kept == nil; retired == zcr {
			t.Fatalf("ZCR duty %v: kept shares retired %v", zcr, retired)
		}

		f = &shareFeed{t: t, a: a, gid: 1, data: f.data}
		f.deliver(0)
		g := a.group(1)
		if reused := unsafe.SliceData(g.shares) == slots; reused == zcr {
			t.Fatalf("ZCR duty %v: the next group took the retired slot array %v", zcr, reused)
		}
		if len(g.shares) != a.cfg.GroupK || cap(g.shares) != 2*a.cfg.GroupK {
			t.Fatalf("slot array of %d slots, capacity %d; want %d and %d", len(g.shares), cap(g.shares), a.cfg.GroupK, 2*a.cfg.GroupK)
		}
		for i, p := range g.shares[:cap(g.shares)] {
			if (p != nil) != (i == 0) {
				t.Fatalf("ZCR duty %v: slot %d of the next group's array holds %d bytes", zcr, i, len(p))
			}
		}
	}
}
