package core

// Tests for the share store and its one door, admit: what a datagram can
// and cannot put into a group, and what a group holds before and after
// it decodes.

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fec"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// shareFeed is one FEC group's worth of well-formed packets for a quiet
// receiver: the k originals and every repair the test asks for.
type shareFeed struct {
	t    *testing.T
	a    *Agent
	gid  uint32
	data [][]byte
}

// newShareFeed returns a joined receiver (node 2 of a quiet 3-chain) and
// group gid's payloads, drawn from seed.
func newShareFeed(t *testing.T, seed uint64, gid uint32) *shareFeed {
	t.Helper()
	w := quietWorld(t, topology.Chain(3, 10e6, 0.010, 0), smallCfg(), seed)
	a := w.agents[2]
	a.joined = true
	r := rand.New(rand.NewPCG(seed, 1998))
	data := make([][]byte, a.cfg.GroupK)
	for i := range data {
		data[i] = make([]byte, payloadSize)
		for j := range data[i] {
			data[i][j] = byte(r.IntN(256))
		}
	}
	return &shareFeed{t: t, a: a, gid: gid, data: data}
}

func (f *shareFeed) dataPkt(idx int) *packet.Data {
	k := f.a.cfg.GroupK
	return &packet.Data{
		Origin: 0, Seq: f.gid*uint32(k) + uint32(idx), Group: f.gid,
		Index: uint8(idx), GroupK: uint8(k), Payload: f.data[idx],
	}
}

func (f *shareFeed) repairPkt(idx int) *packet.Repair {
	f.t.Helper()
	share, err := f.a.codec.Repair(f.data, idx)
	if err != nil {
		f.t.Fatal(err)
	}
	return &packet.Repair{
		Origin: 0, Group: f.gid, Index: uint8(idx), GroupK: uint8(f.a.cfg.GroupK),
		NewMaxSeq: uint32(idx), Zone: int16(f.a.root), Payload: share.Data,
	}
}

// deliver hands share idx to the receiver: a data packet below k, a
// repair from k up.
func (f *shareFeed) deliver(idx int) {
	if idx < f.a.cfg.GroupK {
		f.a.handleData(1, f.dataPkt(idx))
	} else {
		f.a.handleRepair(1, f.repairPkt(idx))
	}
}

// wantComplete requires the group complete, with kept shares the codec
// decodes to the originals.
func (f *shareFeed) wantComplete() {
	f.t.Helper()
	g := f.a.group(f.gid)
	if g == nil || !g.complete {
		f.t.Fatalf("group %d did not complete", f.gid)
	}
	out := make([]byte, payloadSize)
	for i, d := range f.data {
		if err := f.a.codec.ShareFrom(out, g.kept, i); err != nil || !bytes.Equal(out, d) {
			f.t.Fatalf("group %d: decoded share %d differs from the source (%v)", f.gid, i, err)
		}
	}
}

// TestRepairIndexOutOfFieldDoesNotBlockGroup: a repair claiming index
// 255 has no generator row. Stored, it failed every later decode of the
// group, which then never completed even holding all k data shares.
func TestRepairIndexOutOfFieldDoesNotBlockGroup(t *testing.T) {
	f := newShareFeed(t, 80, 0)
	bad := f.repairPkt(254)
	bad.Index = fec.MaxShares
	f.a.handleRepair(1, bad)
	if g := f.a.group(0); g != nil && g.held != 0 {
		t.Fatalf("share 255 stored (held = %d)", g.held)
	}
	for idx := 0; idx < f.a.cfg.GroupK; idx++ {
		f.deliver(idx)
	}
	f.wantComplete()
	if f.a.Stats.BadShares != 1 || f.a.Stats.RepairsReceived != 0 {
		t.Fatalf("BadShares = %d, RepairsReceived = %d; want 1, 0", f.a.Stats.BadShares, f.a.Stats.RepairsReceived)
	}
}

// TestDataIndexBeyondGroupIsRefused: a data packet whose index is not
// below k used to index past the group's bitset lanes and panic — a
// remote crash, since packet.Unmarshal does not bound Index.
func TestDataIndexBeyondGroupIsRefused(t *testing.T) {
	f := newShareFeed(t, 81, 0)
	for _, idx := range []int{f.a.cfg.GroupK, 200, 255} {
		p := f.dataPkt(0)
		p.Index = uint8(idx)
		f.a.handleData(1, p)
	}
	if f.a.Stats.BadShares != 3 || f.a.Stats.DataReceived != 0 || len(f.a.groups) != 0 {
		t.Fatalf("BadShares = %d, DataReceived = %d, groups = %d; want 3, 0, 0",
			f.a.Stats.BadShares, f.a.Stats.DataReceived, len(f.a.groups))
	}
	for idx := 0; idx < f.a.cfg.GroupK; idx++ {
		f.deliver(idx)
	}
	f.wantComplete()
}

// TestWrongLengthRepairDoesNotBlockGroup: decoding reads the lowest
// repair indices held, so a short repair at index k was read by every
// attempt and the group stayed open after enough valid shares arrived.
func TestWrongLengthRepairDoesNotBlockGroup(t *testing.T) {
	f := newShareFeed(t, 82, 0)
	k := f.a.cfg.GroupK
	bad := f.repairPkt(k)
	bad.Payload = bad.Payload[:len(bad.Payload)-1]
	f.a.handleRepair(1, bad)
	for idx := 1; idx < k; idx++ {
		f.deliver(idx)
	}
	f.deliver(k + 1)
	f.wantComplete()
	if f.a.Stats.BadShares != 1 {
		t.Fatalf("BadShares = %d, want 1", f.a.Stats.BadShares)
	}
}

// TestAdmitRefusals covers the remaining ways a share can disagree with
// the session: each is counted, creates no group and stores nothing.
func TestAdmitRefusals(t *testing.T) {
	f := newShareFeed(t, 83, 3)
	k := f.a.cfg.GroupK
	cases := map[string]func(){
		"data for another group size": func() { p := f.dataPkt(3); p.GroupK++; f.a.handleData(1, p) },
		"repair for another group size": func() {
			p := f.repairPkt(k + 1)
			p.GroupK = 8
			f.a.handleRepair(1, p)
		},
		"repair indexing a data share": func() { p := f.repairPkt(k); p.Index = uint8(k - 1); f.a.handleRepair(1, p) },
		"long data payload": func() {
			p := f.dataPkt(3)
			p.Payload = append(append([]byte(nil), p.Payload...), 0)
			f.a.handleData(1, p)
		},
		"empty data payload": func() { p := f.dataPkt(3); p.Payload = nil; f.a.handleData(1, p) },
	}
	for name, send := range cases {
		before := f.a.Stats.BadShares
		send()
		if f.a.Stats.BadShares != before+1 || len(f.a.groups) != 0 {
			t.Errorf("%s: BadShares %d → %d, groups = %d; want one refusal and no state",
				name, before, f.a.Stats.BadShares, len(f.a.groups))
		}
	}
	if f.a.Stats.DataReceived+f.a.Stats.RepairsReceived != 0 {
		t.Errorf("refused shares counted as received: %+v", f.a.Stats)
	}
}

// TestShareStoreFirstCopyWins: a second share with a held index counts
// as a duplicate and changes neither the payload nor the count.
func TestShareStoreFirstCopyWins(t *testing.T) {
	f := newShareFeed(t, 84, 0)
	k := f.a.cfg.GroupK
	f.deliver(5)
	f.deliver(k + 2)
	g := f.a.group(0)
	for _, idx := range []int{5, k + 2} {
		first := g.shares[idx]
		other := bytes.Repeat([]byte{0xEE}, len(first))
		if idx < k {
			p := f.dataPkt(idx)
			p.Payload = other
			f.a.handleData(1, p)
		} else {
			p := f.repairPkt(idx)
			p.Payload = other
			f.a.handleRepair(1, p)
		}
		if g.held != 2 || &g.shares[idx][0] != &first[0] {
			t.Fatalf("second copy of share %d changed the store (held = %d)", idx, g.held)
		}
	}
	if f.a.Stats.DupShares != 2 || f.a.Stats.BadShares != 0 {
		t.Fatalf("DupShares = %d, BadShares = %d; want 2, 0", f.a.Stats.DupShares, f.a.Stats.BadShares)
	}
}

// TestShareStoreGrowsForHighRepair: a repair far past the store's
// initial room, arriving before any data share, is kept across the
// growth, and needed() keeps counting distinct shares.
func TestShareStoreGrowsForHighRepair(t *testing.T) {
	f := newShareFeed(t, 85, 0)
	k := f.a.cfg.GroupK
	f.deliver(40)
	g := f.a.group(0)
	high := g.shares[40]
	if g.held != 1 || g.needed() != k-1 || high == nil {
		t.Fatalf("after repair 40: held = %d, needed = %d", g.held, g.needed())
	}
	f.deliver(fec.MaxShares - 1)
	if len(g.shares) != fec.MaxShares || &g.shares[40][0] != &high[0] {
		t.Fatalf("growing to %d slots lost repair 40", len(g.shares))
	}
	for idx := 0; idx < k-2; idx++ {
		f.deliver(idx)
		if want := k - 3 - idx; g.needed() != want || g.held != k-want {
			t.Fatalf("after data %d: held = %d, needed = %d, want needed %d", idx, g.held, g.needed(), want)
		}
	}
	f.wantComplete()
	if f.a.Stats.DupShares != 0 {
		t.Fatalf("DupShares = %d, want 0", f.a.Stats.DupShares)
	}
}

// TestCompletedGroupHoldsExactlyKPayloads: completion releases the store
// and keeps exactly the K shares the group completed from — each the
// payload received, by reference — without copying or decoding a byte;
// a share arriving later is not stored.
func TestCompletedGroupHoldsExactlyKPayloads(t *testing.T) {
	f := newShareFeed(t, 86, 0)
	k := f.a.cfg.GroupK
	received := map[int][]byte{}
	for _, idx := range []int{k + 3, k, 60} {
		p := f.repairPkt(idx)
		received[idx] = p.Payload
		f.a.handleRepair(1, p)
	}
	for idx := 3; idx < k; idx++ {
		received[idx] = f.data[idx]
		f.deliver(idx)
	}
	f.wantComplete()
	g := f.a.group(0)
	if g.shares != nil {
		t.Fatalf("completed group keeps a store of %d slots", cap(g.shares))
	}
	// A share arriving late is neither stored nor a duplicate.
	f.deliver(k + 1)
	f.deliver(0)
	if g.shares != nil || f.a.Stats.DupShares != 0 || g.repairsHeard != 4 {
		t.Fatalf("late shares: store %v, DupShares = %d, repairsHeard = %d", g.shares != nil, f.a.Stats.DupShares, g.repairsHeard)
	}
	n := 0
	for idx, p := range g.kept {
		if p == nil {
			continue
		}
		n++
		if received[idx] == nil || &p[0] != &received[idx][0] {
			t.Fatalf("kept share %d is not the payload received", idx)
		}
	}
	if n != k {
		t.Fatalf("kept %d shares, want %d", n, k)
	}
}

// TestServedRepairMatchesEncoder: a receiver that completed from repairs,
// without three data shares it never saw, answers a NACK with repairs
// computed from the shares it kept; on the wire they are byte for byte
// the encoder's shares from the source's data.
func TestServedRepairMatchesEncoder(t *testing.T) {
	f := newShareFeed(t, 88, 0)
	k := f.a.cfg.GroupK
	for _, idx := range []int{k + 5, k, 41} {
		f.deliver(idx)
	}
	for idx := 3; idx < k; idx++ {
		f.deliver(idx)
	}
	f.wantComplete()
	net := f.a.net.(*netsim.Network)
	var served []*packet.Repair
	net.AddSendTap(func(_ eventq.Time, from topology.NodeID, _ scoping.ZoneID, pkt packet.Packet) {
		if rep, ok := pkt.(*packet.Repair); ok && from == f.a.node {
			served = append(served, rep)
		}
	})
	f.a.handleNACK(1, &packet.NACK{Origin: 1, Group: f.gid, LLC: 3, Needed: 3, Zone: int16(f.a.root)})
	net.Q.RunUntil(10)
	if len(served) != 3 {
		t.Fatalf("served %d repairs for a NACK needing 3", len(served))
	}
	for i, rep := range served {
		want, err := f.a.codec.Repair(f.data, int(rep.Index))
		if err != nil {
			t.Fatal(err)
		}
		if int(rep.Index) != 42+i || !bytes.Equal(rep.Payload, want.Data) {
			t.Fatalf("served repair %d (index %d) differs from the encoder's share", i, rep.Index)
		}
	}
}

// TestDecodeIndependentOfArrivalOrder: the same set of shares delivered
// in two orders keeps the same shares, so it decodes, and repairs, to
// byte-equal data.
func TestDecodeIndependentOfArrivalOrder(t *testing.T) {
	const seed = 87
	set := []int{17, 2, 3, 19, 5, 6, 7, 30, 9, 10, 11, 16, 13, 14, 15, 18}
	var results [2][][]byte
	for run := range results {
		f := newShareFeed(t, seed, 0)
		order := append([]int(nil), set...)
		if run == 1 {
			rand.New(rand.NewPCG(seed, 2)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, idx := range order {
			f.deliver(idx)
		}
		f.wantComplete()
		results[run] = f.a.group(0).kept
	}
	if len(results[0]) != len(results[1]) {
		t.Fatalf("kept %d slots in one order, %d in the other", len(results[0]), len(results[1]))
	}
	for i := range results[0] {
		if (results[0][i] == nil) != (results[1][i] == nil) || !bytes.Equal(results[0][i], results[1][i]) {
			t.Fatalf("kept share %d differs between arrival orders", i)
		}
	}
}
