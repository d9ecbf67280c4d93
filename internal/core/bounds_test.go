package core

// Tests for what one datagram may make a member do: every field that
// names a place in the stream — a sequence number, a group, a high-water
// mark, a scope zone — is bounded by the session before any state is
// touched, and the steady-state handlers allocate nothing.

import (
	"math"
	"runtime"
	"testing"

	"sharqfec/internal/fabric"
	"sharqfec/internal/fec"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// wantBounded requires that the member tracks nothing past the session's
// end: no group beyond NumGroups, no high-water mark beyond NumPackets.
func wantBounded(t *testing.T, a *Agent) {
	t.Helper()
	if len(a.groups) > a.cfg.NumGroups() || a.maxSeq >= int64(a.cfg.NumPackets) || len(a.catchUpQueue) > a.cfg.NumGroups() {
		t.Fatalf("%d group slots, high-water mark %d, %d groups queued for catch-up in a session of %d groups / %d packets",
			len(a.groups), a.maxSeq, len(a.catchUpQueue), a.cfg.NumGroups(), a.cfg.NumPackets)
	}
}

// TestDataSeqMustMatchItsShare: one data packet claiming sequence number
// two million used to walk noteLoss over every number below it, opening
// 125,000 groups in a 64-packet session; 2³²−1 did not return.
func TestDataSeqMustMatchItsShare(t *testing.T) {
	f := newShareFeed(t, 90, 0)
	for _, seq := range []uint32{2_000_000, math.MaxUint32, 1, uint32(f.a.cfg.NumPackets)} {
		p := f.dataPkt(0)
		p.Seq = seq
		f.a.handleData(1, p)
	}
	if f.a.Stats.BadShares != 4 || f.a.Stats.DataReceived != 0 || len(f.a.groups) != 0 || f.a.maxSeq != -1 {
		t.Fatalf("BadShares = %d, DataReceived = %d, groups = %d, maxSeq = %d; want 4, 0, 0, -1",
			f.a.Stats.BadShares, f.a.Stats.DataReceived, len(f.a.groups), f.a.maxSeq)
	}
	for idx := 0; idx < f.a.cfg.GroupK; idx++ {
		f.deliver(idx)
	}
	f.wantComplete()
}

// TestShareGroupBeyondSessionIsRefused: a data or repair share for a group
// the session does not have opened one anyway — at group 2³²−1 with the
// table a slice, four billion slots of it.
func TestShareGroupBeyondSessionIsRefused(t *testing.T) {
	for _, gid := range []uint32{4, 125_000, math.MaxUint32} {
		f := newShareFeed(t, 91, gid)
		f.a.handleData(1, f.dataPkt(0)) // Seq wraps with the group, as a sender's would
		if f.a.Stats.BadShares != 1 || f.a.Stats.DataReceived != 0 || len(f.a.groups) != 0 {
			t.Errorf("data for group %d: BadShares = %d, DataReceived = %d, groups = %d; want 1, 0, 0",
				gid, f.a.Stats.BadShares, f.a.Stats.DataReceived, len(f.a.groups))
		}
		f.a.handleRepair(1, f.repairPkt(f.a.cfg.GroupK))
		if f.a.Stats.BadShares != 2 || f.a.Stats.RepairsReceived != 0 || len(f.a.groups) != 0 {
			t.Errorf("repair for group %d: BadShares = %d, RepairsReceived = %d, groups = %d; want 2, 0, 0",
				gid, f.a.Stats.BadShares, f.a.Stats.RepairsReceived, len(f.a.groups))
		}
	}
}

// TestNACKGroupBeyondSessionIsRefused: the same, by way of a request.
func TestNACKGroupBeyondSessionIsRefused(t *testing.T) {
	f := newShareFeed(t, 92, 0)
	for _, gid := range []uint32{4, math.MaxUint32} {
		f.a.handleNACK(1, &packet.NACK{Origin: 1, Group: gid, LLC: 3, Needed: 3, Zone: int16(f.a.root)})
	}
	if f.a.Stats.BadNACKs != 2 || len(f.a.groups) != 0 {
		t.Fatalf("BadNACKs = %d, groups = %d; want 2, 0", f.a.Stats.BadNACKs, len(f.a.groups))
	}
	f.a.handleNACK(1, &packet.NACK{Origin: 1, Group: 3, LLC: 3, Needed: 3, Zone: int16(f.a.root)})
	if g := f.a.group(3); g == nil || g.lv[0].zlc != 3 || f.a.Stats.BadNACKs != 2 {
		t.Fatalf("a request for the session's last group was not taken (BadNACKs = %d)", f.a.Stats.BadNACKs)
	}
}

// TestAdvertisedHighWaterIsClamped: a NACK's or a session message's
// high-water mark is a claim about the stream; past the stream's end it
// used to count (and open groups for) every sequence number up to it.
func TestAdvertisedHighWaterIsClamped(t *testing.T) {
	sends := map[string]func(a *Agent){
		"NACK.MaxSeq": func(a *Agent) {
			a.handleNACK(1, &packet.NACK{Origin: 1, Group: 0, LLC: 1, Needed: 1, MaxSeq: math.MaxUint32, Zone: int16(a.root)})
		},
		"Session.MaxSeq": func(a *Agent) {
			a.Receive(1, fabric.Delivery{From: 1, Scope: a.root, Pkt: &packet.Session{
				Origin: 1, Zone: int16(a.root), SentAt: 0.9, ZCR: topology.NoNode, MaxSeq: math.MaxUint32,
			}})
		},
	}
	for name, send := range sends {
		for _, late := range []bool{false, true} {
			f := newShareFeed(t, 93, 0)
			if late {
				f.a.lateJoiner, f.a.joinSeq = true, -1
			}
			send(f.a)
			wantBounded(t, f.a)
			last := int64(f.a.cfg.NumPackets) - 1
			if f.a.maxSeq != last {
				t.Errorf("%s (late joiner %v): high-water mark %d, want the stream's last packet %d", name, late, f.a.maxSeq, last)
			}
			if late && f.a.joinSeq != int64(f.a.cfg.NumPackets-f.a.cfg.GroupK) {
				t.Errorf("%s: late joiner placed at %d, want the last group's first packet", name, f.a.joinSeq)
			}
		}
	}
}

// TestRepairBurstEndIsClamped: a repair's announced burst end is a claim
// about the group's share indices; past the last index that exists it
// used to become the group's high-water mark as it stood (2³²−1 here).
func TestRepairBurstEndIsClamped(t *testing.T) {
	f := newShareFeed(t, 97, 0)
	rep := f.repairPkt(f.a.cfg.GroupK)
	rep.NewMaxSeq = math.MaxUint32
	f.a.handleRepair(1, rep)
	g := f.a.group(0)
	if g == nil {
		t.Fatal("the repair opened no group")
	}
	if g.maxShare != fec.MaxShares-1 || g.held != 1 {
		t.Fatalf("high-water mark %d, %d shares held; want %d, 1", g.maxShare, g.held, fec.MaxShares-1)
	}
	for idx := 1; idx < f.a.cfg.GroupK; idx++ {
		f.deliver(idx)
	}
	f.wantComplete()
}

// TestNACKFromForeignZoneCreatesNoState: scoped delivery never hands a
// member a request from a zone it is not in, but a socket can carry any
// 16-bit zone. Such a request used to open the group and leave loss
// counts and repair debts keyed by the foreign zone.
func TestNACKFromForeignZoneCreatesNoState(t *testing.T) {
	spec := miniFigure10(0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 94)
	a := w.agents[4] // a grandchild: chain = its leaf zone, node 1's zone, the root
	a.joined = true
	if len(a.chain) != 3 {
		t.Fatalf("chain %v, want three zones", a.chain)
	}
	sibling := w.net.H.ZonesOf(7)[0]
	for _, z := range []int16{int16(sibling), int16(w.net.H.ZonesOf(2)[0]), 999, -5, math.MinInt16} {
		a.Receive(1, fabric.Delivery{From: 7, Scope: scoping.ZoneID(z), Pkt: &packet.NACK{
			Origin: 7, Group: 1, LLC: 2, Needed: 2, MaxSeq: 20, Zone: z,
		}})
	}
	if a.Stats.BadNACKs != 5 || len(a.groups) != 0 || a.maxSeq != -1 {
		t.Fatalf("BadNACKs = %d, groups = %d, maxSeq = %d; want 5, 0, -1", a.Stats.BadNACKs, len(a.groups), a.maxSeq)
	}
	// The same request at each zone of the chain lands in that level.
	for i, z := range a.chain {
		a.Receive(1, fabric.Delivery{From: 7, Scope: z, Pkt: &packet.NACK{
			Origin: 7, Group: 1, LLC: uint8(2 + i), Needed: uint8(1 + i), Zone: int16(z),
		}})
	}
	g := a.group(1)
	for i := range a.chain {
		if g == nil || g.lv[i].zlc != 2+i || g.lv[i].pending != 1+i {
			t.Fatalf("level %d holds %+v, want zlc %d pending %d", i, g.lv[i], 2+i, 1+i)
		}
	}
	// On the one-zone hierarchy the unscoped variants run on, the root
	// is the only zone there is.
	flat := quietWorld(t, oneZone(miniFigure10(0)), cfg, 94).agents[4]
	flat.joined = true
	flat.handleNACK(1, &packet.NACK{Origin: 7, Group: 1, LLC: 2, Needed: 2, Zone: int16(a.chain[0])})
	flat.handleNACK(1, &packet.NACK{Origin: 7, Group: 1, LLC: 2, Needed: 2, Zone: int16(flat.root)})
	if flat.Stats.BadNACKs != 1 || flat.group(1) == nil || flat.group(1).lv[0].zlc != 2 {
		t.Fatalf("unscoped member: BadNACKs = %d, want only the leaf-zone request refused", flat.Stats.BadNACKs)
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestSteadyStateHandlersAllocateNothing pins the data path's state
// against allocation: a request or a duplicate repair for a group already
// open touches its records and nothing else, and opening a group costs
// well under one object, since records are carved from per-agent blocks.
func TestSteadyStateHandlersAllocateNothing(t *testing.T) {
	f := newShareFeed(t, 95, 1)
	a := f.a
	nack := &packet.NACK{Origin: 1, Group: 1, LLC: 3, Needed: 3, Zone: int16(a.root)}
	a.handleNACK(1, nack) // opens group 1
	if got := testing.AllocsPerRun(100, func() { a.handleNACK(1, nack) }); got != 0 {
		t.Errorf("handleNACK on an open, incomplete group: %v allocations, want 0", got)
	}
	rep := f.repairPkt(a.cfg.GroupK)
	a.handleRepair(1, rep)
	if got := testing.AllocsPerRun(100, func() { a.handleRepair(1, rep) }); got != 0 {
		t.Errorf("handleRepair of a share already held: %v allocations, want 0", got)
	}
	for idx := 0; idx < a.cfg.GroupK; idx++ {
		f.deliver(idx)
	}
	f.wantComplete()
	a.handleNACK(1, nack) // arms the completed group's reply timer
	if !a.group(1).replyTimer.Active() {
		t.Fatal("a complete non-ZCR repairer armed no reply timer")
	}
	if got := testing.AllocsPerRun(100, func() { a.handleNACK(1, nack); a.handleRepair(1, rep) }); got != 0 {
		t.Errorf("handleNACK + handleRepair on a complete group: %v allocations, want 0", got)
	}
	if a.Stats.BadNACKs != 0 || a.Stats.BadShares != 0 {
		t.Fatalf("well-formed packets refused: %+v", a.Stats)
	}

	// Opening: a request for each group of a long session in turn. Counted
	// by hand — AllocsPerRun reports whole allocations per run, and the
	// figure pinned here is a fraction of one.
	cfg := smallCfg()
	cfg.NumPackets = 1000 * cfg.GroupK
	open := quietWorld(t, topology.Chain(3, 10e6, 0.010, 0), cfg, 96).agents[2]
	open.joined = true
	nacks := make([]packet.NACK, cfg.NumGroups())
	for gid := range nacks {
		nacks[gid] = packet.NACK{Origin: 1, Group: uint32(gid), LLC: 1, Needed: 1, Zone: int16(open.root)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for gid := range nacks {
		open.handleNACK(1, &nacks[gid])
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(len(nacks))
	if got > 1 || open.Stats.BadNACKs != 0 || len(open.groups) != len(nacks) {
		t.Errorf("opening a group: %.2f allocations amortised over %d groups (%d refused), want at most 1",
			got, len(open.groups), open.Stats.BadNACKs)
	}
	t.Logf("opening a group: %.2f allocations amortised over %d groups", got, len(nacks))

	// The send side, counted the same way over 1,000 groups: a NACK with
	// its ancestor list, a ZLC sample, and a 4-repair burst. The sender
	// is a receiver of a scoped chain that knows the ZCRs of both its
	// zones, so its NACKs carry ancestors. Every group has its timer
	// callback already (made on a group's first arm: see armTimer), and
	// the queue is run past each send, so the burst cursors and ZLC
	// samples come back to the sender's free lists.
	sw := quietWorld(t, topology.ScopedChain(4, 0), cfg, 98)
	q := sw.net.Q
	q.RunUntil(10)
	s := sw.agents[2]
	s.joined = true
	s.sess.SeedZCR(s.chain[0], 1)
	s.sess.SeedZCR(s.root, 0)
	now := q.Now().Seconds()
	s.sess.HandleSession(q.Now(), &packet.Session{Origin: 1, Zone: int16(s.chain[0]), SentAt: now, ZCR: 1,
		Entries: []packet.SessionEntry{{Peer: s.node, Echo: now - 0.02}, {Peer: 0, RTT: 0.03}}})
	if anc := s.sess.AncestorList(); len(anc) == 0 {
		t.Fatal("set-up: the sender's NACKs carry no ancestors")
	}
	s.sess.Stop() // its tables stay; its timers end, so the queue runs dry
	kept := newShareFeed(t, 98, 0).data
	groups := make([]*group, cfg.NumGroups())
	for gid := range groups {
		g := s.ensureGroup(uint32(gid))
		s.armTimer(g, &g.ldpTimer, 1000)
		stopTimer(&g.ldpTimer)
		groups[gid] = g
	}
	for _, c := range []struct {
		name string
		own  float64 // allocations the send makes by design
		fn   func(g *group)
	}{
		{"a NACK", 0, func(g *group) {
			g.inRepair = true
			s.requestTimerFired(q.Now(), g)
			stopTimer(&g.reqTimer)
		}},
		{"a ZLC sample", 0, func(g *group) { s.scheduleZLCSample(g, 0) }},
		{"a 4-repair burst", 1, func(g *group) {
			g.complete, g.kept = true, kept
			s.sendRepairBurst(q.Now(), g, s.chain[0], 4, false)
		}},
	} {
		runtime.ReadMemStats(&before)
		for _, g := range groups {
			c.fn(g)
			q.RunUntil(q.Now() + 60)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs)/float64(len(groups)) - c.own
		// Under the race detector sync.Pool drops a quarter of its Puts,
		// and a packet may take a new arena and new blocks: the counts
		// are logged, not held to the bound.
		if got > 0.1 && !raceEnabled {
			t.Errorf("%s: %.2f allocations amortised over %d groups beyond its own %v, want at most 0.1",
				c.name, got, len(groups), c.own)
		}
		t.Logf("%s: %.2f allocations amortised over %d groups beyond its own %v", c.name, got, len(groups), c.own)
	}
	if sent := s.Stats.NACKsSent; sent != len(groups) || s.Stats.RepairsSent != 4*len(groups) {
		t.Fatalf("sent %d NACKs and %d repairs, want %d and %d", sent, s.Stats.RepairsSent, len(groups), 4*len(groups))
	}
}

// TestNewReceiverAllocations pins what building a receiver costs, the
// price every member of a session-only run pays. The static controller
// lives in the agent and makes its map on the first sample, the "core"
// stream is derived on the first draw, and a stream is one allocation;
// before those three, New made 14 allocations per receiver.
func TestNewReceiverAllocations(t *testing.T) {
	const want = 7
	spec := topology.Chain(3, 10e6, 0.010, 0)
	w := quietWorld(t, spec, smallCfg(), 97)
	cfg := smallCfg()
	cfg.Source = spec.Source
	src := simrand.New(97)
	got := testing.AllocsPerRun(100, func() {
		if _, err := New(2, w.net, cfg, src); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("core.New for a receiver: %v allocations, want at most %d", got, want)
	}
}
