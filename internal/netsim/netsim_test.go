package netsim

import (
	"errors"
	"math"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// recorder is a test agent that logs arrivals.
type recorder struct {
	got []arrival
}

type arrival struct {
	at   eventq.Time
	from topology.NodeID
	pkt  packet.Packet
}

func (r *recorder) Receive(now eventq.Time, d Delivery) {
	r.got = append(r.got, arrival{at: now, from: d.From, pkt: d.Pkt})
}

// build wires a network over a spec and attaches a recorder to every
// member.
func build(t *testing.T, spec *topology.Spec, seed uint64) (*Network, map[topology.NodeID]*recorder) {
	t.Helper()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	var q eventq.Queue
	n := New(&q, spec.Graph, h, simrand.New(seed))
	recs := map[topology.NodeID]*recorder{}
	for _, m := range spec.Members() {
		r := &recorder{}
		recs[m] = r
		n.Attach(m, r)
	}
	return n, recs
}

func dataPkt(size int) *packet.Data {
	return &packet.Data{Origin: 0, Seq: 1, Group: 0, Index: 0, GroupK: 16, Payload: make([]byte, size)}
}

func TestLosslessChainDelivery(t *testing.T) {
	spec := topology.Chain(4, 1e6, 0.010, 0.9) // high loss but NACKs are lossless
	n, recs := build(t, spec, 1)
	n.Multicast(0, 0, &packet.NACK{Origin: 0, Group: 1})
	n.Q.Run()
	for _, v := range spec.Receivers {
		if len(recs[v].got) != 1 {
			t.Fatalf("node %d got %d packets, want 1 (lossless)", v, len(recs[v].got))
		}
	}
	if len(recs[0].got) != 0 {
		t.Fatal("sender received its own multicast")
	}
}

func TestDeliveryTiming(t *testing.T) {
	// 1 Mbit/s link, 10 ms latency, 1000-bit packet → per hop:
	// 1 ms transmission + 10 ms propagation.
	spec := topology.Chain(3, 1e6, 0.010, 0)
	n, recs := build(t, spec, 1)
	pkt := &packet.NACK{Origin: 0, Group: 1}
	bits := float64(pkt.WireSize() * 8)
	perHop := bits/1e6 + 0.010
	n.Multicast(0, 0, pkt)
	n.Q.Run()
	for _, v := range []topology.NodeID{1, 2} {
		want := perHop * float64(v)
		got := recs[v].got[0].at.Seconds()
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("node %d arrival %v, want %v", v, got, want)
		}
	}
}

func TestQueueingDelay(t *testing.T) {
	// Two back-to-back packets on one link: the second waits for the
	// first's transmission to finish.
	spec := topology.Chain(2, 1e6, 0, 0)
	n, recs := build(t, spec, 1)
	pkt := &packet.NACK{Origin: 0, Group: 1}
	tx := float64(pkt.WireSize()*8) / 1e6
	n.Multicast(0, 0, pkt)
	n.Multicast(0, 0, pkt)
	n.Q.Run()
	if len(recs[1].got) != 2 {
		t.Fatalf("got %d deliveries", len(recs[1].got))
	}
	if math.Abs(recs[1].got[0].at.Seconds()-tx) > 1e-12 {
		t.Fatalf("first arrival %v, want %v", recs[1].got[0].at, tx)
	}
	if math.Abs(recs[1].got[1].at.Seconds()-2*tx) > 1e-12 {
		t.Fatalf("second arrival %v, want %v (queued)", recs[1].got[1].at, 2*tx)
	}
}

func TestDuplexIndependence(t *testing.T) {
	// Opposite directions of one link do not queue behind each other.
	spec := topology.Chain(2, 1e6, 0, 0)
	n, recs := build(t, spec, 1)
	pkt := &packet.NACK{Origin: 0, Group: 1}
	tx := float64(pkt.WireSize()*8) / 1e6
	n.Multicast(0, 0, pkt)
	n.Multicast(1, 0, pkt)
	n.Q.Run()
	if math.Abs(recs[1].got[0].at.Seconds()-tx) > 1e-12 ||
		math.Abs(recs[0].got[0].at.Seconds()-tx) > 1e-12 {
		t.Fatal("duplex directions interfered")
	}
}

func TestScopedDeliveryRestriction(t *testing.T) {
	// Balanced tree with per-subtree zones: a packet scoped to one
	// subtree zone must not reach the other subtree.
	spec := topology.BalancedTree([]int{2, 2}, 1e6, 0.01, 0)
	n, recs := build(t, spec, 1)
	// Zone 1 is node 1's subtree {1, 3, 4}.
	zone1 := scoping.ZoneID(1)
	if !n.H.Contains(zone1, 3) {
		t.Fatal("test assumption: node 3 in zone 1")
	}
	n.Multicast(1, zone1, &packet.NACK{Origin: 1, Group: 1})
	n.Q.Run()
	for _, v := range []topology.NodeID{3, 4} {
		if len(recs[v].got) != 1 {
			t.Fatalf("zone member %d got %d", v, len(recs[v].got))
		}
	}
	for _, v := range []topology.NodeID{0, 2, 5, 6} {
		if len(recs[v].got) != 0 {
			t.Fatalf("non-member %d heard scoped packet", v)
		}
	}
}

func TestScopedFromInsideReachesWholeZone(t *testing.T) {
	// A leaf multicasting to its zone reaches its zone peers via the
	// shared parent even though the parent is outside the zone... the
	// parent forwards but does not Receive.
	spec := topology.BalancedTree([]int{2, 2}, 1e6, 0.01, 0)
	n, recs := build(t, spec, 1)
	zone1 := scoping.ZoneID(1) // members {1,3,4}
	n.Multicast(3, zone1, &packet.NACK{Origin: 3, Group: 1})
	n.Q.Run()
	if len(recs[1].got) != 1 || len(recs[4].got) != 1 {
		t.Fatalf("zone members missed packet: node1=%d node4=%d", len(recs[1].got), len(recs[4].got))
	}
	if len(recs[0].got) != 0 {
		t.Fatal("root heard zone-scoped packet")
	}
}

func TestLossDropsSubtree(t *testing.T) {
	// With loss=1 on every link, nothing arrives.
	spec := topology.Chain(4, 1e6, 0.01, 1)
	n, recs := build(t, spec, 1)
	n.Multicast(0, 0, dataPkt(100))
	n.Q.Run()
	for _, v := range spec.Receivers {
		if len(recs[v].got) != 0 {
			t.Fatalf("node %d received despite loss=1", v)
		}
	}
	_, _, dropped := n.Stats()
	if dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestLossStatistics(t *testing.T) {
	// Single link with 20% loss: about 20% of data packets vanish.
	spec := topology.Chain(2, 1e9, 0, 0.2)
	n, recs := build(t, spec, 7)
	const N = 5000
	for i := 0; i < N; i++ {
		n.Multicast(0, 0, dataPkt(10))
	}
	n.Q.Run()
	got := float64(len(recs[1].got)) / N
	if math.Abs(got-0.8) > 0.02 {
		t.Fatalf("delivery rate %v, want ≈0.8", got)
	}
}

func TestLossIndependentPerLink(t *testing.T) {
	// Chain of 3 with 10% loss per link: end node sees ≈ 0.9².
	spec := topology.Chain(3, 1e9, 0, 0.1)
	n, recs := build(t, spec, 11)
	const N = 5000
	for i := 0; i < N; i++ {
		n.Multicast(0, 0, dataPkt(10))
	}
	n.Q.Run()
	mid := float64(len(recs[1].got)) / N
	end := float64(len(recs[2].got)) / N
	if math.Abs(mid-0.9) > 0.02 {
		t.Fatalf("mid rate %v, want ≈0.9", mid)
	}
	if math.Abs(end-0.81) > 0.02 {
		t.Fatalf("end rate %v, want ≈0.81", end)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		spec := topology.Figure10(topology.Figure10Params{})
		n, recs := build(t, spec, 42)
		for i := 0; i < 50; i++ {
			n.Multicast(0, 0, dataPkt(1000))
		}
		n.Q.Run()
		var counts []int
		for _, m := range spec.Members() {
			counts = append(counts, len(recs[m].got))
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at member %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTapObservesDeliveries(t *testing.T) {
	spec := topology.Chain(3, 1e6, 0.01, 0)
	n, _ := build(t, spec, 1)
	var tapped int
	n.AddTap(func(now eventq.Time, at topology.NodeID, d Delivery) { tapped++ })
	n.Multicast(0, 0, &packet.NACK{Origin: 0})
	n.Q.Run()
	if tapped != 2 {
		t.Fatalf("tap saw %d deliveries, want 2", tapped)
	}
}

// TestDeliveredEventNamesSender: a packet_delivered event names the node
// that multicast the packet even when the packet carries no group, as
// a session message does, so a packet trace can print its sender.
func TestDeliveredEventNamesSender(t *testing.T) {
	spec := topology.Chain(4, 1e6, 0.01, 0)
	n, _ := build(t, spec, 1)
	bus := telemetry.NewBus()
	var got []telemetry.Event
	bus.Attach(func(e telemetry.Event) {
		if e.Kind == telemetry.KindPacketDelivered {
			got = append(got, e)
		}
	})
	n.SetTelemetry(bus)
	n.Multicast(1, 0, &packet.Session{Origin: 1, Zone: 0, ZCR: 1})
	n.Q.Run()
	if len(got) != 3 {
		t.Fatalf("%d deliveries, want 3", len(got))
	}
	for _, e := range got {
		if e.Origin != 1 || e.Group != -1 || e.Hops < 1 || e.A != int64(packet.TypeSession) {
			t.Errorf("delivery at n%d: origin %d group %d hops %d type %d; want origin 1, group -1, hops >= 1, a session packet",
				e.Node, e.Origin, e.Group, e.Hops, e.A)
		}
	}
}

func TestUnattachedMemberStillCounted(t *testing.T) {
	// A member with no agent still counts as delivered (tap fires), so
	// joining late is modelled by attaching late.
	spec := topology.Chain(3, 1e6, 0.01, 0)
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	var q eventq.Queue
	n := New(&q, spec.Graph, h, simrand.New(1))
	var tapped int
	n.AddTap(func(eventq.Time, topology.NodeID, Delivery) { tapped++ })
	n.Multicast(0, 0, &packet.NACK{Origin: 0})
	q.Run()
	if tapped != 2 {
		t.Fatalf("tap saw %d, want 2", tapped)
	}
}

func TestOneWayDelay(t *testing.T) {
	spec := topology.Chain(4, 1e6, 0.015, 0)
	n, _ := build(t, spec, 1)
	if got := n.OneWayDelay(0, 3); math.Abs(float64(got)-0.045) > 1e-12 {
		t.Fatalf("OneWayDelay = %v, want 45ms", got)
	}
	if got := n.OneWayDelay(3, 1); math.Abs(float64(got)-0.030) > 1e-12 {
		t.Fatalf("OneWayDelay(3,1) = %v, want 30ms", got)
	}
}

func TestFigure10Broadcast(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	n, recs := build(t, spec, 3)
	n.Multicast(0, 0, &packet.NACK{Origin: 0}) // lossless: everyone hears
	n.Q.Run()
	for _, m := range spec.Receivers {
		if len(recs[m].got) != 1 {
			t.Fatalf("receiver %d got %d", m, len(recs[m].got))
		}
	}
	sent, delivered, _ := n.Stats()
	if sent != 1 || delivered != 112 {
		t.Fatalf("stats: sent=%d delivered=%d", sent, delivered)
	}
}

func TestRepairFromLeafZoneStaysLocal(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	n, recs := build(t, spec, 3)
	// Node 8 is the first tree child; its leaf zone holds it + 4 kids.
	leaf := n.H.LeafZone(8)
	if got := len(n.H.Members(leaf)); got != 5 {
		t.Fatalf("leaf zone size %d, want 5", got)
	}
	n.Multicast(8, leaf, &packet.NACK{Origin: 8})
	n.Q.Run()
	total := 0
	for _, m := range spec.Members() {
		total += len(recs[m].got)
	}
	if total != 4 {
		t.Fatalf("leaf-scoped multicast delivered %d, want 4", total)
	}
}

func TestQueueLimitTailDrops(t *testing.T) {
	// Flood a slow link far beyond its queue limit: most packets must
	// be tail-dropped, and with no limit none are.
	spec := topology.Chain(2, 1e5, 0, 0) // 100 kbit/s: 80 ms per 1000 B
	n, recs := build(t, spec, 1)
	n.QueueLimit = 4
	for i := 0; i < 100; i++ {
		n.Multicast(0, 0, dataPkt(1000))
	}
	n.Q.Run()
	if n.TailDrops() == 0 {
		t.Fatal("no tail drops under a 25x overload")
	}
	if got := len(recs[1].got); got > 10 {
		t.Fatalf("%d packets delivered through a 4-packet queue", got)
	}

	n2, recs2 := build(t, spec, 1)
	for i := 0; i < 100; i++ {
		n2.Multicast(0, 0, dataPkt(1000))
	}
	n2.Q.Run()
	if n2.TailDrops() != 0 {
		t.Fatal("tail drops with unbounded queues")
	}
	if len(recs2[1].got) != 100 {
		t.Fatalf("unbounded queue delivered %d/100", len(recs2[1].got))
	}
}

func TestQueueLimitSparesLightTraffic(t *testing.T) {
	// Light traffic far below the limit must be unaffected.
	spec := topology.Chain(3, 10e6, 0.01, 0)
	n, recs := build(t, spec, 2)
	n.QueueLimit = 16
	for i := 0; i < 10; i++ {
		n.Multicast(0, 0, dataPkt(500))
	}
	n.Q.Run()
	if n.TailDrops() != 0 {
		t.Fatalf("tail drops on an idle link: %d", n.TailDrops())
	}
	if len(recs[2].got) != 10 {
		t.Fatalf("delivered %d/10", len(recs[2].got))
	}
}

func TestSendTapObservesTransmissions(t *testing.T) {
	spec := topology.Chain(3, 1e6, 0.01, 0)
	n, _ := build(t, spec, 1)
	var sends []topology.NodeID
	n.AddSendTap(func(_ eventq.Time, from topology.NodeID, _ scoping.ZoneID, _ packet.Packet) {
		sends = append(sends, from)
	})
	n.Multicast(0, 0, &packet.NACK{Origin: 0})
	n.Multicast(2, 0, &packet.NACK{Origin: 2})
	n.Q.Run()
	if len(sends) != 2 || sends[0] != 0 || sends[1] != 2 {
		t.Fatalf("send tap saw %v", sends)
	}
}

func TestMulticastValidation(t *testing.T) {
	spec := topology.Chain(2, 1e6, 0.01, 0)
	n, recs := build(t, spec, 1)
	if err := n.MulticastE(99, 0, &packet.NACK{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node: got %v, want ErrUnknownNode", err)
	}
	if err := n.MulticastE(-1, 0, &packet.NACK{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("negative node: got %v, want ErrUnknownNode", err)
	}
	if err := n.MulticastE(0, 42, &packet.NACK{}); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("unknown zone: got %v, want ErrUnknownZone", err)
	}
	// The non-error fabric entry point drops invalid sends silently
	// instead of panicking.
	n.Multicast(99, 0, &packet.NACK{})
	n.Multicast(0, 42, &packet.NACK{})
	n.Q.Run()
	for node, r := range recs {
		if len(r.got) != 0 {
			t.Fatalf("node %d received %d packets from invalid sends", node, len(r.got))
		}
	}
	if sent, _, _ := n.Stats(); sent != 0 {
		t.Fatalf("invalid sends counted: sent = %d", sent)
	}
}

// TestMulticastEmptyPrunedSet is the regression test for multicasting
// from a member whose destination zone has no other members: the pruned
// delivery set is empty and the send must be a silent no-op.
func TestMulticastEmptyPrunedSet(t *testing.T) {
	spec := topology.Chain(3, 1e6, 0.01, 0)
	// Zone 1 holds only node 2; multicasts from 2 scoped to zone 1
	// therefore have nobody to reach.
	spec.Zones = []topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, 1}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{2}},
	}
	n, recs := build(t, spec, 1)
	if err := n.MulticastE(2, 1, &packet.NACK{Origin: 2}); err != nil {
		t.Fatalf("empty-zone multicast errored: %v", err)
	}
	n.Q.Run()
	for node, r := range recs {
		if len(r.got) != 0 {
			t.Fatalf("node %d received a packet from an empty-zone multicast", node)
		}
	}
	sent, delivered, _ := n.Stats()
	if sent != 1 || delivered != 0 {
		t.Fatalf("stats = (%d sent, %d delivered), want (1, 0)", sent, delivered)
	}
}

func TestTreeCaching(t *testing.T) {
	spec := topology.Chain(4, 1e6, 0.01, 0)
	n, _ := build(t, spec, 1)
	t1 := n.Tree(0)
	t2 := n.Tree(0)
	if t1 != t2 {
		t.Fatal("tree not cached")
	}
	if n.Tree(2).Root != 2 {
		t.Fatal("wrong root")
	}
}

func TestAgentAt(t *testing.T) {
	spec := topology.Chain(2, 1e6, 0.01, 0)
	n, recs := build(t, spec, 1)
	if n.AgentAt(1) != recs[1] {
		t.Fatal("AgentAt mismatch")
	}
	n.Attach(1, nil)
	if n.AgentAt(1) != nil {
		t.Fatal("detach failed")
	}
}

// TestSetHierarchyMembershipChange removes a member mid-session via
// scoping.WithoutMember + SetHierarchy and checks the pruned delivery
// sets shrink: the departed node stops receiving, subtree forwarding
// through it stops when nobody below needs the packet, and remaining
// members are unaffected.
func TestSetHierarchyMembershipChange(t *testing.T) {
	spec := topology.Chain(4, 1e6, 0.010, 0)
	n, recs := build(t, spec, 1)
	pkt := &packet.NACK{Origin: 0, Group: 1}

	n.Multicast(0, 0, pkt)
	n.Q.Run()
	for _, v := range []topology.NodeID{1, 2, 3} {
		if len(recs[v].got) != 1 {
			t.Fatalf("node %d got %d packets before the change, want 1", v, len(recs[v].got))
		}
	}

	// Node 3 (the chain's tail) leaves the session.
	h2, err := n.H.WithoutMember(3)
	if err != nil {
		t.Fatal(err)
	}
	n.SetHierarchy(h2)
	sentBefore, deliveredBefore, _ := n.Stats()

	n.Multicast(0, 0, pkt)
	n.Q.Run()
	if len(recs[3].got) != 1 {
		t.Errorf("departed node 3 got %d packets, want 1 (nothing after leaving)", len(recs[3].got))
	}
	for _, v := range []topology.NodeID{1, 2} {
		if len(recs[v].got) != 2 {
			t.Errorf("node %d got %d packets, want 2 (unaffected by the leave)", v, len(recs[v].got))
		}
	}
	sent, delivered, _ := n.Stats()
	if sent != sentBefore+1 || delivered != deliveredBefore+2 {
		t.Errorf("stats after leave: sent %d delivered %d, want %d/%d",
			sent, delivered, sentBefore+1, deliveredBefore+2)
	}

	// An interior member leaving must not cut off the members behind it:
	// node 2 leaves, node 1 (and the departed 3) aside, the packet still
	// transits node 2's attachment point.
	h3, err := n.H.WithoutMember(2)
	if err != nil {
		t.Fatal(err)
	}
	n.SetHierarchy(h3)
	n.Multicast(0, 0, pkt)
	n.Q.Run()
	if len(recs[2].got) != 2 {
		t.Errorf("departed node 2 got %d packets, want 2", len(recs[2].got))
	}
	if len(recs[1].got) != 3 {
		t.Errorf("node 1 got %d packets, want 3", len(recs[1].got))
	}
}
