package session

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// sessAgent adapts a Manager to netsim.Agent for session-only tests.
type sessAgent struct{ m *Manager }

func (a *sessAgent) Receive(now eventq.Time, d netsim.Delivery) { a.m.Receive(now, d.Pkt) }

// harness wires managers for every member of a spec.
type harness struct {
	net  *netsim.Network
	mgrs map[topology.NodeID]*Manager
	spec *topology.Spec
}

func newHarness(t *testing.T, spec *topology.Spec, seed uint64) *harness {
	t.Helper()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	var q eventq.Queue
	src := simrand.New(seed)
	n := netsim.New(&q, spec.Graph, h, src)
	hs := &harness{net: n, mgrs: map[topology.NodeID]*Manager{}, spec: spec}
	for _, member := range spec.Members() {
		m := New(member, n, DefaultConfig(), src.StreamN("session", int(member)))
		hs.mgrs[member] = m
		n.Attach(member, &sessAgent{m: m})
	}
	return hs
}

// watch gives the harness network a bus whose one sink passes fn every
// event of the given kind.
func (h *harness) watch(kind telemetry.Kind, fn func(telemetry.Event)) {
	bus := telemetry.NewBus()
	bus.Attach(func(e telemetry.Event) {
		if e.Kind == kind {
			fn(e)
		}
	})
	h.net.SetTelemetry(bus)
}

// startAll starts every manager at t=1 s (the paper's join time) and runs
// the simulation until `until` seconds.
func (h *harness) startAll(until float64) {
	h.net.Q.At(1, func(eventq.Time) {
		for _, member := range h.spec.Members() {
			h.mgrs[member].Start(member == h.spec.Source)
		}
	})
	h.net.Q.RunUntil(eventq.Time(until))
}

// twoLevelChain is a 0—1—2—3 chain where {1,2,3} form a child zone under
// the root: node 1 is the true ZCR (closest to the source).
func twoLevelChain() *topology.Spec {
	spec := topology.Chain(4, 10e6, 0.010, 0)
	spec.Zones = []topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1, 2, 3}},
	}
	return spec
}

func TestDirectRTTMeasurement(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.025, 0)
	h := newHarness(t, spec, 5)
	h.startAll(10)
	rtt, ok := h.mgrs[0].DirectRTT(1)
	if !ok {
		t.Fatal("node 0 has no RTT estimate for node 1")
	}
	// True propagation RTT is 50 ms; session packets also pay two small
	// transmission delays, so allow a few percent.
	if math.Abs(rtt-0.050)/0.050 > 0.10 {
		t.Fatalf("RTT estimate %v, want ≈0.050", rtt)
	}
	rtt2, ok := h.mgrs[1].DirectRTT(0)
	if !ok || math.Abs(rtt2-0.050)/0.050 > 0.10 {
		t.Fatalf("reverse RTT %v ok=%v", rtt2, ok)
	}
}

func TestRootZCRAnnounced(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 6)
	h.startAll(5)
	for _, n := range spec.Members() {
		if got := h.mgrs[n].ZCR(0); got != 0 {
			t.Fatalf("node %d believes root ZCR is %d, want 0", n, got)
		}
	}
}

func TestChainElection(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 7)
	h.startAll(20)
	for _, n := range spec.Members() {
		if got := h.mgrs[n].ZCR(1); got != 1 {
			t.Fatalf("node %d believes zone-1 ZCR is %d, want 1 (closest to source)", n, got)
		}
	}
	// The elected ZCR's measured distance to the parent ZCR should be
	// close to the true 10 ms one-way latency.
	d := h.mgrs[1].zone(1).myDist
	if math.Abs(d-0.010) > 0.004 {
		t.Fatalf("ZCR distance to parent %v, want ≈0.010", d)
	}
}

func TestForkElection(t *testing.T) {
	// Star: hub 0, spokes at 10/20/30 ms. Zone {1,2,3} under root: node
	// 1 (10 ms) must win.
	spec := topology.Star(4, 10e6, 0.010, 0)
	spec.Zones = []topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1, 2, 3}},
	}
	h := newHarness(t, spec, 8)
	h.startAll(20)
	for _, n := range spec.Members() {
		if got := h.mgrs[n].ZCR(1); got != 1 {
			t.Fatalf("node %d believes fork ZCR is %d, want 1", n, got)
		}
	}
}

func TestElectionConvergesWithinTwoChallenges(t *testing.T) {
	// §6.1: "each election at each zone taking either one or two
	// challenges". After the bootstrap window plus two challenge
	// intervals (≈ 1 + 1 + 2×3 s) the right ZCR must be in place.
	spec := twoLevelChain()
	h := newHarness(t, spec, 9)
	h.startAll(9)
	if got := h.mgrs[3].ZCR(1); got != 1 {
		t.Fatalf("zone-1 ZCR after two challenge rounds = %d, want 1", got)
	}
}

func TestFigure10Elections(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	h := newHarness(t, spec, 10)
	h.startAll(30)
	hier := h.net.H
	// Intermediate zones (parents = root): ZCR must be the mesh node.
	// Leaf zones: ZCR must be the tree child (closest to the mesh).
	for z := scoping.ZoneID(0); int(z) < hier.NumZones(); z++ {
		parent := hier.Parent(z)
		if parent == scoping.NoZone {
			continue
		}
		leaves := hier.Leaves(z)
		want := leaves[0] // builders list the closest node first
		// Check from the viewpoint of every member of the zone.
		for _, n := range hier.Members(z) {
			if got := h.mgrs[n].ZCR(z); got != want {
				t.Fatalf("node %d: zone %d ZCR = %d, want %d", n, z, got, want)
			}
		}
	}
}

func TestIndirectRTTEstimation(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	h := newHarness(t, spec, 11)
	h.startAll(30)

	// Figures 11–13 procedure: a receiver sends a NACK-like message
	// carrying its ancestor list; every other receiver estimates the
	// RTT and we compare against ground truth.
	for _, sender := range []topology.NodeID{3, 25, 36} {
		anc := h.mgrs[sender].AncestorList()
		if len(anc) == 0 {
			t.Fatalf("sender %d has empty ancestor list", sender)
		}
		within := 0
		able := 0
		for _, n := range spec.Members() {
			if n == sender {
				continue
			}
			est, ok := h.mgrs[n].EstimateRTT(sender, anc)
			if !ok {
				continue
			}
			able++
			truth := 2 * float64(h.net.OneWayDelay(sender, n))
			if truth == 0 {
				continue
			}
			if math.Abs(est-truth)/truth < 0.25 {
				within++
			}
		}
		if able < len(spec.Members())/2 {
			t.Fatalf("sender %d: only %d receivers could estimate", sender, able)
		}
		if float64(within)/float64(able) < 0.5 {
			t.Fatalf("sender %d: only %d/%d estimates within 25%%", sender, within, able)
		}
	}
}

func TestSessionTrafficScoped(t *testing.T) {
	// Scoped session traffic must deliver far fewer packets than the
	// all-pairs equivalent: in Figure 10 each member hears only its
	// zone peers and ancestor-zone participants.
	spec := topology.Figure10(topology.Figure10Params{})
	h := newHarness(t, spec, 12)
	deliveries := 0
	h.watch(telemetry.KindPacketDelivered, func(e telemetry.Event) {
		if e.A == int64(packet.TypeSession) {
			deliveries++
		}
	})
	h.startAll(11) // ten steady-state seconds
	// Non-scoped all-pairs would be ≈113 senders × 112 hearers × 10 s
	// ≈ 126k deliveries. Scoped must be well under a quarter of that.
	if deliveries > 32000 {
		t.Fatalf("scoped session deliveries = %d, want ≪ 126k", deliveries)
	}
	if deliveries < 1000 {
		t.Fatalf("suspiciously few session deliveries: %d", deliveries)
	}
}

func TestAncestorListOrdering(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	h := newHarness(t, spec, 13)
	h.startAll(30)
	// A grandchild's ancestors: leaf ZCR then intermediate ZCR; RTTs
	// must be nondecreasing (composed estimates).
	anc := h.mgrs[12].AncestorList()
	if len(anc) < 2 {
		t.Fatalf("grandchild ancestor list too short: %v", anc)
	}
	for i := 1; i < len(anc); i++ {
		if anc[i].RTT+1e-9 < anc[i-1].RTT {
			t.Fatalf("ancestor RTTs not nondecreasing: %v", anc)
		}
	}
}

// TestAncestorListAllocatesOnce pins AncestorList's cost: one
// allocation of exactly the list's size, and none (a nil list) before
// any ancestor's distance is known.
func TestAncestorListAllocatesOnce(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	h := newHarness(t, spec, 13)
	if anc := h.mgrs[12].AncestorList(); anc != nil {
		t.Fatalf("ancestor list before any session traffic = %v, want nil", anc)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.mgrs[12].AncestorList() }); allocs != 0 {
		t.Errorf("%v allocations for an empty ancestor list, want 0", allocs)
	}
	h.startAll(30)
	anc := h.mgrs[12].AncestorList()
	if len(anc) < 2 || cap(anc) != len(anc) {
		t.Fatalf("ancestor list %v has capacity %d, want its length, at least 2", anc, cap(anc))
	}
	if allocs := testing.AllocsPerRun(100, func() { h.mgrs[12].AncestorList() }); allocs != 1 {
		t.Errorf("%v allocations per ancestor list, want 1", allocs)
	}
}

func TestDistFallback(t *testing.T) {
	spec := topology.Chain(3, 10e6, 0.010, 0)
	h := newHarness(t, spec, 14)
	// Before any session traffic, Dist falls back to the default.
	if d := h.mgrs[0].Dist(2, nil); d != DefaultDist {
		t.Fatalf("fallback dist = %v", d)
	}
}

func TestMostDistantRTT(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 15)
	h.startAll(20)
	// Zone 1 spans nodes 1..3; from node 1 the most distant member is
	// node 3 at RTT ≈ 40 ms.
	got := h.mgrs[1].MostDistantRTT(1)
	if math.Abs(got-0.040)/0.040 > 0.2 {
		t.Fatalf("MostDistantRTT = %v, want ≈0.040", got)
	}
}

func TestEstimateRTTSelf(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	h := newHarness(t, spec, 16)
	if rtt, ok := h.mgrs[0].EstimateRTT(0, nil); !ok || rtt != 0 {
		t.Fatalf("self RTT = %v ok=%v", rtt, ok)
	}
}

func TestZCRReassertsAgainstFartherUsurper(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 17)
	h.startAll(20)
	// Node 3 (farther) forges a takeover; node 1 must reassert and all
	// nodes settle back on node 1.
	h.net.Q.At(20, func(now eventq.Time) {
		forged := &packet.ZCRTakeover{Origin: 3, Zone: 1, DistToParent: 0.5}
		h.net.Multicast(3, 0, forged)
		h.net.Multicast(3, 1, forged)
		h.mgrs[3].setZCR(now, h.mgrs[3].zone(1), 3, 0.5)
	})
	h.net.Q.RunUntil(30)
	for _, n := range spec.Members() {
		if got := h.mgrs[n].ZCR(1); got != 1 {
			t.Fatalf("node %d: ZCR = %d after forged takeover, want 1 restored", n, got)
		}
	}
}

func TestDeterministicElections(t *testing.T) {
	run := func() topology.NodeID {
		spec := topology.Figure10(topology.Figure10Params{})
		h := newHarness(t, spec, 99)
		h.startAll(25)
		return h.mgrs[50].ZCR(h.net.H.LeafZone(50))
	}
	if run() != run() {
		t.Fatal("elections not deterministic for fixed seed")
	}
}

func TestChainAccessors(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	h := newHarness(t, spec, 18)
	m := h.mgrs[12]
	if m.Node() != 12 {
		t.Fatal("Node accessor wrong")
	}
	if len(m.Chain()) != 3 {
		t.Fatalf("grandchild chain length %d, want 3", len(m.Chain()))
	}
}

func TestZCRFailureTriggersReelection(t *testing.T) {
	// Kill the elected zone ZCR mid-session; the watchdog must notice
	// the silence and the survivors must elect the next-closest member
	// (§5.2 robustness: "should the old ZCR leave the session").
	spec := twoLevelChain()
	h := newHarness(t, spec, 31)
	h.startAll(20)
	if got := h.mgrs[1].ZCR(1); got != 1 {
		t.Fatalf("precondition: ZCR = %d, want 1", got)
	}
	h.mgrs[1].Stop()
	h.net.Q.RunUntil(60)
	for _, n := range []topology.NodeID{2, 3} {
		if got := h.mgrs[n].ZCR(1); got != 2 {
			t.Fatalf("node %d: post-failure ZCR = %d, want 2 (next closest)", n, got)
		}
	}
}

func TestStoppedManagerStaysSilent(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 32)
	h.startAll(5)
	h.mgrs[3].Stop()
	if !h.mgrs[3].Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
	var sentBy3 bool
	h.watch(telemetry.KindPacketSent, func(e telemetry.Event) {
		if e.A == int64(packet.TypeSession) && e.Node == 3 {
			sentBy3 = true
		}
	})
	h.net.Q.RunUntil(20)
	if sentBy3 {
		t.Fatal("stopped manager kept sending session messages")
	}
}

func TestReceiverReportAggregation(t *testing.T) {
	// Figure-10: grandchildren publish distinct loss fractions; their
	// leaf ZCRs aggregate to the intermediate scope, mesh ZCRs to the
	// root, and the source's view converges on the session-wide worst.
	spec := topology.Figure10(topology.Figure10Params{})
	h := newHarness(t, spec, 40)
	h.net.Q.At(1, func(eventq.Time) {
		for _, member := range h.spec.Members() {
			h.mgrs[member].Start(member == h.spec.Source)
		}
	})
	// Publish reports at t=2: receiver n reports n/1000 loss, so the
	// worst is node 112's 0.112.
	h.net.Q.At(2, func(eventq.Time) {
		for _, member := range h.spec.Receivers {
			h.mgrs[member].SetLocalLossReport(float64(member) / 1000)
		}
	})
	h.net.Q.RunUntil(30)

	worst, members := h.mgrs[0].AggregatedReport(0)
	if worst < 0.111 || worst > 0.113 {
		t.Fatalf("source's worst-loss view = %v, want 0.112", worst)
	}
	if int(members) < 100 {
		t.Fatalf("source's aggregation covers %d members", members)
	}
	// The source should hear only root-scope participants (mesh ZCRs
	// and root-level peers), not all 112 receivers.
	if n := h.mgrs[0].ReportersHeard(0); n > 20 {
		t.Fatalf("source heard %d direct reporters", n)
	}
}

func TestSetLocalLossReportClamped(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	h := newHarness(t, spec, 41)
	m := h.mgrs[1]
	m.SetLocalLossReport(-0.5)
	if m.rrLocal != 0 {
		t.Fatal("negative report not clamped")
	}
	m.SetLocalLossReport(1.5)
	if m.rrLocal != 1 {
		t.Fatal("overlarge report not clamped")
	}
}

// announceLinks makes m record origin's link table the way the protocol
// does: origin is seeded as m's leaf-zone ZCR and announces the RTTs in a
// session message scoped to that zone.
func announceLinks(m *Manager, origin topology.NodeID, rtts map[topology.NodeID]float64) {
	leaf := m.Chain()[0]
	m.SeedZCR(leaf, origin)
	msg := &packet.Session{Origin: origin, Zone: int16(leaf), SentAt: 1, ZCR: origin}
	for peer, rtt := range rtts {
		msg.Entries = append(msg.Entries, packet.SessionEntry{Peer: peer, RTT: rtt})
	}
	m.HandleSession(m.net.Sched().Now(), msg)
}

func TestHopRTTReverseLookup(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 42)
	m := h.mgrs[3]
	// Record a one-directional link table and look it up both ways.
	announceLinks(m, 5, map[topology.NodeID]float64{7: 0.123})
	if rtt, ok := m.hopRTT(5, 7); !ok || rtt != 0.123 {
		t.Fatalf("forward hop = %v %v", rtt, ok)
	}
	if rtt, ok := m.hopRTT(7, 5); !ok || rtt != 0.123 {
		t.Fatalf("reverse hop = %v %v", rtt, ok)
	}
	if _, ok := m.hopRTT(7, 9); ok {
		t.Fatal("unknown hop resolved")
	}
}

func TestRTTToChainZCRUnknown(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 43)
	// No session traffic: no ZCRs known, composition must fail cleanly.
	if _, ok := h.mgrs[3].RTTToChainZCR(0); ok {
		t.Fatal("composed RTT with no election data")
	}
	if _, ok := h.mgrs[3].RTTToChainZCR(-1); ok {
		t.Fatal("negative index accepted")
	}
	if _, ok := h.mgrs[3].RTTToChainZCR(99); ok {
		t.Fatal("out-of-range index accepted")
	}
}

func TestEstimateRTTViaDirectAncestor(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 44)
	m := h.mgrs[2]
	m.observeRTT(1, 0.040) // we know node 1 directly
	// Unknown sender 9 supplies its RTT to node 1: estimate composes.
	est, ok := m.EstimateRTT(9, []packet.AncestorRTT{{ZCR: 1, RTT: 0.020}})
	if !ok || math.Abs(est-0.060) > 1e-9 {
		t.Fatalf("composed estimate = %v %v, want 0.060", est, ok)
	}
}

func TestEstimateRTTNoPath(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 45)
	if _, ok := h.mgrs[2].EstimateRTT(9, nil); ok {
		t.Fatal("estimate formed with no information")
	}
}

func TestObserveRTTEWMA(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 46)
	m := h.mgrs[2]
	m.observeRTT(7, 0.100) // first sample taken whole
	if rtt, _ := m.DirectRTT(7); rtt != 0.100 {
		t.Fatalf("first sample = %v", rtt)
	}
	m.observeRTT(7, 0.200) // 0.75·0.1 + 0.25·0.2
	if rtt, _ := m.DirectRTT(7); math.Abs(rtt-0.125) > 1e-9 {
		t.Fatalf("EWMA = %v, want 0.125", rtt)
	}
}

func TestStateSizeCountsTables(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 47)
	m := h.mgrs[2]
	if m.StateSize() != 0 {
		t.Fatal("fresh manager has state")
	}
	m.observeRTT(1, 0.01)
	announceLinks(m, 1, map[topology.NodeID]float64{0: 0.02, 5: 0.03})
	if m.StateSize() != 3 {
		t.Fatalf("StateSize = %d, want 3", m.StateSize())
	}
}

func TestReportForWithoutLocalReport(t *testing.T) {
	spec := twoLevelChain()
	h := newHarness(t, spec, 48)
	loss, members := h.mgrs[2].reportFor(1)
	if loss != 0 || members != 0 {
		t.Fatalf("empty manager reported %v/%d", loss, members)
	}
}

// stubNet is a fabric.Network for driving one Manager by hand: a real
// event queue for its timers, and every multicast recorded instead of
// delivered.
type stubNet struct {
	q    eventq.Queue
	h    *scoping.Hierarchy
	sent []fabric.Delivery // Scope and Pkt of each Multicast, in order
}

type stubSched struct{ q *eventq.Queue }

func (s stubSched) Now() eventq.Time { return s.q.Now() }
func (s stubSched) After(d eventq.Duration, fn func(eventq.Time)) fabric.Timer {
	return s.q.After(d, fn)
}

func (n *stubNet) Sched() fabric.Scheduler              { return stubSched{&n.q} }
func (n *stubNet) Hierarchy() *scoping.Hierarchy        { return n.h }
func (n *stubNet) Attach(topology.NodeID, fabric.Agent) {}
func (n *stubNet) Multicast(from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) {
	n.sent = append(n.sent, fabric.Delivery{From: from, Scope: zone, Pkt: pkt})
}

// modelZones is the hierarchy of the reference-model and allocation
// tests: three levels, so a member has chain zones, sibling zones it
// overhears at each parent scope, and zones it has no business hearing.
//
//	Z0 {0} — Z1 {1} — Z3 {3,4}, Z4 {5,6}
//	        \ Z2 {2} — Z5 {7,8}
func modelZones() *scoping.Hierarchy {
	return scoping.MustBuild([]topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1}},
		{ID: 2, Parent: 0, Leaves: []topology.NodeID{2}},
		{ID: 3, Parent: 1, Leaves: []topology.NodeID{3, 4}},
		{ID: 4, Parent: 1, Leaves: []topology.NodeID{5, 6}},
		{ID: 5, Parent: 2, Leaves: []topology.NodeID{7, 8}},
	})
}

// sessionModel is what the Manager and the map oracle have in common.
type sessionModel interface {
	Start(root bool)
	SeedZCR(z scoping.ZoneID, n topology.NodeID)
	SetLocalLossReport(frac float64)
	Receive(now eventq.Time, pkt packet.Packet) bool
	ZCR(z scoping.ZoneID) topology.NodeID
	IsZCR(z scoping.ZoneID) bool
	DirectRTT(peer topology.NodeID) (float64, bool)
	EstimateRTT(sender topology.NodeID, ancestors []packet.AncestorRTT) (float64, bool)
	RTTToChainZCR(idx int) (float64, bool)
	MostDistantRTT(z scoping.ZoneID) float64
	AncestorList() []packet.AncestorRTT
	AggregatedReport(z scoping.ZoneID) (float64, uint32)
	ReportersHeard(z scoping.ZoneID) int
	StateSize() int
	CensusTimers() int
}

// observe renders every externally visible quantity of a model; %v
// prints floats shortest-round-trip, so equal strings mean equal bits.
func observe(m sessionModel, h *scoping.Hierarchy, chainLen int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "state=%d timers=%d anc=%v\n", m.StateSize(), m.CensusTimers(), m.AncestorList())
	for z := scoping.ZoneID(0); int(z) < h.NumZones(); z++ {
		loss, members := m.AggregatedReport(z)
		fmt.Fprintf(&b, "z%d zcr=%d is=%v far=%v rr=%v/%d heard=%d\n",
			z, m.ZCR(z), m.IsZCR(z), m.MostDistantRTT(z), loss, members, m.ReportersHeard(z))
	}
	for i := -1; i <= chainLen; i++ {
		rtt, ok := m.RTTToChainZCR(i)
		fmt.Fprintf(&b, "chain%d=%v/%v ", i, rtt, ok)
	}
	for peer := topology.NodeID(-1); peer <= 9; peer++ {
		rtt, ok := m.DirectRTT(peer)
		est, eok := m.EstimateRTT(peer, []packet.AncestorRTT{{ZCR: (peer + 3) % 9, RTT: 0.01}, {ZCR: (peer + 5) % 9, RTT: 0.02}})
		fmt.Fprintf(&b, "\np%d direct=%v/%v est=%v/%v", peer, rtt, ok, est, eok)
	}
	return b.String()
}

// TestManagerMatchesMapOracle drives the Manager and the map-based
// oracle (oracle_test.go) with one seeded stream of session and election
// packets — for chain zones, overheard sibling zones and zones the
// member is no part of — on identical clocks and random streams, and
// requires them to agree after every packet on every accessor and on
// every packet they sent.
func TestManagerMatchesMapOracle(t *testing.T) {
	h := modelZones()
	for _, subject := range []topology.NodeID{3, 1, 0} {
		for seed := uint64(1); seed <= 6; seed++ {
			compareWithOracle(t, h, subject, seed)
		}
	}
}

func compareWithOracle(t *testing.T, h *scoping.Hierarchy, subject topology.NodeID, seed uint64) {
	t.Helper()
	realNet, refNet := &stubNet{h: h}, &stubNet{h: h}
	real := New(subject, realNet, DefaultConfig(), simrand.New(seed).StreamN("session", int(subject)))
	ref := newOracle(subject, refNet, DefaultConfig(), simrand.New(seed).StreamN("session", int(subject)))
	models := [2]sessionModel{real, ref}
	chain := h.ZonesOf(subject)

	rng := rand.New(rand.NewPCG(seed, uint64(subject)))
	peer := func() topology.NodeID { // any node but the subject; 9 is no member
		n := topology.NodeID(rng.IntN(9))
		if n >= subject {
			n++
		}
		return n
	}
	zone := func() int16 {
		if rng.IntN(10) < 7 {
			return int16(chain[rng.IntN(len(chain))])
		}
		return int16(rng.IntN(h.NumZones()))
	}
	if seed%2 == 0 { // designated deployment: an incumbent before Start
		for _, m := range models {
			m.SeedZCR(chain[0], 4)
		}
	}
	for _, m := range models {
		m.Start(subject == 0)
	}

	lastChallenger := map[int16]topology.NodeID{}
	// answer, when set, is the parent ZCR's prompt response to the
	// challenge just heard or sent: without it measured distances are
	// whole seconds and no takeover is ever attempted.
	var answer *packet.ZCRResponse
	now := eventq.Time(0)
	for step := 0; step < 600; step++ {
		if answer != nil {
			now += eventq.Time(0.002 + 0.02*rng.Float64())
		} else {
			now += eventq.Time(rng.Float64() * 0.25)
		}
		realNet.q.RunUntil(now)
		refNet.q.RunUntil(now)

		var pkt packet.Packet
		switch k := rng.IntN(20); {
		case answer != nil:
			pkt, answer = answer, nil
		case k < 11:
			msg := &packet.Session{
				Origin: peer(), Zone: zone(), SentAt: now.Seconds() - 0.01*rng.Float64(),
				ZCR: topology.NoNode, ZCRParentDist: 0.05 * rng.Float64(), MaxSeq: uint32(step),
			}
			switch rng.IntN(4) {
			case 0, 1:
				msg.ZCR = msg.Origin
			case 2:
				msg.ZCR = peer()
			}
			if rng.IntN(3) == 0 {
				msg.RRWorstLoss, msg.RRMembers = rng.Float64(), uint32(1+rng.IntN(5))
			}
			for n := topology.NodeID(0); n <= 9; n++ {
				if n == msg.Origin || rng.IntN(2) == 0 {
					continue
				}
				e := packet.SessionEntry{Peer: n, SinceHeard: 0.005 * rng.Float64(), Echo: now.Seconds() - 0.01 - 0.2*rng.Float64()}
				if rng.IntN(3) > 0 {
					e.RTT = 0.2 * rng.Float64()
				}
				msg.Entries = append(msg.Entries, e)
			}
			pkt = msg
		case k < 14:
			ch := &packet.ZCRChallenge{Origin: peer(), Zone: zone(), SentAt: now.Seconds() - 0.01*rng.Float64()}
			if zcr := real.ZCR(scoping.ZoneID(ch.Zone)); zcr != topology.NoNode && zcr != subject && rng.IntN(2) == 0 {
				ch.Origin = zcr // the incumbent's duty challenge: passive measurement
				answer = &packet.ZCRResponse{Origin: peer(), Zone: ch.Zone, Challenger: zcr}
			}
			lastChallenger[ch.Zone] = ch.Origin
			pkt = ch
		case k < 17:
			rsp := &packet.ZCRResponse{Origin: peer(), Zone: zone(), Challenger: subject, ProcDelay: 0.001 * rng.Float64()}
			if c, ok := lastChallenger[rsp.Zone]; ok && rng.IntN(3) > 0 {
				rsp.Challenger = c
			}
			pkt = rsp
		case k < 19:
			pkt = &packet.ZCRTakeover{Origin: peer(), Zone: zone(), DistToParent: 0.3 * rng.Float64()}
		default:
			frac := rng.Float64()
			for _, m := range models {
				m.SetLocalLossReport(frac)
			}
			continue
		}
		for _, m := range models {
			if !m.Receive(now, pkt) {
				t.Fatalf("subject %d seed %d step %d: %T not consumed", subject, seed, step, pkt)
			}
		}

		if got, want := observe(real, h, len(chain)), observe(ref, h, len(chain)); got != want {
			t.Fatalf("subject %d seed %d step %d after %+v:\nmanager:\n%s\noracle:\n%s", subject, seed, step, pkt, got, want)
		}
		if real.Elections != ref.Elections {
			t.Fatalf("subject %d seed %d step %d: Elections %d, oracle %d", subject, seed, step, real.Elections, ref.Elections)
		}
		if len(realNet.sent) != len(refNet.sent) {
			t.Fatalf("subject %d seed %d step %d: sent %d packets, oracle %d", subject, seed, step, len(realNet.sent), len(refNet.sent))
		}
		for i, want := range refNet.sent {
			switch p := want.Pkt.(type) {
			case *packet.Session: // the oracle lists entries in map order
				sort.Slice(p.Entries, func(a, b int) bool { return p.Entries[a].Peer < p.Entries[b].Peer })
			case *packet.ZCRChallenge:
				if rng.IntN(2) == 0 {
					answer = &packet.ZCRResponse{Origin: peer(), Zone: p.Zone, Challenger: subject}
				}
			}
			if got := realNet.sent[i]; !reflect.DeepEqual(got, want) {
				t.Fatalf("subject %d seed %d step %d: sent %+v %+v, oracle %+v %+v", subject, seed, step, got, got.Pkt, want, want.Pkt)
			}
		}
		realNet.sent, refNet.sent = realNet.sent[:0], refNet.sent[:0]
	}
	if real.StateSize() == 0 || real.Elections == 0 {
		t.Fatalf("subject %d seed %d: stream exercised nothing (state %d, elections %d)", subject, seed, real.StateSize(), real.Elections)
	}
}

// hearPeers feeds m one session message from each of peers, in the order
// given, at its leaf scope; every message echoes m so it also yields an
// RTT sample. zcr, if not NoNode, is announced as the zone's ZCR.
func hearPeers(m *Manager, peers []topology.NodeID, zcr topology.NodeID) {
	now := m.net.Sched().Now()
	for _, p := range peers {
		m.HandleSession(now, &packet.Session{
			Origin: p, Zone: int16(m.chain[0]), SentAt: now.Seconds(), ZCR: zcr,
			Entries: []packet.SessionEntry{
				{Peer: m.node, Echo: now.Seconds() - 0.05, RTT: 0.04},
				{Peer: p + 100, RTT: 0.03},
			},
		})
	}
}

// TestSessionEntriesDeterministic: two members that heard the same
// messages must put the same bytes on the wire — entries ascend by
// NodeID whatever order the peers were heard in. (Emitting them in map
// order made every run of a seed marshal differently.)
func TestSessionEntriesDeterministic(t *testing.T) {
	peers := []topology.NodeID{17, 4, 250, 9, 3, 88, 41, 5, 120, 6, 77, 12, 8, 30, 2, 64}
	var wire [2][]byte
	for i := range wire {
		net := &stubNet{h: scoping.MustBuild([]topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: append([]topology.NodeID{1}, peers...)}})}
		m := New(1, net, DefaultConfig(), simrand.New(1).StreamN("session", 1))
		hearPeers(m, peers, topology.NoNode)
		m.sendSessionFor(net.q.Now(), &m.zones[0])
		msg := net.sent[0].Pkt.(*packet.Session)
		if len(msg.Entries) != len(peers) {
			t.Fatalf("%d entries for %d peers heard", len(msg.Entries), len(peers))
		}
		for j := 1; j < len(msg.Entries); j++ {
			if msg.Entries[j-1].Peer >= msg.Entries[j].Peer {
				t.Fatalf("entries not in ascending NodeID order: %v", msg.Entries)
			}
		}
		var err error
		if wire[i], err = msg.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wire[0], wire[1]) {
		t.Fatal("identically driven managers marshalled different session messages")
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestSteadyStateAllocations pins the per-message path: once a peer is
// known, hearing it again allocates nothing; re-arming a watchdog
// allocates nothing (every timer re-arms the Manager's one callback);
// building a session message allocates nothing (the message and its
// entries are carved from a pooled arena's blocks, one block per 256
// messages or 2,048 entries).
func TestSteadyStateAllocations(t *testing.T) {
	net := &stubNet{h: modelZones()}
	net.q.RunUntil(10) // a clock past zero, so echoes carry valid timestamps
	m := New(3, net, DefaultConfig(), simrand.New(7).StreamN("session", 3))
	m.Start(false)
	hearPeers(m, []topology.NodeID{4, 1, 0}, 4) // 4 becomes the leaf-zone ZCR
	leaf := &m.zones[0]
	if leaf.zcr != 4 || m.StateSize() != 3+2 {
		t.Fatalf("set-up: leaf ZCR %d, state %d; want ZCR 4 and 3 direct + 2 link entries", leaf.zcr, m.StateSize())
	}
	// Under the race detector sync.Pool drops a quarter of its Puts, and
	// the next message takes a new arena and new blocks.
	sendMax := 0.0
	if raceEnabled {
		sendMax = 1
	}
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"HandleSession from a known peer", 0, func() { hearPeers(m, []topology.NodeID{1, 0}, 4) }},
		{"HandleSession from the zone's ZCR (watchdog re-arm, link table refresh)", 0, func() { hearPeers(m, []topology.NodeID{4}, 4) }},
		{"watchdog re-arm", 0, func() { m.resetWatchdog(leaf) }},
		{"sendSessionFor", sendMax, func() { net.sent = net.sent[:0]; m.sendSessionFor(net.q.Now(), leaf) }},
	} {
		c.fn() // warm: callback built, queue free list filled
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %v allocs per run, want ≤ %v", c.name, got, c.max)
		}
	}
}

// deepZones is a four-zone chain, Z0 {0} — Z1 {1} — Z2 {2} — Z3 {3,4}:
// node 3's chain has three zones below the root.
func deepZones() *scoping.Hierarchy {
	return scoping.MustBuild([]topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1}},
		{ID: 2, Parent: 1, Leaves: []topology.NodeID{2}},
		{ID: 3, Parent: 2, Leaves: []topology.NodeID{3, 4}},
	})
}

// scopeSpeakers lists who speaks at zone z's scope: its own leaves and
// one ZCR (the first leaf) per child zone.
func scopeSpeakers(h *scoping.Hierarchy, z scoping.ZoneID) []topology.NodeID {
	speakers := slices.Clone(h.Leaves(z))
	for _, c := range h.Children(z) {
		speakers = append(speakers, h.Leaves(c)[0])
	}
	return speakers
}

// TestSessionTablesSettleWithoutRegrowth: every session table is made at
// its final size from the hierarchy. A member whose leaf ZCR's
// announcements grow from one entry to the full scope of the two zones
// that ZCR announces into keeps the link table made at first sight, and
// every chain zone keeps the heard table New made while the zone's scope
// speaks. A member that takes ZCR duty grows its direct RTT table once,
// when it takes the duty, and not again as echoes arrive from both zones
// it then speaks in. New itself costs five allocations whatever the
// chain's depth.
func TestSessionTablesSettleWithoutRegrowth(t *testing.T) {
	deep := deepZones()
	if n := len(deep.ZonesOf(3)); n != 4 {
		t.Fatalf("set-up: chain of %d zones, want 4", n)
	}
	dnet := &stubNet{h: deep}
	rng := simrand.New(7).StreamN("session", 3)
	if got := testing.AllocsPerRun(100, func() { New(3, dnet, DefaultConfig(), rng) }); got > 5 {
		t.Errorf("New on a 4-zone chain: %v allocs, want ≤ 5", got)
	}

	h := modelZones()
	net := &stubNet{h: h}
	net.q.RunUntil(10)
	m := New(3, net, DefaultConfig(), simrand.New(7).StreamN("session", 3))
	const zcr = 4
	m.SeedZCR(m.chain[0], zcr)
	heard := make([]*row[heardPeer], len(m.chain))
	for i := range m.chain {
		heard[i] = unsafe.SliceData(m.zones[i].heard)
	}
	now := net.q.Now()

	// Each chain zone hears its scope.
	for _, z := range m.chain {
		for _, p := range scopeSpeakers(h, z) {
			if p != m.node {
				m.HandleSession(now, &packet.Session{Origin: p, Zone: int16(z), SentAt: now.Seconds(), ZCR: topology.NoNode})
			}
		}
	}

	full := cap(m.zones[0].heard) + cap(m.zones[1].heard)
	var peers []topology.NodeID
	for n := topology.NodeID(0); len(peers) < full; n++ {
		if n != zcr {
			peers = append(peers, n)
		}
	}
	var links *row[float64]
	for k := 1; k <= full; k++ {
		msg := &packet.Session{Origin: zcr, Zone: int16(m.chain[k%2]), SentAt: now.Seconds(), ZCR: zcr}
		for _, p := range peers[:k] {
			msg.Entries = append(msg.Entries, packet.SessionEntry{Peer: p, RTT: 0.01 * float64(p+1)})
		}
		m.HandleSession(now, msg)
		l := m.linksOf(zcr)
		if l == nil {
			t.Fatalf("announcement %d: no link table for ZCR %d", k, zcr)
		}
		if k == 1 {
			links = unsafe.SliceData(*l)
		} else if unsafe.SliceData(*l) != links {
			t.Fatalf("announcement of %d entries regrew the link table (cap now %d)", k, cap(*l))
		}
		for i := range m.chain {
			if unsafe.SliceData(m.zones[i].heard) != heard[i] {
				t.Fatalf("announcement %d: zone %d's heard table regrew", k, m.chain[i])
			}
		}
	}
	if l := m.linksOf(zcr); len(*l) != full {
		t.Fatalf("link table holds %d rows, want %d", len(*l), full)
	}

	// A ZCR of the leaf zone announces into it and its parent, and every
	// peer there echoes it.
	z := New(3, net, DefaultConfig(), simrand.New(7).StreamN("session", 3))
	z.SeedZCR(z.chain[0], z.node)
	direct := unsafe.SliceData(z.direct)
	var sampled []topology.NodeID
	for _, scope := range z.chain[:2] {
		for _, p := range scopeSpeakers(h, scope) {
			if p == z.node {
				continue
			}
			sampled = append(sampled, p)
			z.HandleSession(now, &packet.Session{
				Origin: p, Zone: int16(scope), SentAt: now.Seconds(), ZCR: topology.NoNode,
				Entries: []packet.SessionEntry{{Peer: z.node, Echo: now.Seconds() - 0.02}},
			})
			if unsafe.SliceData(z.direct) != direct {
				t.Fatalf("the echo of peer %d at zone %d regrew the ZCR's direct table (cap now %d)", p, scope, cap(z.direct))
			}
		}
	}
	if len(z.direct) != len(sampled) {
		t.Fatalf("direct table holds %d peers, want %d (%v)", len(z.direct), len(sampled), sampled)
	}
}

// TestHeardSharesStayIsolated: the chain zones' heard tables are shares
// of one backing. A zone that hears more distinct origins than its scope
// holds — as a stream of arbitrary origins can make it — must reallocate
// alone and leave the neighbouring zones' rows and lengths untouched.
func TestHeardSharesStayIsolated(t *testing.T) {
	h := modelZones()
	net := &stubNet{h: h}
	net.q.RunUntil(10)
	m := New(3, net, DefaultConfig(), simrand.New(7).StreamN("session", 3))
	hear := func(z scoping.ZoneID, origins ...topology.NodeID) {
		for _, o := range origins {
			m.HandleSession(net.q.Now(), &packet.Session{
				Origin: o, Zone: int16(z), SentAt: 9.5 + float64(o), ZCR: topology.NoNode,
				RRWorstLoss: 0.1 * float64(o), RRMembers: uint32(o + 1),
			})
		}
	}
	rowBytes := func(t table[heardPeer]) []byte {
		return bytes.Clone(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t))), len(t)*int(unsafe.Sizeof(row[heardPeer]{}))))
	}
	// Fill the two upper zones' shares to capacity.
	hear(m.chain[1], 1, 4, 5)
	hear(m.chain[2], 0, 1, 2)
	type snap struct {
		data *row[heardPeer]
		n    int
		rows []byte
	}
	var before []snap
	for i := 1; i < len(m.chain); i++ {
		hz := m.zones[i].heard
		if z := m.chain[i]; len(hz) != len(h.Leaves(z))+len(h.Children(z)) {
			t.Fatalf("set-up: zone %d's scope is not full (%d rows)", z, len(hz))
		}
		before = append(before, snap{unsafe.SliceData(hz), len(hz), rowBytes(hz)})
	}

	leaf := &m.zones[0]
	share := unsafe.SliceData(leaf.heard)
	origins := []topology.NodeID{0, 1, 2, 4, 5, 6, 7, 8}
	if len(origins) <= len(h.Members(m.chain[0])) {
		t.Fatalf("set-up: %d origins do not outnumber the leaf zone's members", len(origins))
	}
	hear(m.chain[0], origins...)
	for i, b := range before {
		hz := m.zones[i+1].heard
		if unsafe.SliceData(hz) != b.data || len(hz) != b.n || !bytes.Equal(rowBytes(hz), b.rows) {
			t.Fatalf("zone %d's rows changed when the leaf zone outgrew its share", m.chain[i+1])
		}
	}
	if len(leaf.heard) != len(origins) || unsafe.SliceData(leaf.heard) == share {
		t.Fatalf("leaf zone holds %d rows in its first share; want %d rows, reallocated", len(leaf.heard), len(origins))
	}
}
