package census

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// twoLevelChain is a 0—1—2—3 chain with {1,2,3} in a child zone: link
// 0 crosses the child-zone boundary, links 1 and 2 are internal to it,
// and nothing ever crosses the root (it contains every node).
func twoLevelChain() *topology.Spec {
	spec := topology.Chain(4, 10e6, 0.010, 0)
	spec.Zones = []topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1, 2, 3}},
	}
	return spec
}

func newTestEngine(t *testing.T) (*Engine, *topology.Spec) {
	t.Helper()
	spec := twoLevelChain()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	e := New(telemetry.NewRegistry(), h, spec.Graph.NumNodes())
	e.BindLinks(spec.Graph)
	return e, spec
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		pkt  packet.Packet
		want Class
	}{
		{&packet.Data{}, ClassData},
		{&packet.NACK{}, ClassNACK},
		{&packet.Repair{}, ClassRepair},
		{&packet.Repair{Preemptive: true}, ClassFEC},
		{&packet.Session{}, ClassControl},
		{&packet.ZCRChallenge{}, ClassControl},
	}
	for _, c := range cases {
		if got := ClassOf(c.pkt); got != c.want {
			t.Errorf("ClassOf(%T) = %v, want %v", c.pkt, got, c.want)
		}
	}
}

func TestObserveHopBoundaryAttribution(t *testing.T) {
	e, _ := newTestEngine(t)
	d := &packet.Data{Payload: make([]byte, 100)}

	e.ObserveHop(0, 0, d) // 0→1 crosses the child-zone boundary
	e.ObserveHop(1, 0, d) // 1→2 is internal to the child zone
	e.ObserveHop(1, 1, d) // reverse direction counts too

	if got := e.LinkPkts(ClassData); got != 3 {
		t.Fatalf("LinkPkts(data) = %d, want 3", got)
	}
	if pkts, bytes := e.ZoneBoundary(1); pkts != 1 || bytes != int64(d.WireSize()) {
		t.Fatalf("child-zone boundary = (%d pkts, %d bytes), want (1, %d)", pkts, bytes, d.WireSize())
	}
	if pkts, _ := e.ZoneBoundary(0); pkts != 0 {
		t.Fatalf("root boundary crossed %d times; the root contains every node", pkts)
	}
	if got := e.BoundaryPktsAtLevel(1, ClassData); got != 1 {
		t.Fatalf("BoundaryPktsAtLevel(1, data) = %d, want 1", got)
	}

	// Out-of-range hops are dropped, not counted or panicked on.
	e.ObserveHop(-1, 0, d)
	e.ObserveHop(99, 0, d)
	e.ObserveHop(0, 2, d)
	if got := e.LinkPkts(ClassData); got != 3 {
		t.Fatalf("out-of-range hops changed the matrix: %d", got)
	}
}

// TestBindLinksMatchesMembershipDefinition checks the chain-difference
// construction against the definition it replaces: a link crosses zone z
// when exactly one endpoint is a member of z, zones in ascending order.
func TestBindLinksMatchesMembershipDefinition(t *testing.T) {
	for _, spec := range []*topology.Spec{
		topology.Figure10(topology.Figure10Params{}),
		topology.National(topology.NationalParams{Regions: 3, Cities: 3, Suburbs: 3, SubscribersPerSuburb: 3}, 10e6, 0.010, 0),
	} {
		h, err := scoping.Build(spec.Zones)
		if err != nil {
			t.Fatal(err)
		}
		e := New(telemetry.NewRegistry(), h, spec.Graph.NumNodes())
		e.BindLinks(spec.Graph)
		crossings := 0
		for li := 0; li < spec.Graph.NumLinks(); li++ {
			l := spec.Graph.Link(li)
			var want []scoping.ZoneID
			for z := scoping.ZoneID(0); int(z) < h.NumZones(); z++ {
				if h.Contains(z, l.A) != h.Contains(z, l.B) {
					want = append(want, z)
				}
			}
			if !slices.Equal(e.boundary[li], want) {
				t.Fatalf("%s link %d (%d—%d): crossed %v, want %v", spec.Name, li, l.A, l.B, e.boundary[li], want)
			}
			crossings += len(want)
		}
		if crossings == 0 {
			t.Fatalf("%s: no link crosses any boundary; the comparison is vacuous", spec.Name)
		}
	}
}

func TestSinkClassifiesBusEvents(t *testing.T) {
	e, _ := newTestEngine(t)
	sink := e.Sink()
	sink(telemetry.Event{Kind: telemetry.KindPacketSent, Zone: 1,
		A: int64(packet.TypeData), B: 512})
	sink(telemetry.Event{Kind: telemetry.KindPacketSent, Zone: 1,
		A: int64(packet.TypeSession), B: 64})
	sink(telemetry.Event{Kind: telemetry.KindPacketDelivered, Zone: 1,
		A: int64(packet.TypeRepair)})
	sink(telemetry.Event{Kind: telemetry.KindRepairInjected, Zone: 1, A: 5})
	// Events outside the zone table are ignored.
	sink(telemetry.Event{Kind: telemetry.KindPacketSent, Zone: scoping.NoZone,
		A: int64(packet.TypeData), B: 1})
	sink(telemetry.Event{Kind: telemetry.KindPacketSent, Zone: 99,
		A: int64(packet.TypeData), B: 1})

	s := e.Summarize()
	if s.FECShares != 5 {
		t.Fatalf("FECShares = %d, want 5", s.FECShares)
	}
}

func TestSnapshotAggregatesProbesByZone(t *testing.T) {
	e, _ := newTestEngine(t)
	// Node 0 lives only in the root; node 2 in root and child zone.
	e.SetProbe(0, ProbeFunc(func() State {
		return State{Groups: 1, Timers: 2, SessionEntries: 3}
	}))
	e.SetProbe(2, ProbeFunc(func() State {
		return State{Groups: 10, Timers: 20, RepairQueue: 1, ResidentBytes: 4096, SessionEntries: 30, MemBytes: 6000}
	}))
	e.Snapshot(1)

	groups, timers, repairQ, resident, rtt := e.ZoneCensus(0)
	if groups != 11 || timers != 22 || repairQ != 1 || resident != 4096 || rtt != 33 {
		t.Fatalf("root census = (%d,%d,%d,%d,%d), want (11,22,1,4096,33)", groups, timers, repairQ, resident, rtt)
	}
	groups, timers, _, _, rtt = e.ZoneCensus(1)
	if groups != 10 || timers != 20 || rtt != 30 {
		t.Fatalf("child census = (%d,%d,rtt %d), want (10,20,30)", groups, timers, rtt)
	}
	// Memory footprint: the root holds both probed members (6000 bytes
	// over 2), the child only the one reporting 6000.
	if mem, per := e.ZoneMemory(0); mem != 6000 || per != 3000 {
		t.Fatalf("root memory = (%d, %.0f), want (6000, 3000)", mem, per)
	}
	if mem, per := e.ZoneMemory(1); mem != 6000 || per != 6000 {
		t.Fatalf("child memory = (%d, %.0f), want (6000, 6000)", mem, per)
	}
	if got := e.PeakSessionEntries(); got != 30 {
		t.Fatalf("PeakSessionEntries = %d, want 30", got)
	}

	// Probes can be replaced (crash/restart) and removed.
	e.SetProbe(2, nil)
	e.Snapshot(2)
	if groups, _, _, _, _ := e.ZoneCensus(1); groups != 0 {
		t.Fatalf("removed probe still contributes: groups = %d", groups)
	}
	// Peak is a high-water mark: it survives the probe's removal.
	if got := e.PeakSessionEntries(); got != 30 {
		t.Fatalf("peak dropped to %d after probe removal", got)
	}
	if n := len(e.Epochs()); n != 2 {
		t.Fatalf("epoch history has %d rows, want 2", n)
	}
}

// stateAgent is a protocol agent that reports its own State, as core's
// *Agent does.
type stateAgent struct{ st State }

func (a *stateAgent) StateCensus() State { return a.st }

// TestSetProbeOfAnAgentAllocatesNothing: an agent that reports its own
// State is its probe, so registering it (as the data driver does for
// every node it spawns) costs no closure, and the snapshot reads it.
func TestSetProbeOfAnAgentAllocatesNothing(t *testing.T) {
	e, _ := newTestEngine(t)
	ag := &stateAgent{State{Groups: 4, SessionEntries: 7}}
	if allocs := testing.AllocsPerRun(100, func() { e.SetProbe(2, ag) }); allocs != 0 {
		t.Errorf("SetProbe(node, agent): %v allocations, want 0", allocs)
	}
	e.Snapshot(1)
	if groups, _, _, _, rtt := e.ZoneCensus(1); groups != 4 || rtt != 7 {
		t.Fatalf("child census = (groups %d, rtt %d), want (4, 7)", groups, rtt)
	}
}

func TestSnapshotQueueGauges(t *testing.T) {
	e, _ := newTestEngine(t)
	var q eventq.Queue
	e.BindQueue(&q)
	for i := 0; i < 10; i++ {
		q.At(eventq.Time(i), func(eventq.Time) {})
	}
	q.RunUntil(5) // dispatches events scheduled before t=5
	e.Snapshot(5)
	q.RunUntil(20)
	e.Snapshot(10)

	rows := e.Epochs()
	if len(rows) != 2 {
		t.Fatalf("epochs = %d, want 2", len(rows))
	}
	last := rows[1].Queue
	if last.Dispatched != 10 {
		t.Fatalf("dispatched = %d, want 10", last.Dispatched)
	}
	if last.FireRate <= 0 {
		t.Fatalf("fire rate %v not computed on second epoch", last.FireRate)
	}
	if last.Depth != 0 {
		t.Fatalf("depth = %d after draining", last.Depth)
	}
	s := e.Summarize()
	if s.Epochs != 2 || s.Queue != last {
		t.Fatalf("summary queue snapshot %+v != last epoch %+v", s.Queue, last)
	}
}

// TestSnapshotSumsShardQueues: a census bound to several shard queues
// reads their summed shape, as one queue holding every event would.
func TestSnapshotSumsShardQueues(t *testing.T) {
	e, _ := newTestEngine(t)
	var a, b eventq.Queue
	e.BindQueue(&a, &b)
	for i := 0; i < 6; i++ {
		a.At(eventq.Time(i), func(eventq.Time) {})
		b.At(eventq.Time(2*i), func(eventq.Time) {})
	}
	a.RunUntil(3) // 4 of a's 6
	b.RunUntil(3) // 2 of b's 6
	e.Snapshot(3)
	if q := e.Epochs()[0].Queue; q.Dispatched != 6 || q.Depth != 6 || q.Free != a.FreeLen()+b.FreeLen() {
		t.Fatalf("queue shape %+v, want 6 dispatched, depth 6, free %d", q, a.FreeLen()+b.FreeLen())
	}
}

// TestConcurrentIngest exercises the lock-free ingest paths against
// concurrent snapshots and probe swaps — the live-node shape, where
// the census ticker runs on its own goroutine. Run under -race in CI.
func TestConcurrentIngest(t *testing.T) {
	e, spec := newTestEngine(t)
	d := &packet.Data{Payload: make([]byte, 64)}
	sink := e.Sink()
	nLinks := spec.Graph.NumLinks()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				e.ObserveHop(i%nLinks, i&1, d)
				sink(telemetry.Event{Kind: telemetry.KindRepairInjected, Zone: 1, A: 1})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			e.SetProbe(2, ProbeFunc(func() State { return State{SessionEntries: int64(i)} }))
			e.Snapshot(float64(i))
			e.Summarize()
		}
	}()
	wg.Wait()

	if got := e.LinkPkts(ClassData); got != 4*2000 {
		t.Fatalf("LinkPkts(data) = %d, want %d", got, 4*2000)
	}
	if got := e.Summarize().FECShares; got != 4*2000 {
		t.Fatalf("FECShares = %d, want %d", got, 4*2000)
	}
}

// TestIngestZeroAlloc pins the hot-path guarantee: ObserveHop and the
// bus sink allocate nothing in steady state.
func TestIngestZeroAlloc(t *testing.T) {
	e, _ := newTestEngine(t)
	d := &packet.Data{Payload: make([]byte, 64)}
	sink := e.Sink()
	ev := telemetry.Event{Kind: telemetry.KindRepairInjected, Zone: 1, A: 1}
	if avg := testing.AllocsPerRun(200, func() {
		e.ObserveHop(0, 0, d)
		sink(ev)
	}); avg != 0 {
		t.Fatalf("ingest allocates %v per op, want 0", avg)
	}
}

// TestPromHelpCoversExposition renders the registry a live node
// exports — the Metrics bridge and the census on one registry, with the
// lazily created health counters present — and checks the curated HELP
// table against it both ways: every exposed family has a HELP line, and
// every HELP entry names a family that is exposed.
func TestPromHelpCoversExposition(t *testing.T) {
	spec := twoLevelChain()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics(nil, h, spec.Graph.NumNodes())
	New(m.Reg, h, spec.Graph.NumNodes())
	sink := m.Sink()
	sink(telemetry.Event{Kind: telemetry.KindHealthAlert, Node: topology.NoNode, Zone: 1})
	sink(telemetry.Event{Kind: telemetry.KindHealthClear, Node: topology.NoNode, Zone: 1})

	var buf bytes.Buffer
	if err := m.Reg.WritePrometheusMeta(&buf, telemetry.PromHelp); err != nil {
		t.Fatal(err)
	}
	typed, helped := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "#" {
			continue
		}
		switch f[1] {
		case "TYPE":
			typed[f[2]] = true
		case "HELP":
			helped[f[2]] = true
		}
	}
	if len(typed) == 0 {
		t.Fatal("exposition has no # TYPE lines")
	}
	for fam := range typed {
		if !helped[fam] {
			t.Errorf("family %s has # TYPE but no # HELP", fam)
		}
	}
	for name := range telemetry.PromHelp {
		if !typed["sharqfec_"+name] && !typed["sharqfec_"+name+"_total"] {
			t.Errorf("PromHelp entry %q names no exposed family", name)
		}
	}
}

// TestSetUpAllocationsDoNotGrowWithZones: New's per-zone names are made
// once and BindLinks carves every link's boundary set from one backing,
// so the engine's own set-up costs the same allocations on a national
// hierarchy of 1,111 zones and 10,110 links as on one of 15 zones and 22
// links. The registry already holds the zones' cells here; cutting them
// is the registry's cost (TestRegistryCellsComeFromBlocks).
func TestSetUpAllocationsDoNotGrowWithZones(t *testing.T) {
	allocs := func(fan int) float64 {
		spec := topology.National(topology.NationalParams{Regions: fan, Cities: fan, Suburbs: fan, SubscribersPerSuburb: fan}, 10e6, 0.01, 0)
		h := scoping.MustBuild(spec.Zones)
		reg := telemetry.NewRegistry()
		New(reg, h, spec.Graph.NumNodes())
		return testing.AllocsPerRun(3, func() {
			New(reg, h, spec.Graph.NumNodes()).BindLinks(spec.Graph)
		})
	}
	if small, large := allocs(2), allocs(10); large > small {
		t.Fatalf("New+BindLinks: %v allocs at 15 zones, %v at 1,111", small, large)
	}

	// On a fresh registry, as every pass of a scaling sweep makes, New
	// sizes the registry's maps once for the instruments it registers:
	// beyond a registry so sized and the cell blocks it cuts, New costs a
	// constant.
	spec := topology.National(topology.NationalParams{Regions: 10, Cities: 10, Suburbs: 10, SubscribersPerSuburb: 10}, 10e6, 0.01, 0)
	h := scoping.MustBuild(spec.Zones)
	perZone := int(NumClasses) + 2 // counters a zone registers, and as many gauges
	fresh := testing.AllocsPerRun(3, func() { New(telemetry.NewRegistry(), h, spec.Graph.NumNodes()) })
	sized := testing.AllocsPerRun(3, func() { telemetry.NewRegistry().Reserve(perZone*h.NumZones(), perZone*h.NumZones()) })
	cells := 2 * math.Ceil(float64(perZone*h.NumZones())/64) // 64 cells to a block
	if extra := fresh - sized - cells; extra > 8 {
		t.Errorf("New on a fresh registry at %d zones: %v allocs, %v beyond a sized registry (%v) and the %v cell blocks, want at most 8",
			h.NumZones(), fresh, extra, sized, cells)
	}
	t.Logf("New on a fresh registry at %d zones: %v allocs: a sized registry %v, cell blocks %v", h.NumZones(), fresh, sized, cells)
}
