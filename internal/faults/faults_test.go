package faults

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// recorder logs deliveries so tests can compare runs byte-for-byte.
type recorder struct {
	got []arrival
}

type arrival struct {
	at  eventq.Time
	seq uint32
}

func (r *recorder) Receive(now eventq.Time, d Delivery) {
	if dp, ok := d.Pkt.(*packet.Data); ok {
		r.got = append(r.got, arrival{at: now, seq: dp.Seq})
	} else {
		r.got = append(r.got, arrival{at: now})
	}
}

// Delivery aliased locally to keep the recorder's signature readable.
type Delivery = netsim.Delivery

// build wires a network over a spec with a recorder on every member.
func build(t *testing.T, spec *topology.Spec, seed uint64) (*netsim.Network, *simrand.Source, map[topology.NodeID]*recorder) {
	t.Helper()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	var q eventq.Queue
	src := simrand.New(seed)
	n := netsim.New(&q, spec.Graph, h, src)
	recs := map[topology.NodeID]*recorder{}
	for _, m := range spec.Members() {
		r := &recorder{}
		recs[m] = r
		n.Attach(m, r)
	}
	return n, src, recs
}

// mustParse reads a plan from plan-file text.
func mustParse(t testing.TB, text string) *Plan {
	t.Helper()
	p, err := ParsePlan(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// lossyChain is a four-node chain whose three links lose 0, 0.6 and 1
// of their packets in each direction.
func lossyChain() *topology.Spec {
	spec := topology.Chain(4, 1e6, 0.010, 0)
	spec.Graph = topology.New(4)
	for i, loss := range []float64{0, 0.6, 1} {
		spec.Graph.AddLink(topology.NodeID(i), topology.NodeID(i+1), 1e6, 0.010, loss)
	}
	return spec
}

func dataPkt(seq uint32) *packet.Data {
	return &packet.Data{Origin: 0, Seq: seq, Group: 0, Index: 0, GroupK: 16, Payload: make([]byte, 1000)}
}

func TestParsePlanRoundTrip(t *testing.T) {
	const text = `
# backbone flap during a crash
10.5 link-down 3
12.0 link-up 3   # recovery
9.0  crash 8
20.0 restart 8
9.5  leave 17
10.0 partition-zone 2
14.0 heal-zone 2
0    gilbert-link 3 0.08 6
0    gilbert-all 0.08 6
0    gilbert-equal-mean 6
`
	p, err := ParsePlan(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Events: []Event{
		{At: 10.5, Kind: LinkDown, Link: 3},
		{At: 12, Kind: LinkUp, Link: 3},
		{At: 9, Kind: Crash, Node: 8},
		{At: 20, Kind: Restart, Node: 8},
		{At: 9.5, Kind: Leave, Node: 17},
		{At: 10, Kind: PartitionZone, Zone: 2},
		{At: 14, Kind: HealZone, Zone: 2},
		{Kind: GilbertLink, Link: 3, MeanLoss: 0.08, BurstLen: 6},
		{Kind: GilbertAll, MeanLoss: 0.08, BurstLen: 6},
		{Kind: GilbertEqualMean, BurstLen: 6},
	}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed plan mismatch:\n got %+v\nwant %+v", p.Events, want.Events)
	}
	// Event.String must reparse to the same event.
	var b strings.Builder
	for _, ev := range p.Events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	p2, err := ParsePlan(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("reparsing String output: %v", err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("String round-trip mismatch:\n got %+v\nwant %+v", p2.Events, p.Events)
	}
}

func TestParsePlanErrors(t *testing.T) {
	cases := []struct{ text, wantSub string }{
		{"1.0 melt-down 3", "line 1"},
		{"x link-down 3", "bad time"},
		{"1.0 link-down", "1 argument"},
		{"1.0 link-down a", "bad integer"},
		{"1.0 gilbert-link 3 0.08", "3 argument"},
		{"1.0 crash 1 2", "1 argument"},
		{"NaN link-down 3", "bad time"},
		{"+Inf link-down 3", "bad time"},
		{"1.0 gilbert-all NaN 6", "bad number"},
		{"1.0 gilbert-all 0.08 Inf", "bad number"},
		{"1.0 gilbert-equal-mean -Inf", "bad number"},
		{"9 crash 8\n10\n", "line 2: missing event keyword"},
	}
	for _, c := range cases {
		if _, err := ParsePlan(strings.NewReader(c.text)); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePlan(%q) err = %v, want substring %q", c.text, err, c.wantSub)
		}
	}
}

// parseSeeds seed both plan fuzzers' corpora.
var parseSeeds = []string{
	"10",
	"10.5 link-down 3\n12 link-up 3 # recovery",
	"9 crash 8\n20 restart 8\n9.5 leave 17",
	"10 partition-zone 2\n14 heal-zone 2",
	"0 gilbert-link 3 0.08 6\n0 gilbert-all 0.08 6\n0 gilbert-equal-mean 6",
	"-0 crash 4294967297",
}

// FuzzParsePlan: parsing never panics, and every accepted plan re-parses
// from its events' String lines to the same events.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(strings.NewReader(text))
		if err != nil {
			return
		}
		var b strings.Builder
		for _, ev := range p.Events {
			b.WriteString(ev.String())
			b.WriteByte('\n')
		}
		again, err := ParsePlan(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("reparsing %q: %v", b.String(), err)
		}
		if !reflect.DeepEqual(p.Events, again.Events) {
			t.Fatalf("String round trip:\n got %+v\nwant %+v", again.Events, p.Events)
		}
	})
}

// FuzzPlanApplies: a plan that validates against a network applies to
// it. The target parses the input, validates it against lossyChain, then
// starts an engine on a fresh network and runs the queue to the last
// event; it fails only on a panic.
func FuzzPlanApplies(f *testing.F) {
	// An equal-mean burst over the loss-1 link, and a mean no burst of
	// length 1 reaches.
	for _, seed := range append([]string{"0 gilbert-equal-mean 4", "0 gilbert-link 1 0.8 1"}, parseSeeds...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(strings.NewReader(text))
		if err != nil {
			return
		}
		spec := lossyChain()
		n, src, _ := build(t, spec, 1)
		if p.Validate(n.G, n.H) != nil {
			return
		}
		if err := NewEngine(n, src, p).Start(); err != nil {
			t.Fatalf("Start refused a validated plan: %v", err)
		}
		n.Q.Run()
	})
}

func TestValidate(t *testing.T) {
	spec := topology.Chain(4, 1e6, 0.010, 0)
	h := scoping.MustBuild(spec.Zones)
	g := spec.Graph
	bad := []*Plan{
		mustParse(t, "1 link-down 99"),
		mustParse(t, "-1 link-down 0"),
		mustParse(t, "1 crash 99"),
		mustParse(t, "1 leave 0\n1 leave 99"),
		mustParse(t, "1 partition-zone 7"),
		// A departed member is outside every zone: it cannot restart.
		mustParse(t, "1 crash 2\n1 leave 2\n2 restart 2"),
		mustParse(t, "1 leave 2\n1 restart 2"),
		// A restart revives a crashed member: a live one would run two
		// agents on one node.
		mustParse(t, "1 restart 2"),
		mustParse(t, "1 crash 2\n2 restart 2\n3 restart 2"),
		mustParse(t, "1 restart 2\n1 crash 2"),
		mustParse(t, "1 gilbert-link 0 1 6"),
		mustParse(t, "1 gilbert-all 0.1 0.5"),
		mustParse(t, "1 gilbert-equal-mean 0"),
		// Means no chain of that burst length can reach (at most
		// burstLen/(1+burstLen), here 0.5).
		mustParse(t, "0 gilbert-link 0 0.8 1"),
		mustParse(t, "0 gilbert-all 0.6 1"),
		// Non-finite floats must not slip through the range checks:
		// NaN fails every ordinary comparison, so "x < 0" style guards
		// would wave it through. The parser refuses them, so these are
		// struct literals.
		{Events: []Event{{At: math.NaN(), Kind: LinkDown}}},
		{Events: []Event{{At: math.Inf(1), Kind: Crash, Node: 1}}},
		{Events: []Event{{At: 1, Kind: GilbertAll, MeanLoss: math.NaN(), BurstLen: 6}}},
		{Events: []Event{{At: 1, Kind: GilbertAll, MeanLoss: 0.1, BurstLen: math.Inf(1)}}},
		{Events: []Event{{At: 1, Kind: GilbertEqualMean, BurstLen: math.NaN()}}},
	}
	for i, p := range bad {
		if err := p.Validate(g, h); err == nil {
			t.Errorf("plan %d (%v) validated, want error", i, p.Events)
		}
	}
	ok := mustParse(t, "0 link-down 2\n3 link-up 2\n1 crash 3\n2 leave 1\n0 gilbert-equal-mean 6\n"+
		"1 crash 2\n2 restart 2\n2 leave 2\n3 crash 3\n3 restart 3")
	if err := ok.Validate(g, h); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}

	// An equal-mean burst takes each direction's own loss as its mean,
	// so those must be feasible too; the error names the direction.
	lossy := lossyChain()
	lh := scoping.MustBuild(lossy.Zones)
	for _, c := range []struct{ text, want string }{
		{"0 gilbert-equal-mean 4", "link 2 direction 2->3: mean loss 1 outside [0,1)"},
		{"0 gilbert-equal-mean 1", "link 1 direction 1->2: mean loss 0.6 above 0.5"},
	} {
		if err := mustParse(t, c.text).Validate(lossy.Graph, lh); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q on the lossy chain: error %v, want one containing %q", c.text, err, c.want)
		}
	}
	if err := mustParse(t, "0 gilbert-link 1 0.6 4").Validate(lossy.Graph, lh); err != nil {
		t.Errorf("feasible burst on the lossy chain rejected: %v", err)
	}
}

func TestGilbertBurstCalibration(t *testing.T) {
	const meanLoss, burstLen = 0.1, 5.0
	m, err := NewBurst(simrand.New(7).Stream("test"), meanLoss, burstLen)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	drops, bursts, run := 0, 0, 0
	var runs []int
	for i := 0; i < n; i++ {
		if m.Drop() {
			drops++
			run++
		} else if run > 0 {
			bursts++
			runs = append(runs, run)
			run = 0
		}
	}
	gotMean := float64(drops) / n
	if math.Abs(gotMean-meanLoss) > 0.01 {
		t.Errorf("mean loss %.4f, want %.2f ± 0.01", gotMean, meanLoss)
	}
	sum := 0
	for _, r := range runs {
		sum += r
	}
	gotBurst := float64(sum) / float64(bursts)
	if math.Abs(gotBurst-burstLen) > 0.5 {
		t.Errorf("mean burst length %.2f, want %.1f ± 0.5", gotBurst, burstLen)
	}
	if _, err := NewBurst(nil, 1.0, 5); err == nil {
		t.Error("NewBurst(mean=1) succeeded, want error")
	}
	if _, err := NewBurst(nil, 0.1, 0.5); err == nil {
		t.Error("NewBurst(burst=0.5) succeeded, want error")
	}
	// Above burstLen/(1+burstLen) the chain cannot reach the mean: at
	// burst 1 a mean of 0.8 used to be built and lose only 0.5.
	if _, err := NewBurst(nil, 0.8, 1); err == nil {
		t.Error("NewBurst(mean=0.8, burst=1) succeeded, want error")
	}
}

// TestLinkDownReroutes drops the direct link of a triangle and checks the
// route recomputes through the longer path.
func TestLinkDownReroutes(t *testing.T) {
	g := topology.New(3)
	g.AddLink(0, 1, 1e6, 0.010, 0)           // link 0
	g.AddLink(1, 2, 1e6, 0.010, 0)           // link 1
	direct := g.AddLink(0, 2, 1e6, 0.005, 0) // link 2: shortest 0→2
	spec := &topology.Spec{
		Graph:     g,
		Source:    0,
		Receivers: []topology.NodeID{1, 2},
		Zones:     []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, 1, 2}}},
	}
	n, src, recs := build(t, spec, 1)
	eng := NewEngine(n, src, &Plan{Events: []Event{{At: 1, Kind: LinkDown, Link: direct}}})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// Before the fault: 2 hears via the 5 ms direct link.
	n.Q.At(0.5, func(now eventq.Time) { n.Multicast(0, 0, dataPkt(1)) })
	// After: 2 hears via 0—1—2 (20 ms + transmission).
	n.Q.At(2.0, func(now eventq.Time) { n.Multicast(0, 0, dataPkt(2)) })
	n.Q.Run()
	got := recs[2].got
	if len(got) != 2 {
		t.Fatalf("node 2 got %d packets, want 2", len(got))
	}
	d1 := got[0].at.Sub(0.5).Seconds()
	d2 := got[1].at.Sub(2.0).Seconds()
	if d1 > 0.015 {
		t.Errorf("pre-fault delay %.4fs, want ≈ 5 ms path", d1)
	}
	if d2 < 0.020 {
		t.Errorf("post-fault delay %.4fs, want ≥ 20 ms (rerouted)", d2)
	}
	if len(eng.Log()) != 1 {
		t.Errorf("engine log has %d entries, want 1", len(eng.Log()))
	}
}

// TestLinkDownOnChainDropsAndRecovers cuts a chain's only path, counts
// the fault drops, then heals it.
func TestLinkDownOnChainDropsAndRecovers(t *testing.T) {
	spec := topology.Chain(3, 1e6, 0.010, 0)
	n, src, recs := build(t, spec, 1)
	eng := NewEngine(n, src, mustParse(t, "1 link-down 1\n3 link-up 1"))
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	for i, at := range []eventq.Time{0.5, 2.0, 3.5} {
		seq := uint32(i + 1)
		n.Q.At(at, func(now eventq.Time) { n.Multicast(0, 0, dataPkt(seq)) })
	}
	// In flight when the link fails: sent just before t=1, it reaches
	// node 1 after the failure and dies at the downed second hop.
	n.Q.At(0.999, func(now eventq.Time) { n.Multicast(0, 0, dataPkt(4)) })
	n.Q.Run()
	var seqs []uint32
	for _, a := range recs[2].got {
		seqs = append(seqs, a.seq)
	}
	if !reflect.DeepEqual(seqs, []uint32{1, 3}) {
		t.Errorf("node 2 received seqs %v, want [1 3] (2 and 4 lost to downed link)", seqs)
	}
	if n.FaultDrops() != 1 {
		t.Errorf("FaultDrops() = %d, want 1 (the in-flight packet)", n.FaultDrops())
	}
}

// TestPartitionHeal isolates a child zone and verifies delivery stops at
// the cut and resumes after healing.
func TestPartitionHeal(t *testing.T) {
	spec := topology.Chain(4, 1e6, 0.010, 0)
	spec.Zones = []topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, 1}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{2, 3}},
	}
	n, src, recs := build(t, spec, 1)
	eng := NewEngine(n, src, mustParse(t, "1 partition-zone 1\n3 heal-zone 1"))
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	root := scoping.ZoneID(0)
	for i, at := range []eventq.Time{0.5, 2.0, 3.5} {
		seq := uint32(i + 1)
		n.Q.At(at, func(now eventq.Time) { n.Multicast(0, root, dataPkt(seq)) })
	}
	n.Q.Run()
	count := func(node topology.NodeID) int { return len(recs[node].got) }
	if count(1) != 3 {
		t.Errorf("node 1 (outside partition) got %d, want 3", count(1))
	}
	if count(3) != 2 {
		t.Errorf("node 3 (inside partition) got %d, want 2 (one cut off)", count(3))
	}
}

// TestLeaveShrinksDeliverySet removes a member mid-session and checks it
// stops receiving while others are unaffected.
func TestLeaveShrinksDeliverySet(t *testing.T) {
	spec := topology.Chain(3, 1e6, 0.010, 0)
	n, src, recs := build(t, spec, 1)
	var leftAt eventq.Time
	eng := NewEngine(n, src, mustParse(t, "1 leave 2"))
	eng.OnLeave = func(now eventq.Time, node topology.NodeID) { leftAt = now }
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	n.Q.At(0.5, func(now eventq.Time) { n.Multicast(0, 0, dataPkt(1)) })
	n.Q.At(2.0, func(now eventq.Time) { n.Multicast(0, 0, dataPkt(2)) })
	n.Q.Run()
	if len(recs[2].got) != 1 {
		t.Errorf("departed node got %d packets, want 1 (pre-leave only)", len(recs[2].got))
	}
	if len(recs[1].got) != 2 {
		t.Errorf("remaining node got %d packets, want 2", len(recs[1].got))
	}
	if leftAt != 1.0 {
		t.Errorf("OnLeave fired at %v, want 1.0s", leftAt)
	}
}

// TestCrashRestartHooks verifies hook dispatch order and times.
func TestCrashRestartHooks(t *testing.T) {
	spec := topology.Chain(3, 1e6, 0.010, 0)
	n, src, _ := build(t, spec, 1)
	var calls []string
	eng := NewEngine(n, src, mustParse(t, "1 crash 2\n2 restart 2"))
	eng.OnCrash = func(now eventq.Time, node topology.NodeID) {
		calls = append(calls, "crash")
	}
	eng.OnRestart = func(now eventq.Time, node topology.NodeID) {
		calls = append(calls, "restart")
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	n.Q.Run()
	if !reflect.DeepEqual(calls, []string{"crash", "restart"}) {
		t.Fatalf("hook calls = %v, want [crash restart]", calls)
	}
}

// TestGilbertEqualMeanPreservesMean installs per-link burst processes at
// each link's configured rate and checks the long-run loss matches the
// Bernoulli mean.
func TestGilbertEqualMeanPreservesMean(t *testing.T) {
	const loss = 0.2
	spec := topology.Chain(2, 1e9, 0, loss)
	n, src, _ := build(t, spec, 3)
	eng := NewEngine(n, src, mustParse(t, "0 gilbert-equal-mean 6"))
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	for i := 0; i < trials; i++ {
		seq := uint32(i)
		n.Q.At(eventq.Time(float64(i)), func(now eventq.Time) { n.Multicast(0, 0, dataPkt(seq)) })
	}
	n.Q.Run()
	_, _, dropped := n.Stats()
	got := float64(dropped) / trials
	if math.Abs(got-loss) > 0.02 {
		t.Errorf("Gilbert equal-mean loss rate %.4f, want %.2f ± 0.02", got, loss)
	}
}

// TestStartRejectsInvalidPlan checks validation runs before scheduling.
func TestStartRejectsInvalidPlan(t *testing.T) {
	spec := topology.Chain(3, 1e6, 0.010, 0)
	n, src, _ := build(t, spec, 1)
	eng := NewEngine(n, src, mustParse(t, "1 link-down 99"))
	if err := eng.Start(); err == nil {
		t.Fatal("Start accepted out-of-range link, want error")
	}
	if n.Q.Len() != 0 {
		t.Errorf("invalid plan left %d events scheduled, want 0", n.Q.Len())
	}
}

// TestDeterminismWithFaults runs the same scripted scenario twice and
// requires byte-identical delivery traces.
func TestDeterminismWithFaults(t *testing.T) {
	run := func() (map[topology.NodeID][]arrival, []string) {
		spec := topology.Chain(4, 1e6, 0.010, 0.1)
		n, src, recs := build(t, spec, 42)
		plan := mustParse(t, "2 link-down 1\n4 link-up 1\n5 gilbert-link 2 0.3 4")
		eng := NewEngine(n, src, plan)
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			seq := uint32(i)
			at := eventq.Time(float64(i) * 0.1)
			n.Q.At(at, func(now eventq.Time) { n.Multicast(0, 0, dataPkt(seq)) })
		}
		n.Q.Run()
		out := map[topology.NodeID][]arrival{}
		for id, r := range recs {
			out[id] = r.got
		}
		return out, eng.Log()
	}
	a1, l1 := run()
	a2, l2 := run()
	if !reflect.DeepEqual(a1, a2) {
		t.Error("delivery traces differ between identical runs")
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Error("fault logs differ between identical runs")
	}
}

// TestEmptyPlanIsByteIdentical attaches an engine with an empty plan to
// a lossy run and requires the exact trace of an engine-less run.
func TestEmptyPlanIsByteIdentical(t *testing.T) {
	run := func(withEngine bool) map[topology.NodeID][]arrival {
		spec := topology.Chain(4, 1e6, 0.010, 0.15)
		n, src, recs := build(t, spec, 99)
		if withEngine {
			eng := NewEngine(n, src, &Plan{})
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			seq := uint32(i)
			at := eventq.Time(float64(i) * 0.05)
			n.Q.At(at, func(now eventq.Time) { n.Multicast(0, 0, dataPkt(seq)) })
		}
		n.Q.Run()
		out := map[topology.NodeID][]arrival{}
		for id, r := range recs {
			out[id] = r.got
		}
		return out
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Error("empty fault plan perturbed the simulation")
	}
}

func TestWithoutMemberValidation(t *testing.T) {
	spec := topology.Chain(3, 1e6, 0.010, 0)
	h := scoping.MustBuild(spec.Zones)
	if _, err := h.WithoutMember(99); err == nil {
		t.Error("WithoutMember(non-member) succeeded, want error")
	}
	h2, err := h.WithoutMember(2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.LeafZone(2) != scoping.NoZone {
		t.Error("removed member still has a leaf zone")
	}
	if h2.NumZones() != h.NumZones() {
		t.Errorf("zone count changed: %d → %d", h.NumZones(), h2.NumZones())
	}
	if errors.Is(err, nil) && h.LeafZone(2) == scoping.NoZone {
		t.Error("WithoutMember mutated the original hierarchy")
	}
}
