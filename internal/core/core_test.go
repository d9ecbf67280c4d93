package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sharqfec/internal/analysis"
	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// world wires a full SHARQFEC session over a topology spec.
type world struct {
	spec   *topology.Spec
	net    *netsim.Network
	agents map[topology.NodeID]*Agent
	// completed[node][group] holds the reconstructed payloads.
	completed map[topology.NodeID]map[uint32][][]byte
}

func newWorld(t *testing.T, spec *topology.Spec, cfg Config, seed uint64) *world {
	t.Helper()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	var q eventq.Queue
	src := simrand.New(seed)
	n := netsim.New(&q, spec.Graph, h, src)
	w := &world{
		spec:      spec,
		net:       n,
		agents:    map[topology.NodeID]*Agent{},
		completed: map[topology.NodeID]map[uint32][][]byte{},
	}
	cfg.Source = spec.Source
	for _, m := range spec.Members() {
		ag, err := New(m, n, cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		node := m
		w.completed[node] = map[uint32][][]byte{}
		ag.OnComplete = func(_ eventq.Time, gid uint32, data [][]byte) {
			// data is only valid during the call: keep a copy.
			kept := make([][]byte, len(data))
			for i, d := range data {
				kept[i] = slices.Clone(d)
			}
			w.completed[node][gid] = kept
		}
		w.agents[m] = ag
	}
	return w
}

// oneZone returns a copy of spec on the one-zone hierarchy the unscoped
// ("ns") variants run on: every member in the root zone.
func oneZone(spec *topology.Spec) *topology.Spec {
	flat := *spec
	flat.Zones = []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: spec.Members()}}
	return &flat
}

// watch gives the world's network a bus whose one sink passes fn every
// event of the given kind.
func (w *world) watch(kind telemetry.Kind, fn func(telemetry.Event)) {
	bus := telemetry.NewBus()
	bus.Attach(func(e telemetry.Event) {
		if e.Kind == kind {
			fn(e)
		}
	})
	w.net.SetTelemetry(bus)
}

// run joins everyone at t=1, starts the source at t=6 (the paper's
// schedule) and runs until `until`.
func (w *world) run(until float64) {
	w.net.Q.At(1, func(eventq.Time) {
		for _, ag := range w.agents {
			ag.Join()
		}
	})
	w.net.Q.At(6, func(eventq.Time) { w.agents[w.spec.Source].StartSource() })
	w.net.Q.RunUntil(eventq.Time(until))
}

// smallCfg shrinks the stream for fast unit tests.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.NumPackets = 64 // 4 groups of 16
	return cfg
}

// verifyAll checks that every receiver completed every group with
// payloads identical to what the source sent.
func (w *world) verifyAll(t *testing.T, cfg Config) {
	t.Helper()
	src := w.agents[w.spec.Source]
	groups := cfg.NumGroups()
	for _, m := range w.spec.Receivers {
		got := w.completed[m]
		if len(got) != groups {
			t.Fatalf("node %d completed %d/%d groups", m, len(got), groups)
		}
		for gid := uint32(0); gid < uint32(groups); gid++ {
			want := src.sendData[gid]
			data := got[gid]
			if len(data) != len(want) {
				t.Fatalf("node %d group %d: %d shares, want %d", m, gid, len(data), len(want))
			}
			for i := range want {
				if !bytes.Equal(data[i], want[i]) {
					t.Fatalf("node %d group %d share %d corrupted", m, gid, i)
				}
			}
		}
	}
}

func totalStats(w *world) (nacks, repairs, injected int) {
	for _, ag := range w.agents {
		nacks += ag.Stats.NACKsSent
		repairs += ag.Stats.RepairsSent
		injected += ag.Stats.RepairsInjected
	}
	return
}

func TestLosslessDeliveryNoNACKs(t *testing.T) {
	spec := topology.BalancedTree([]int{2, 2}, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 1)
	w.run(30)
	w.verifyAll(t, cfg)
	nacks, _, _ := totalStats(w)
	if nacks != 0 {
		t.Fatalf("lossless run produced %d NACKs", nacks)
	}
}

func TestLossyChainRecovers(t *testing.T) {
	spec := topology.Chain(4, 10e6, 0.010, 0.10)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 2)
	w.run(60)
	w.verifyAll(t, cfg)
	nacks, repairs, _ := totalStats(w)
	if repairs == 0 {
		t.Fatal("lossy run sent no repairs")
	}
	t.Logf("chain: nacks=%d repairs=%d", nacks, repairs)
}

func TestECSRMVariantRecovers(t *testing.T) {
	spec := topology.Chain(4, 10e6, 0.010, 0.10)
	cfg := smallCfg()
	cfg.Options = Options{SenderOnly: true}
	w := newWorld(t, spec, cfg, 3)
	w.run(60)
	w.verifyAll(t, cfg)
	// Sender-only: no receiver may send repairs.
	for _, m := range spec.Receivers {
		if w.agents[m].Stats.RepairsSent != 0 {
			t.Fatalf("receiver %d sent repairs under SenderOnly", m)
		}
	}
}

func TestNoScopingVariantRecovers(t *testing.T) {
	spec := oneZone(topology.BalancedTree([]int{2, 2}, 10e6, 0.010, 0.08))
	cfg := smallCfg()
	cfg.Options = Options{Injection: true}
	w := newWorld(t, spec, cfg, 4)
	w.run(60)
	w.verifyAll(t, cfg)
}

func TestFigure10FullProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure-10 run")
	}
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := DefaultConfig()
	cfg.NumPackets = 256 // 16 groups: enough to exercise everything
	w := newWorld(t, spec, cfg, 5)
	w.run(120)
	w.verifyAll(t, cfg)
	nacks, repairs, injected := totalStats(w)
	if repairs == 0 {
		t.Fatal("no repairs in a heavily lossy network")
	}
	t.Logf("figure10: nacks=%d repairs=%d injected=%d", nacks, repairs, injected)
}

func TestInjectionReducesNACKs(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative run")
	}
	run := func(injection bool) int {
		spec := topology.Figure10(topology.Figure10Params{})
		cfg := DefaultConfig()
		cfg.NumPackets = 256
		cfg.Options = Options{Injection: injection}
		w := newWorld(t, spec, cfg, 6)
		w.run(120)
		nacks, _, _ := totalStats(w)
		return nacks
	}
	with, without := run(true), run(false)
	t.Logf("nacks with injection=%d without=%d", with, without)
	if with >= without {
		t.Fatalf("injection did not reduce NACKs: with=%d without=%d", with, without)
	}
}

func TestSuppressionLimitsNACKs(t *testing.T) {
	// A shared lossy backbone link upstream of 6 receivers: losses are
	// correlated, so NACK suppression should keep requests well below
	// one per loss event per receiver.
	g := topology.New(8)
	g.AddLink(0, 1, 10e6, 0.010, 0.15) // lossy backbone
	for i := 2; i < 8; i++ {
		g.AddLink(1, topology.NodeID(i), 10e6, 0.005, 0)
	}
	spec := &topology.Spec{
		Graph:     g,
		Source:    0,
		Receivers: []topology.NodeID{1, 2, 3, 4, 5, 6, 7},
		Zones:     []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, 1, 2, 3, 4, 5, 6, 7}}},
		Name:      "shared-loss",
	}
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 7)
	w.run(60)
	w.verifyAll(t, cfg)
	nacks, _, _ := totalStats(w)
	suppressed := 0
	for _, ag := range w.agents {
		suppressed += ag.Stats.NACKsSuppressed
	}
	// All 7 receivers share the same losses; without suppression each
	// loss would trigger 7 NACKs.
	lossEvents := 0
	for _, ag := range w.agents {
		if ag.node == 1 {
			lossEvents = ag.Stats.DataReceived // proxy: node 1 sees post-loss stream
		}
	}
	_ = lossEvents
	if nacks == 0 {
		t.Fatal("expected some NACKs on a 15% lossy backbone")
	}
	if suppressed == 0 {
		t.Fatal("expected suppression among 7 receivers sharing losses")
	}
	t.Logf("shared-loss: nacks=%d suppressed=%d", nacks, suppressed)
}

func TestConfigValidation(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	h, _ := scoping.Build(spec.Zones)
	var q eventq.Queue
	n := netsim.New(&q, spec.Graph, h, simrand.New(1))
	cfg := DefaultConfig()
	cfg.NumPackets = 17 // not a multiple of 16
	if _, err := New(0, n, cfg, simrand.New(1)); err == nil {
		t.Fatal("partial final group accepted")
	}
}

func TestInterPacketInterval(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.InterPacket(); got != 0.010 {
		t.Fatalf("inter-packet = %v, want 10 ms (paper: 1000 B at 800 kbit/s)", got)
	}
	if cfg.NumGroups() != 64 {
		t.Fatalf("groups = %d, want 64", cfg.NumGroups())
	}
}

func TestStartSourcePanicsOnReceiver(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("StartSource on receiver did not panic")
		}
	}()
	w.agents[1].StartSource()
}

func TestDeterministicRun(t *testing.T) {
	run := func() (int, int) {
		spec := topology.Chain(5, 10e6, 0.010, 0.12)
		cfg := smallCfg()
		w := newWorld(t, spec, cfg, 42)
		w.run(60)
		n, r, _ := totalStats(w)
		return n, r
	}
	n1, r1 := run()
	n2, r2 := run()
	if n1 != n2 || r1 != r2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", n1, r1, n2, r2)
	}
}

func TestScopeEscalation(t *testing.T) {
	// Node 3 sits behind a severely lossy last hop: zone-scoped repairs
	// from its ZCR (node 2) are mostly lost too, so after two attempts
	// per zone its requests must widen to the global scope (§4 RP:
	// "the scope of successive attempts will be increased after two
	// attempts at each zone").
	g := topology.New(5)
	g.AddLink(0, 1, 10e6, 0.010, 0)
	g.AddLink(1, 2, 10e6, 0.010, 0)
	g.AddLink(2, 3, 10e6, 0.005, 0.6) // node 3's private disaster link
	g.AddLink(2, 4, 10e6, 0.005, 0)
	spec := &topology.Spec{
		Graph:     g,
		Source:    0,
		Receivers: []topology.NodeID{1, 2, 3, 4},
		Zones: []topology.ZoneSpec{
			{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, 1}},
			{ID: 1, Parent: 0, Leaves: []topology.NodeID{2, 3, 4}},
		},
		Name: "escalation",
	}
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 9)
	w.run(120)
	w.verifyAll(t, cfg)
	esc := 0
	for _, ag := range w.agents {
		esc += ag.Stats.ScopeEscalations
	}
	if esc == 0 {
		t.Fatal("expected scope escalations behind a 60% lossy last hop")
	}
}

func TestZCRFailureDataRecovery(t *testing.T) {
	// §3.2: "the ability of receivers to increase the scope of their
	// NACKs without reconfiguring the hierarchy minimizes the
	// consequences of ZCR failure." Kill a leaf-zone ZCR mid-stream:
	// its zone members must still recover every group, via re-election
	// and scope escalation.
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := DefaultConfig()
	cfg.NumPackets = 256
	w := newWorld(t, spec, cfg, 33)
	// Node 8 is the first tree child, ZCR of its leaf zone once
	// elections settle. Kill it at t=9 s, mid-stream.
	w.net.Q.At(9, func(eventq.Time) { w.agents[8].Stop() })
	w.run(120)
	groups := cfg.NumGroups()
	for _, m := range spec.Receivers {
		if m == 8 {
			continue // the dead node is excused
		}
		if got := len(w.completed[m]); got != groups {
			t.Fatalf("node %d completed %d/%d groups after ZCR failure", m, got, groups)
		}
	}
	// A survivor of node 8's leaf zone must see a new leaf ZCR.
	leaf := w.net.H.LeafZone(8)
	if got := w.agents[9].Session().ZCR(leaf); got == 8 || got == topology.NoNode {
		t.Fatalf("leaf-zone ZCR after failure = %d, want a live survivor", got)
	}
}

func TestStoppedAgentSendsNothing(t *testing.T) {
	spec := topology.Chain(4, 10e6, 0.010, 0.10)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 34)
	w.net.Q.At(2, func(eventq.Time) { w.agents[2].Stop() })
	var from2 int
	w.watch(telemetry.KindPacketSent, func(e telemetry.Event) {
		if e.Node == 2 && e.T > 2 {
			from2++
		}
	})
	w.run(60)
	if from2 != 0 {
		t.Fatalf("stopped agent transmitted %d packets", from2)
	}
	if !w.agents[2].Stopped() {
		t.Fatal("Stopped() false")
	}
}

func TestLateJoinRecoversEverything(t *testing.T) {
	// A receiver joining mid-stream recovers every missed group via the
	// paced catch-up queue, served locally by its zone's ZCR.
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := DefaultConfig()
	cfg.NumPackets = 256
	w := newWorld(t, spec, cfg, 35)
	late := topology.NodeID(12) // a grandchild in tree 1
	// Everyone else joins at t=1; node 12 joins at t=7.5 (mid-stream,
	// groups 0–8 already sent).
	w.net.Q.At(1, func(eventq.Time) {
		for n, ag := range w.agents {
			if n != late {
				ag.Join()
			}
		}
	})
	w.net.Q.At(6, func(eventq.Time) { w.agents[0].StartSource() })
	w.net.Q.At(7.5, func(eventq.Time) { w.agents[late].JoinLate() })
	w.net.Q.RunUntil(120)

	groups := cfg.NumGroups()
	if got := len(w.completed[late]); got != groups {
		t.Fatalf("late joiner completed %d/%d groups", got, groups)
	}
	if w.agents[late].IsCatchingUp() {
		t.Fatal("late joiner still reports catching up")
	}
	// Integrity of a recovered pre-join group.
	src := w.agents[0]
	for i, share := range w.completed[late][0] {
		if !bytes.Equal(share, src.sendData[0][i]) {
			t.Fatalf("catch-up group 0 share %d corrupted", i)
		}
	}
}

func TestLateJoinLocalized(t *testing.T) {
	// Catch-up repair traffic should be dominated by zone-scoped
	// repairs (the joiner's leaf-zone ZCR retains the data), not
	// root-scoped floods.
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := DefaultConfig()
	cfg.NumPackets = 256
	w := newWorld(t, spec, cfg, 36)
	late := topology.NodeID(12)
	repairScopeLevel := map[int]int{}
	w.watch(telemetry.KindPacketDelivered, func(e telemetry.Event) {
		if e.A == int64(packet.TypeRepair) && e.Node == late && e.T > 9.6 {
			repairScopeLevel[w.net.H.Level(e.Zone)]++
		}
	})
	w.net.Q.At(1, func(eventq.Time) {
		for n, ag := range w.agents {
			if n != late {
				ag.Join()
			}
		}
	})
	w.net.Q.At(6, func(eventq.Time) { w.agents[0].StartSource() })
	// Join after the stream ends so all observed repairs past t=9.6 are
	// overwhelmingly catch-up traffic.
	w.net.Q.At(9.6, func(eventq.Time) { w.agents[late].JoinLate() })
	w.net.Q.RunUntil(120)
	if got := len(w.completed[late]); got != cfg.NumGroups() {
		t.Fatalf("late joiner completed %d/%d groups", got, cfg.NumGroups())
	}
	local := repairScopeLevel[2] + repairScopeLevel[1]
	global := repairScopeLevel[0]
	t.Logf("late-join repairs by scope level: %v", repairScopeLevel)
	if local <= global {
		t.Fatalf("catch-up not localized: local=%d global=%d", local, global)
	}
}

func TestJoinLatePanicsOnSource(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 37)
	defer func() {
		if recover() == nil {
			t.Fatal("JoinLate on source did not panic")
		}
	}()
	w.agents[0].JoinLate()
}

func TestAdaptiveTimersReduceDuplicateNACKs(t *testing.T) {
	// A star with wildly uneven spoke latencies is the case the paper's
	// §7 says fixed timers cannot fit: the request windows of near and
	// far receivers barely overlap, so duplicate NACKs abound. The
	// adaptive variant must cut them.
	build := func(adaptive bool) int {
		// Equal long spokes: every receiver draws its request timer
		// from the same window, but NACKs take 300 ms to cross between
		// spokes — fires within that gap duplicate each other.
		g := topology.New(8)
		g.AddLink(0, 1, 10e6, 0.010, 0.15) // shared lossy first hop
		for i := 2; i < 8; i++ {
			g.AddLink(1, topology.NodeID(i), 10e6, 0.150, 0)
		}
		// Node 1 is a pure router (not a session member), so the six
		// equidistant spokes race each other without a near
		// deduplicator.
		spec := &topology.Spec{
			Graph: g, Source: 0,
			Receivers: []topology.NodeID{2, 3, 4, 5, 6, 7},
			Zones:     []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, 2, 3, 4, 5, 6, 7}}},
			Name:      "wide-star",
		}
		cfg := DefaultConfig()
		cfg.NumPackets = 512
		cfg.Options = Options{AdaptiveTimers: adaptive}
		w := newWorld(t, spec, cfg, 80)
		w.run(120)
		w.verifyAll(t, cfg)
		dups := 0
		widened := false
		for _, ag := range w.agents {
			for _, grp := range ag.groups {
				dups += grp.dupNACKs
			}
			if _, c2 := ag.TimerConstants(); c2 > cfg.C2+1 {
				widened = true
			}
		}
		if adaptive && !widened {
			t.Fatal("no agent widened its request window under heavy duplication")
		}
		return dups
	}
	fixed, adaptive := build(false), build(true)
	t.Logf("duplicate NACK observations: fixed=%d adaptive=%d", fixed, adaptive)
	// A 5-second stream allows only a handful of adaptation rounds, so
	// require a clear directional improvement rather than a large one.
	if float64(adaptive) > 0.9*float64(fixed) {
		t.Fatalf("adaptation did not reduce duplicates: fixed=%d adaptive=%d", fixed, adaptive)
	}
}

func TestAdaptiveConstantsMoveAndStayBounded(t *testing.T) {
	spec := topology.Chain(5, 10e6, 0.010, 0.15)
	cfg := smallCfg()
	cfg.NumPackets = 128
	cfg.Options.AdaptiveTimers = true
	w := newWorld(t, spec, cfg, 81)
	w.run(90)
	moved := false
	for _, ag := range w.agents {
		c1, c2 := ag.TimerConstants()
		if c1 < 0.5 || c1 > 8 || c2 < 1 || c2 > 16 {
			t.Fatalf("node %d constants out of bounds: %v/%v", ag.Node(), c1, c2)
		}
		if c1 != cfg.C1 || c2 != cfg.C2 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no agent's constants moved despite adaptation being on")
	}
}

func TestFixedTimersStayFixed(t *testing.T) {
	spec := topology.Chain(4, 10e6, 0.010, 0.15)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 82)
	w.run(60)
	for _, ag := range w.agents {
		if c1, c2 := ag.TimerConstants(); c1 != cfg.C1 || c2 != cfg.C2 {
			t.Fatal("constants moved with adaptation off")
		}
	}
}

func TestInjectionPredictorMatchesCascadeModel(t *testing.T) {
	// Cross-validation: the EWMA-predicted ZLCs that drive preemptive
	// injection should converge near the analytic Figure-2 cascade
	// expectations (analysis.ExpectedZLC) for each hierarchy level.
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := DefaultConfig()
	cfg.NumPackets = 1024
	w := newWorld(t, spec, cfg, 90)
	w.run(30)

	// Root: the source covers the worst source→mesh path (18.8%).
	wantRoot := analysis.ExpectedZLC(16, 0.188, 1)
	gotRoot := w.agents[0].PredictedZLC(w.net.H.Root())
	if math.Abs(gotRoot-wantRoot) > 1.5 {
		t.Fatalf("root predictor %.2f vs cascade model %.2f", gotRoot, wantRoot)
	}

	// Intermediate: mesh ZCRs cover the 8% mesh→child stage, ZLC
	// maximized over 3 children (plus their subtrees' shared loss).
	wantInter := analysis.ExpectedZLC(16, 0.08, 3)
	sum, n := 0.0, 0
	for mesh := topology.NodeID(1); mesh <= 7; mesh++ {
		ag := w.agents[mesh]
		for z := 0; z < w.net.H.NumZones(); z++ {
			zone := scoping.ZoneID(z)
			if w.net.H.Level(zone) != 1 {
				continue
			}
			if v := ag.PredictedZLC(zone); v > 0 {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no intermediate predictors converged")
	}
	gotInter := sum / float64(n)
	// The zone's ZLC also reflects grandchild losses compounded behind
	// the children, so allow a generous band around the stage model.
	if gotInter < 0.5*wantInter || gotInter > 3*wantInter {
		t.Fatalf("intermediate predictor %.2f vs cascade model %.2f", gotInter, wantInter)
	}
	t.Logf("cascade validation: root %.2f (model %.2f), intermediate %.2f (model %.2f)",
		gotRoot, wantRoot, gotInter, wantInter)
}

func TestPropertyRecoversOnRandomTopologies(t *testing.T) {
	// Robustness sweep: on random trees with random per-link losses up
	// to 25%, the full protocol must always recover every group at
	// every receiver with verified payloads.
	//
	// The horizon covers the slowest trial, not a typical one. Trial 3
	// (18 nodes, a 17-hop path, link loss up to 0.24) completes its last
	// group at 138.3 s with per-(link, direction) loss draws, and at
	// 49.6 s with the single loss stream they replaced; every other trial
	// finishes by 24 s. That tail is an open question, not a tolerance.
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 17))
		spec := topology.RandomTree(rng, 6+rng.IntN(14), 1+rng.IntN(3), 0.02, 0.25)
		cfg := smallCfg()
		w := newWorld(t, spec, cfg, uint64(1000+trial))
		w.run(160)
		w.verifyAll(t, cfg)
	}
}
