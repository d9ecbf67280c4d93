package srm

import (
	"bytes"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// world wires SRM agents over a spec with a single global zone (SRM is
// unscoped).
type world struct {
	spec   *topology.Spec
	net    *netsim.Network
	agents map[topology.NodeID]*Agent
}

// globalZone flattens a spec's zones into a single root zone.
func globalZone(spec *topology.Spec) []topology.ZoneSpec {
	var all []topology.NodeID
	all = append(all, spec.Members()...)
	return []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: all}}
}

func newWorld(t *testing.T, spec *topology.Spec, cfg Config, seed uint64) *world {
	t.Helper()
	h, err := scoping.Build(globalZone(spec))
	if err != nil {
		t.Fatal(err)
	}
	var q eventq.Queue
	src := simrand.New(seed)
	n := netsim.New(&q, spec.Graph, h, src)
	w := &world{spec: spec, net: n, agents: map[topology.NodeID]*Agent{}}
	cfg.Source = spec.Source
	for _, m := range spec.Members() {
		ag, err := New(m, n, cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		w.agents[m] = ag
	}
	return w
}

func (w *world) run(until float64) {
	w.net.Q.At(1, func(eventq.Time) {
		for _, ag := range w.agents {
			ag.Join()
		}
	})
	w.net.Q.At(6, func(eventq.Time) { w.agents[w.spec.Source].StartSource() })
	w.net.Q.RunUntil(eventq.Time(until))
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.NumPackets = 64
	return cfg
}

func (w *world) verifyAll(t *testing.T, cfg Config) {
	t.Helper()
	src := w.agents[w.spec.Source]
	for _, m := range w.spec.Receivers {
		ag := w.agents[m]
		if held := ag.Held(); held != cfg.NumPackets {
			t.Fatalf("node %d holds %d/%d packets", m, held, cfg.NumPackets)
		}
		for seq := uint32(0); seq < uint32(cfg.NumPackets); seq += 7 {
			got, ok := ag.Payload(seq)
			want, _ := src.Payload(seq)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("node %d packet %d corrupted or missing", m, seq)
			}
		}
	}
}

func TestLosslessNoRequests(t *testing.T) {
	spec := topology.BalancedTree([]int{2, 2}, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 1)
	w.run(30)
	w.verifyAll(t, cfg)
	for _, ag := range w.agents {
		if ag.Stats.RequestsSent != 0 {
			t.Fatalf("node %d sent requests on a lossless network", ag.node)
		}
	}
}

func TestLossyChainRecovers(t *testing.T) {
	spec := topology.Chain(4, 10e6, 0.010, 0.10)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 2)
	w.run(90)
	w.verifyAll(t, cfg)
	reqs, reps := 0, 0
	for _, ag := range w.agents {
		reqs += ag.Stats.RequestsSent
		reps += ag.Stats.RepairsSent
	}
	if reqs == 0 || reps == 0 {
		t.Fatalf("expected requests and repairs: reqs=%d reps=%d", reqs, reps)
	}
	t.Logf("srm chain: reqs=%d reps=%d", reqs, reps)
}

func TestSuppressionAmongSiblings(t *testing.T) {
	// Shared lossy backbone: correlated losses at 6 receivers; requests
	// must be suppressed below one per receiver per loss.
	g := topology.New(8)
	g.AddLink(0, 1, 10e6, 0.010, 0.15)
	for i := 2; i < 8; i++ {
		g.AddLink(1, topology.NodeID(i), 10e6, 0.005, 0)
	}
	spec := &topology.Spec{
		Graph: g, Source: 0,
		Receivers: []topology.NodeID{1, 2, 3, 4, 5, 6, 7},
		Zones:     []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: []topology.NodeID{0, 1, 2, 3, 4, 5, 6, 7}}},
	}
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 3)
	w.run(90)
	w.verifyAll(t, cfg)
	suppressed := 0
	for _, ag := range w.agents {
		suppressed += ag.Stats.RequestsSuppressed
	}
	if suppressed == 0 {
		t.Fatal("expected request suppression among siblings")
	}
}

func TestRepairTail(t *testing.T) {
	// Losing repairs as well as data (the paper's setup) must still
	// converge via re-request after back-off.
	spec := topology.Chain(3, 10e6, 0.010, 0.25)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 4)
	w.run(120)
	w.verifyAll(t, cfg)
}

func TestFigure10SRM(t *testing.T) {
	if testing.Short() {
		t.Skip("full topology run")
	}
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := DefaultConfig()
	cfg.NumPackets = 128
	w := newWorld(t, spec, cfg, 5)
	w.run(120)
	w.verifyAll(t, cfg)
	reqs, reps := 0, 0
	for _, ag := range w.agents {
		reqs += ag.Stats.RequestsSent
		reps += ag.Stats.RepairsSent
	}
	t.Logf("srm figure10: reqs=%d reps=%d", reqs, reps)
}

func TestAdaptiveConstantsStayBounded(t *testing.T) {
	spec := topology.Chain(4, 10e6, 0.010, 0.20)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 6)
	w.run(90)
	for _, ag := range w.agents {
		if ag.c1 < 0.5 || ag.c1 > 4 || ag.c2 < 1 || ag.c2 > 8 {
			t.Fatalf("node %d request constants out of bounds: C1=%v C2=%v", ag.node, ag.c1, ag.c2)
		}
		if ag.d1 < 0.5 || ag.d1 > 4 || ag.d2 < 1 || ag.d2 > 8 {
			t.Fatalf("node %d reply constants out of bounds: D1=%v D2=%v", ag.node, ag.d1, ag.d2)
		}
	}
}

func TestNonAdaptiveKeepsConstants(t *testing.T) {
	spec := topology.Chain(3, 10e6, 0.010, 0.15)
	cfg := smallCfg()
	cfg.Adaptive = false
	w := newWorld(t, spec, cfg, 7)
	w.run(90)
	for _, ag := range w.agents {
		if ag.c1 != initC1 || ag.c2 != initC2 || ag.d1 != initD1 || ag.d2 != initD2 {
			t.Fatal("constants changed with Adaptive off")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	h, _ := scoping.Build(globalZone(spec))
	var q eventq.Queue
	n := netsim.New(&q, spec.Graph, h, simrand.New(1))
	cfg := DefaultConfig()
	cfg.NumPackets = 0
	if _, err := New(0, n, cfg, simrand.New(1)); err == nil {
		t.Fatal("zero-packet stream accepted")
	}
}

func TestStartSourcePanicsOnReceiver(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.agents[1].StartSource()
}

func TestDeterministic(t *testing.T) {
	run := func() int {
		spec := topology.Chain(5, 10e6, 0.010, 0.12)
		cfg := smallCfg()
		w := newWorld(t, spec, cfg, 42)
		w.run(90)
		total := 0
		for _, ag := range w.agents {
			total += ag.Stats.RequestsSent + ag.Stats.RepairsSent
		}
		return total
	}
	if run() != run() {
		t.Fatal("SRM runs diverged for fixed seed")
	}
}

func TestHoldDownSuppressesRepeatReplies(t *testing.T) {
	// After answering a request, a holder ignores further requests for
	// the same packet within the hold-down window (SRM's ignore-backoff).
	spec := topology.Chain(3, 10e6, 0.010, 0)
	cfg := smallCfg()
	cfg.NumPackets = 16
	w := newWorld(t, spec, cfg, 20)
	w.run(30) // deliver everything losslessly
	holder := w.agents[1]
	before := holder.Stats.RepairsSent
	// Two immediate back-to-back requests for the same packet.
	req := &packet.NACK{Origin: 2, Group: 3, LLC: 1, Needed: 1, MaxSeq: 16, Zone: 0}
	now := w.net.Q.Now()
	holder.handleRequest(now, req)
	w.net.Q.RunUntil(now + 2) // let the first reply fire
	mid := holder.Stats.RepairsSent
	if mid != before+1 {
		t.Fatalf("first request produced %d repairs, want 1", mid-before)
	}
	holder.handleRequest(w.net.Q.Now(), req)
	w.net.Q.RunUntil(w.net.Q.Now() + 0.01) // within hold-down
	if holder.Stats.RepairsSent != mid {
		t.Fatal("request inside hold-down produced a repair")
	}
}

func TestRequestBackoffDoubles(t *testing.T) {
	// Hearing a peer's request for a packet we are also missing doubles
	// the back-off exponent (SRM request suppression).
	spec := topology.Chain(3, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 21)
	a := w.agents[2]
	st := a.state(5)
	a.noteLoss(1.0, 5)
	if !st.reqTimer.Active() {
		t.Fatal("request timer not armed")
	}
	expBefore := st.reqExp
	a.handleRequest(1.0, &packet.NACK{Origin: 1, Group: 5, LLC: 1, Needed: 1, MaxSeq: 6, Zone: 0})
	if st.reqExp != expBefore+1 {
		t.Fatalf("reqExp = %d, want %d", st.reqExp, expBefore+1)
	}
}

func TestSessionTrafficIsGlobal(t *testing.T) {
	// SRM's all-pairs session cost: with n members over t seconds,
	// deliveries ≈ n·(n-1)·t — the O(n²) the paper's §5 removes.
	spec := topology.BalancedTree([]int{2, 2}, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := newWorld(t, spec, cfg, 22)
	sessions := 0
	bus := telemetry.NewBus()
	bus.Attach(func(e telemetry.Event) {
		if e.Kind == telemetry.KindPacketDelivered && e.A == int64(packet.TypeSession) {
			sessions++
		}
	})
	w.net.SetTelemetry(bus)
	w.run(11) // 10 steady seconds, no data
	n := float64(len(spec.Members()))
	expect := n * (n - 1) * 10
	if float64(sessions) < 0.7*expect || float64(sessions) > 1.4*expect {
		t.Fatalf("session deliveries = %d, want ≈%.0f (all-pairs)", sessions, expect)
	}
}
