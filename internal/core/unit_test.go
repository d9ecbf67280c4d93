package core

// Unit-level tests for internal protocol mechanics, complementing the
// scenario tests in core_test.go.

import (
	"math"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// quietWorld builds a world without starting anything, for poking at
// agent internals directly.
func quietWorld(t *testing.T, spec *topology.Spec, cfg Config, seed uint64) *world {
	t.Helper()
	return newWorld(t, spec, cfg, seed)
}

func TestIPTEstimatorConverges(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 60)
	a := w.agents[1]
	a.joined = true
	// Feed arrivals at a 7 ms cadence (the advertised rate says 10 ms).
	now := eventq.Time(0)
	for i := 0; i < 100; i++ {
		a.updateIPT(now)
		now = now.Add(0.007)
	}
	if math.Abs(a.ipt-0.007) > 0.0005 {
		t.Fatalf("ipt = %v, want ≈0.007", a.ipt)
	}
}

func TestIPTIgnoresGapsAndIdle(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 61)
	a := w.agents[1]
	a.updateIPT(1.000)
	a.updateIPT(1.010)
	before := a.ipt
	a.updateIPT(3.000) // 2 s gap: loss or idle, not cadence
	if a.ipt != before {
		t.Fatalf("idle gap changed ipt: %v -> %v", before, a.ipt)
	}
}

// rootLevel is g's state for the root zone, the last level of every chain.
func rootLevel(a *Agent, g *group) *level { return &g.lv[len(a.chain)-1] }

func TestBurstCreditClearsQueues(t *testing.T) {
	spec := topology.Chain(3, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 62)
	a := w.agents[2]
	a.joined = true
	g := a.ensureGroup(0)
	g.outstanding = 5
	rootLevel(a, g).pending = 5
	// One repair announcing a burst through share index 20 credits the
	// whole burst (16..20 = 5 shares) at once.
	a.handleRepair(1.0, &packet.Repair{
		Origin: 0, Group: 0, Index: 16, GroupK: 16,
		NewMaxSeq: 20, Zone: int16(a.root), Payload: make([]byte, payloadSize),
	})
	if g.outstanding != 0 {
		t.Fatalf("outstanding = %d after burst announcement, want 0", g.outstanding)
	}
	if got := rootLevel(a, g).pending; got != 0 {
		t.Fatalf("pending = %d after burst announcement, want 0", got)
	}
	if g.maxShare != 20 {
		t.Fatalf("maxShare = %d, want 20", g.maxShare)
	}
}

func TestRepairWithoutAnnouncementCreditsOne(t *testing.T) {
	spec := topology.Chain(3, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 63)
	a := w.agents[2]
	a.joined = true
	g := a.ensureGroup(0)
	g.outstanding = 3
	a.handleRepair(1.0, &packet.Repair{
		Origin: 0, Group: 0, Index: 16, GroupK: 16,
		NewMaxSeq: 16, Zone: int16(a.root), Payload: make([]byte, payloadSize),
	})
	if g.outstanding != 2 {
		t.Fatalf("outstanding = %d, want 2", g.outstanding)
	}
}

func TestRepairResetsBackoffExponent(t *testing.T) {
	spec := topology.Chain(3, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 64)
	a := w.agents[2]
	a.joined = true
	g := a.ensureGroup(0)
	g.reqExp = 5
	a.handleRepair(1.0, &packet.Repair{
		Origin: 0, Group: 0, Index: 16, GroupK: 16, NewMaxSeq: 16,
		Zone: int16(a.root), Payload: make([]byte, payloadSize),
	})
	if g.reqExp != 1 {
		t.Fatalf("reqExp = %d after repair, want 1 (§4)", g.reqExp)
	}
}

func TestNACKUpdatesZLCAndBackoff(t *testing.T) {
	spec := topology.Chain(3, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 65)
	a := w.agents[2]
	a.joined = true
	g := a.ensureGroup(0)
	scope := a.root
	// First NACK raises the ZLC.
	a.handleNACK(1.0, &packet.NACK{Origin: 1, Group: 0, LLC: 4, Needed: 4, MaxSeq: 0, Zone: int16(scope)})
	if got := rootLevel(a, g).zlc; got != 4 {
		t.Fatalf("zlc = %d, want 4", got)
	}
	// A second NACK with a lower LLC does not increase the ZLC and
	// therefore backs the request exponent off (§4 LDP rules).
	before := g.reqExp
	a.handleNACK(1.1, &packet.NACK{Origin: 1, Group: 0, LLC: 2, Needed: 2, MaxSeq: 0, Zone: int16(scope)})
	if got := rootLevel(a, g).zlc; got != 4 {
		t.Fatalf("zlc dropped to %d", got)
	}
	if g.reqExp != before+1 {
		t.Fatalf("reqExp = %d, want %d", g.reqExp, before+1)
	}
}

func TestPredictedZLCFilter(t *testing.T) {
	// The 0.75/0.25 EWMA from §4, applied via scheduleZLCSample.
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 66)
	a := w.agents[0] // the source maintains predZLC for the root
	a.joined = true
	g := a.ensureGroup(0)
	rootLevel(a, g).zlc = 4
	a.scheduleZLCSample(g, len(a.chain)-1)
	w.net.Q.Run()
	if math.Abs(a.PredictedZLC(a.root)-1.0) > 1e-9 { // 0.75·0 + 0.25·4
		t.Fatalf("predZLC = %v, want 1.0", a.PredictedZLC(a.root))
	}
	g2 := a.ensureGroup(1)
	rootLevel(a, g2).zlc = 4
	a.scheduleZLCSample(g2, len(a.chain)-1)
	w.net.Q.Run()
	if math.Abs(a.PredictedZLC(a.root)-1.75) > 1e-9 { // 0.75·1 + 0.25·4
		t.Fatalf("predZLC = %v, want 1.75", a.PredictedZLC(a.root))
	}
}

func TestZLCSampleUsesOwnLLCWhenNoNACKs(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 67)
	a := w.agents[0]
	g := a.ensureGroup(0)
	g.llc = 2 // no NACKs heard: the agent's own LLC stands in (§4)
	a.scheduleZLCSample(g, len(a.chain)-1)
	w.net.Q.Run()
	if math.Abs(a.PredictedZLC(a.root)-0.5) > 1e-9 {
		t.Fatalf("predZLC = %v, want 0.5", a.PredictedZLC(a.root))
	}
}

func TestNackScopeSkipsOwnZones(t *testing.T) {
	// After elections, a leaf-zone ZCR's initial NACK scope must be the
	// parent zone (its own zone is all downstream of it).
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := DefaultConfig()
	cfg.NumPackets = 16
	w := quietWorld(t, spec, cfg, 68)
	w.net.Q.At(1, func(eventq.Time) {
		for _, ag := range w.agents {
			ag.Join()
		}
	})
	w.net.Q.RunUntil(20) // elections settle; no data sent
	// Node 8: leaf-zone ZCR → first NACK scope is the intermediate zone.
	a8 := w.agents[8]
	if got := a8.scopeZone(a8.nackScope()); w.net.H.Level(got) != 1 {
		t.Fatalf("leaf ZCR initial scope level = %d, want 1", w.net.H.Level(got))
	}
	// Node 9 (a grandchild): ordinary member → leaf scope.
	a9 := w.agents[9]
	if got := a9.scopeZone(a9.nackScope()); w.net.H.Level(got) != 2 {
		t.Fatalf("grandchild initial scope level = %d, want 2", w.net.H.Level(got))
	}
	// Node 1 (mesh, intermediate ZCR): root scope.
	a1 := w.agents[1]
	if got := a1.scopeZone(a1.nackScope()); got != w.net.H.Root() {
		t.Fatalf("mesh ZCR initial scope = %v, want root", got)
	}
}

func TestGroupNeededClamps(t *testing.T) {
	g := &group{k: 4}
	if g.needed() != 4 {
		t.Fatalf("needed = %d", g.needed())
	}
	g.held = 6
	if g.needed() != 0 {
		t.Fatalf("needed = %d with surplus shares", g.needed())
	}
}

func TestRepairForUnknownGroupCreatesState(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 69)
	a := w.agents[1]
	a.joined = true
	a.handleRepair(1.0, &packet.Repair{
		Origin: 0, Group: 3, Index: 17, GroupK: 16, NewMaxSeq: 17,
		Zone: int16(a.root), Payload: make([]byte, payloadSize),
	})
	g := a.group(3)
	if g == nil || g.held != 1 || g.shares[17] == nil {
		t.Fatal("repair for unknown group not recorded")
	}
}

func TestMemberOfRoot(t *testing.T) {
	spec := topology.Figure10(topology.Figure10Params{})
	cfg := DefaultConfig()
	w := quietWorld(t, spec, cfg, 70)
	for _, ag := range w.agents {
		if ag.levelOf(ag.root) != len(ag.chain)-1 {
			t.Fatalf("node %d does not hold the root zone as its last chain level", ag.Node())
		}
	}
	if w.agents[0].levelOf(scoping.ZoneID(2)) >= 0 {
		t.Fatal("source claims membership of a leaf zone")
	}
}

func TestRawLossFractionEmpty(t *testing.T) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	cfg := smallCfg()
	w := quietWorld(t, spec, cfg, 71)
	if w.agents[1].RawLossFraction() != 0 {
		t.Fatal("loss fraction nonzero before any groups")
	}
}
