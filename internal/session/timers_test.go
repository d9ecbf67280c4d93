package session

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// seededDeep is node 3 of deepZones with every zone's ZCR designated:
// node 0 of Z0, node 3 itself of Z1, node 2 of Z2 and node 4 of its leaf
// zone Z3. Its chain is Z3, Z2, Z1, Z0, so zones[0] is the leaf zone.
func seededDeep(t *testing.T) (*Manager, *stubNet) {
	t.Helper()
	net := &stubNet{h: deepZones()}
	net.q.RunUntil(10) // a clock past zero, so timestamps are valid
	m := New(3, net, DefaultConfig(), simrand.New(7).StreamN("session", 3))
	for _, s := range []struct {
		z scoping.ZoneID
		n topology.NodeID
	}{{0, 0}, {1, 3}, {2, 2}, {3, 4}} {
		m.SeedZCR(s.z, s.n)
	}
	if !slices.Equal(m.chain, []scoping.ZoneID{3, 2, 1, 0}) {
		t.Fatalf("set-up: chain %v", m.chain)
	}
	return m, net
}

// sentCounts tallies what a stubNet recorded, by packet kind and zone
// field ("session 3", "challenge 2", "takeover 3", …).
func sentCounts(net *stubNet) map[string]int {
	n := map[string]int{}
	for _, d := range net.sent {
		switch p := d.Pkt.(type) {
		case *packet.Session:
			n[fmt.Sprint("session ", p.Zone)]++
		case *packet.ZCRChallenge:
			n[fmt.Sprint("challenge ", p.Zone)]++
		case *packet.ZCRTakeover:
			n[fmt.Sprint("takeover ", p.Zone)]++
		}
	}
	return n
}

// checkHandles fails t if any of m's timer handles is set but no longer
// pending: the shared callback would take it for the next timer to fire.
func checkHandles(t *testing.T, m *Manager) {
	t.Helper()
	stale := func(h fabric.Timer) bool { return h != (fabric.Timer{}) && !h.Active() }
	if stale(m.session) {
		t.Error("the session timer's handle is set but not pending")
	}
	for i := range m.zones {
		zs := &m.zones[i]
		for name, h := range map[string]fabric.Timer{"watchdog": zs.watchdog, "duty": zs.duty, "takeover": zs.takeover} {
			if stale(h) {
				t.Errorf("zone %d's %s handle is set but not pending", zs.id, name)
			}
		}
	}
}

// TestManagerTimerRunsOnlyTheOneThatFired checks the Manager's shared
// timer callback. With the session timer, two zones' watchdogs, a duty
// and a takeover armed — three of them at one instant, two at another —
// each fire runs its own handler exactly once. And a timer stopped for
// good — a takeover suppressed by HandleTakeover, a duty stopped by
// setZCR — never later reads as the timer that fired.
func TestManagerTimerRunsOnlyTheOneThatFired(t *testing.T) {
	t.Run("each handler once", func(t *testing.T) {
		m, net := seededDeep(t)
		leaf, mid, top := &m.zones[0], &m.zones[1], &m.zones[2]
		top.duty.Stop() // re-armed below, at a chosen time
		m.arm(&m.session, 1)
		m.arm(&leaf.watchdog, 1)
		m.arm(&mid.watchdog, 1)
		m.arm(&top.duty, 1.01)
		leaf.pendingDist = 0.01
		m.arm(&leaf.takeover, 1.01)
		for i := range 5 {
			if !net.q.Step() || net.q.Now() > 11.01 {
				t.Fatalf("step %d: now %v, want one of the armed timers by 11.01", i, net.q.Now())
			}
		}
		want := map[string]int{
			// The session timer: one message per zone node 3 speaks in —
			// its leaf zone, and Z1 and Z0 as Z1's ZCR.
			"session 3": 1, "session 1": 1, "session 0": 1,
			// The watchdogs: their incumbents have gone quiet, so each
			// challenges for its zone.
			"challenge 3": 1, "challenge 2": 1,
			// The duty: Z1's periodic challenge.
			"challenge 1": 1,
			// The takeover: announced to the leaf zone and its parent.
			"takeover 3": 2,
		}
		if got := sentCounts(net); !maps.Equal(got, want) {
			t.Errorf("sent %v, want %v", got, want)
		}
		if leaf.zcr != m.node {
			t.Error("the takeover did not make node 3 the leaf zone's ZCR")
		}
		checkHandles(t, m)
	})

	t.Run("stopped for good", func(t *testing.T) {
		m, net := seededDeep(t)
		leaf := &m.zones[0]
		now := net.q.Now()
		// A duty taken and lost: setZCR stops it.
		m.SeedZCR(leaf.id, m.node)
		if !leaf.duty.Active() {
			t.Fatal("set-up: taking the leaf zone armed no duty")
		}
		m.SeedZCR(leaf.id, 4)
		if leaf.duty != (fabric.Timer{}) {
			t.Error("setZCR stopped the duty but left its handle set")
		}
		// A takeover suppressed by a closer one.
		m.considerTakeover(leaf, 0.01)
		if !leaf.takeover.Active() {
			t.Fatal("set-up: no takeover pending")
		}
		m.HandleTakeover(now, &packet.ZCRTakeover{Origin: 4, Zone: int16(leaf.id), DistToParent: 0.005})
		if leaf.takeover != (fabric.Timer{}) {
			t.Error("HandleTakeover suppressed the takeover but left its handle set")
		}
		// The callback scans the leaf zone before Z2: a stale handle
		// there would be taken for Z2's watchdog.
		net.sent = net.sent[:0]
		m.arm(&m.zones[1].watchdog, 0.5)
		if !net.q.Step() || net.q.Now() != now+0.5 {
			t.Fatalf("Z2's watchdog did not fire at %v (now %v)", now+0.5, net.q.Now())
		}
		if got, want := sentCounts(net), map[string]int{"challenge 2": 1}; !maps.Equal(got, want) {
			t.Errorf("sent %v, want %v", got, want)
		}
		checkHandles(t, m)
	})
}
