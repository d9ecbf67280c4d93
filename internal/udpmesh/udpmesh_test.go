package udpmesh

import (
	"bytes"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/session"
	"sharqfec/internal/simrand"
	"sharqfec/internal/srm"
	"sharqfec/internal/topology"
)

// twoLevelChainSpec builds the chain-with-child-zone layout used by the
// over-UDP tests.
func twoLevelChainSpec() *topology.Spec {
	spec := topology.Chain(4, 10e6, 0.010, 0)
	spec.Zones = []topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1, 2, 3}},
	}
	return spec
}

func buildMesh(t *testing.T, spec *topology.Spec, loss float64, seed uint64) (*Mesh, map[topology.NodeID]*Node) {
	t.Helper()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	mesh, nodes, err := NewLocalMesh(h, spec.Members(), loss, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return mesh, nodes
}

// chanAgent forwards deliveries to a channel.
type chanAgent struct{ ch chan fabric.Delivery }

func (a chanAgent) Receive(_ eventq.Time, d fabric.Delivery) { a.ch <- d }

// Timers belong to the node's executor, like the agent state they serve:
// the tests arm, stop and read them inside Do, as the protocols do from
// Receive and from timer callbacks.
func TestTimerFiresAndStops(t *testing.T) {
	spec := twoLevelChainSpec()
	_, nodes := buildMesh(t, spec, 0, 1)
	n := nodes[0]

	fired := make(chan eventq.Time, 1)
	n.Do(func() { n.Sched().After(0.01, func(now eventq.Time) { fired <- now }) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire")
	}

	stopped := make(chan [2]bool, 1)
	n.Do(func() {
		tm := n.Sched().After(0.05, func(eventq.Time) { fired <- 0 })
		stopped <- [2]bool{tm.Stop(), tm.Active()}
	})
	if got := <-stopped; got != [2]bool{true, false} {
		t.Fatalf("Stop, Active on a pending timer = %v, want [true false]", got)
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(200 * time.Millisecond):
	}
}

// TestTimerAfterIdleGapCountsFromNow: the timer queue's clock stands at
// the executor's last wake-up, which on an idle node can be long ago. A
// timer must fire d after the moment it is armed, and its callback must
// be told the time it actually ran.
func TestTimerAfterIdleGapCountsFromNow(t *testing.T) {
	_, nodes := buildMesh(t, twoLevelChainSpec(), 0, 1)
	n := nodes[0]
	time.Sleep(300 * time.Millisecond) // nothing posted, nothing armed: the executor sleeps
	const d = 0.1
	type firing struct{ armed, told, ran eventq.Time }
	fired := make(chan firing, 1)
	n.Do(func() {
		armed := n.Sched().Now()
		n.Sched().After(d, func(now eventq.Time) { fired <- firing{armed, now, n.Sched().Now()} })
	})
	select {
	case f := <-fired:
		if f.armed < 0.3 {
			t.Fatalf("armed at %v, before the idle gap ended", f.armed)
		}
		if f.told < f.armed.Add(d) || f.told > f.ran {
			t.Fatalf("armed at %v for %vs: callback told %v, ran at %v", f.armed, d, f.told, f.ran)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire")
	}
}

// TestTimerArmAndStopAllocateNothing: on the UDP substrate, as on the
// simulator's, arming a timer and stopping it allocates nothing — the
// callback is queued as it is and the queue's Clock tells it the
// wall-clock time — so core's one callback per group costs no
// allocation per arm here either.
func TestTimerArmAndStopAllocateNothing(t *testing.T) {
	_, nodes := buildMesh(t, twoLevelChainSpec(), 0, 1)
	n := nodes[0]
	allocs := make(chan float64, 1)
	n.Do(func() {
		s := n.Sched()
		fn := func(eventq.Time) {}
		allocs <- testing.AllocsPerRun(1000, func() { s.After(1, fn).Stop() })
	})
	if got := <-allocs; got != 0 {
		t.Fatalf("After + Stop allocates %.1f per arm, want 0", got)
	}
}

// TestStopPreventsADueTimer: a timer whose time has come while the
// executor was busy has not fired until the executor runs it, and Stop
// from the work that kept it busy still prevents that. Timers due
// together fire in time order.
func TestStopPreventsADueTimer(t *testing.T) {
	_, nodes := buildMesh(t, twoLevelChainSpec(), 0, 1)
	n := nodes[0]
	order := make(chan int, 3)
	stopped := make(chan bool, 1)
	n.Do(func() {
		n.Sched().After(0.004, func(eventq.Time) { order <- 2 })
		due := n.Sched().After(0.001, func(eventq.Time) { order <- 0 })
		n.Sched().After(0.002, func(eventq.Time) { order <- 1 })
		time.Sleep(20 * time.Millisecond) // all three are due; none can have run
		stopped <- due.Active() && due.Stop() && !due.Stop()
	})
	if !<-stopped {
		t.Fatal("a due, unfired timer was not active, or Stop did not report preventing it exactly once")
	}
	for _, want := range []int{1, 2} {
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("timer %d fired, want %d", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timer %d did not fire", want)
		}
	}
	select {
	case got := <-order:
		t.Fatalf("timer %d fired after it was stopped", got)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestCloseWithTimersPendingLeaksNothing: pending timers are entries in
// the node's queue, not runtime timers or goroutines of their own, so
// Close — which waits for the executor and the reader — leaves nothing
// behind, and the timers never fire.
func TestCloseWithTimersPendingLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	h, err := scoping.Build(twoLevelChainSpec().Zones)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes, err := NewLocalMesh(h, twoLevelChainSpec().Members(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int32
	for _, n := range nodes {
		n := n
		armed := make(chan struct{})
		n.Do(func() {
			for i := 0; i < 100; i++ {
				n.Sched().After(eventq.Duration(0.05+float64(i)), func(eventq.Time) { fired.Add(1) })
			}
			close(armed)
		})
		<-armed
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond) // past the earliest timers' time
	if got := fired.Load(); got != 0 {
		t.Errorf("%d timers fired after Close", got)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the mesh, %d after closing it", before, after)
	}
}

func TestUnicastFanOutDelivers(t *testing.T) {
	spec := twoLevelChainSpec()
	_, nodes := buildMesh(t, spec, 0, 2)
	got := make(chan fabric.Delivery, 16)
	for _, m := range []topology.NodeID{1, 2, 3} {
		nodes[m].Attach(m, chanAgent{got})
	}
	nodes[0].Multicast(0, 0, &packet.NACK{Origin: 0, Group: 7, LLC: 1, Needed: 1})

	seen := map[topology.NodeID]bool{}
	deadline := time.After(3 * time.Second)
	for len(seen) < 3 {
		select {
		case d := <-got:
			n, ok := d.Pkt.(*packet.NACK)
			if !ok || n.Group != 7 || d.From != 0 {
				t.Fatalf("unexpected delivery %+v", d)
			}
			// We cannot tell which node received from the delivery, but
			// three distinct deliveries on a 3-member channel suffice.
			seen[topology.NodeID(len(seen))] = true
		case <-deadline:
			t.Fatalf("only %d of 3 members heard the multicast", len(seen))
		}
	}
}

func TestZoneScopingOverUDP(t *testing.T) {
	spec := twoLevelChainSpec()
	_, nodes := buildMesh(t, spec, 0, 3)
	rootGot := make(chan fabric.Delivery, 4)
	zoneGot := make(chan fabric.Delivery, 4)
	nodes[0].Attach(0, chanAgent{rootGot})
	nodes[2].Attach(2, chanAgent{zoneGot})
	nodes[3].Attach(3, chanAgent{zoneGot})

	// Node 1 multicasts to zone 1: members 2 and 3 hear it, node 0
	// (root only) must not.
	nodes[1].Multicast(1, 1, &packet.NACK{Origin: 1, Group: 9})
	for i := 0; i < 2; i++ {
		select {
		case <-zoneGot:
		case <-time.After(3 * time.Second):
			t.Fatal("zone member missed scoped packet")
		}
	}
	select {
	case <-rootGot:
		t.Fatal("root-only member heard a zone-scoped packet")
	case <-time.After(200 * time.Millisecond):
	}
}

func TestSyntheticLossSparesLosslessPackets(t *testing.T) {
	spec := twoLevelChainSpec()
	_, nodes := buildMesh(t, spec, 1.0, 4) // drop every lossy packet
	got := make(chan fabric.Delivery, 8)
	nodes[1].Attach(1, chanAgent{got})

	nodes[0].Multicast(0, 0, &packet.Data{Origin: 0, Seq: 1, GroupK: 16, Payload: []byte{1}})
	nodes[0].Multicast(0, 0, &packet.NACK{Origin: 0, Group: 1})
	select {
	case d := <-got:
		if d.Pkt.Kind() != packet.TypeNACK {
			t.Fatalf("lossy packet survived 100%% loss: %s", d.Pkt.Kind())
		}
	case <-time.After(3 * time.Second):
		t.Fatal("lossless packet dropped")
	}
}

func TestAttachForeignNodePanics(t *testing.T) {
	spec := twoLevelChainSpec()
	_, nodes := buildMesh(t, spec, 0, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nodes[0].Attach(1, chanAgent{make(chan fabric.Delivery)})
}

func TestSHARQFECOverUDP(t *testing.T) {
	// The full protocol over real sockets: a 32-packet stream at
	// 1 ms/packet with 15% synthetic loss on data and repairs; every
	// receiver must reconstruct every group, bytes verified.
	spec := twoLevelChainSpec()
	_, nodes := buildMesh(t, spec, 0.15, 6)

	cfg := core.DefaultConfig()
	cfg.NumPackets = 32
	cfg.Rate = 8e6 // 1 ms per packet: keeps the wall-clock test short

	type completion struct {
		node topology.NodeID
		gid  uint32
		data [][]byte
	}
	done := make(chan completion, 64)

	src := simrand.New(6)
	agents := map[topology.NodeID]*core.Agent{}
	for _, m := range spec.Members() {
		ag, err := core.New(m, nodes[m], cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		node := m
		if m != spec.Source {
			ag.OnComplete = func(_ eventq.Time, gid uint32, data [][]byte) {
				// data is only valid during the call, and the reader is
				// another goroutine: send a copy.
				kept := make([][]byte, len(data))
				for i, d := range data {
					kept[i] = slices.Clone(d)
				}
				done <- completion{node: node, gid: gid, data: kept}
			}
		}
		agents[m] = ag
	}
	// Join everyone, then start the source, on their own executors.
	for _, m := range spec.Members() {
		ag := agents[m]
		nodes[m].post(func() { ag.Join() })
	}
	time.Sleep(500 * time.Millisecond) // session warm-up (real time)
	srcNode := nodes[spec.Source]
	srcAgent := agents[spec.Source]
	srcNode.post(func() { srcAgent.StartSource() })

	want := (len(spec.Members()) - 1) * cfg.NumGroups()
	completions := map[topology.NodeID]map[uint32][][]byte{}
	total := 0
	deadline := time.After(30 * time.Second)
	for total < want {
		select {
		case c := <-done:
			if completions[c.node] == nil {
				completions[c.node] = map[uint32][][]byte{}
			}
			if completions[c.node][c.gid] == nil {
				completions[c.node][c.gid] = c.data
				total++
			}
		case <-deadline:
			t.Fatalf("recovered %d/%d (receiver,group) pairs before the deadline", total, want)
		}
	}
	// Verify payloads against the source's transmit buffer.
	for node, groups := range completions {
		for gid, data := range groups {
			wantData := srcAgent.SentGroup(gid)
			for i := range wantData {
				if !bytes.Equal(data[i], wantData[i]) {
					t.Fatalf("node %d group %d share %d corrupted over UDP", node, gid, i)
				}
			}
		}
	}
}

func TestSRMOverUDP(t *testing.T) {
	// The SRM baseline also runs unmodified over sockets.
	spec := twoLevelChainSpec()
	_, nodes := buildMesh(t, spec, 0.15, 7)

	cfg := srm.DefaultConfig()
	cfg.NumPackets = 32 // 0.32 s at SRM's fixed 10 ms per packet

	src := simrand.New(7)
	agents := map[topology.NodeID]*srm.Agent{}
	delivered := make(chan topology.NodeID, 256)
	for _, m := range spec.Members() {
		ag, err := srm.New(m, nodes[m], cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		node := m
		if m != spec.Source {
			ag.OnDeliver = func(eventq.Time, uint32, []byte) { delivered <- node }
		}
		agents[m] = ag
	}
	for _, m := range spec.Members() {
		ag := agents[m]
		nodes[m].Do(func() { ag.Join() })
	}
	time.Sleep(400 * time.Millisecond)
	srcNode, srcAgent := nodes[spec.Source], agents[spec.Source]
	srcNode.Do(func() { srcAgent.StartSource() })

	want := (len(spec.Members()) - 1) * cfg.NumPackets
	got := 0
	deadline := time.After(30 * time.Second)
	for got < want {
		select {
		case <-delivered:
			got++
		case <-deadline:
			t.Fatalf("delivered %d/%d packets before deadline", got, want)
		}
	}
}

func TestZCRElectionOverUDP(t *testing.T) {
	// §5.2 elections over real sockets, with genuinely unsynchronized
	// per-node clocks: the closest member must still win.
	spec := twoLevelChainSpec()
	_, nodes := buildMesh(t, spec, 0, 8)

	src := simrand.New(8)
	mgrs := map[topology.NodeID]*session.Manager{}
	for _, m := range spec.Members() {
		mgr := session.New(m, nodes[m], session.DefaultConfig(), src.StreamN("session", int(m)))
		mgrs[m] = mgr
		node, isSrc := m, m == spec.Source
		nodes[m].Attach(m, sessionFwd{mgr})
		nodes[node].Do(func() { mgr.Start(isSrc) })
	}
	// Loopback "distances" are sub-millisecond and noisy, so the closest
	// receiver is not topologically determined — but the election must
	// still converge on a single unanimous ZCR for zone 1.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(500 * time.Millisecond)
		votes := map[topology.NodeID]int{}
		done := make(chan topology.NodeID, 3)
		for _, m := range []topology.NodeID{1, 2, 3} {
			mgr := mgrs[m]
			nodes[m].Do(func() { done <- mgr.ZCR(1) })
		}
		for i := 0; i < 3; i++ {
			votes[<-done]++
		}
		for who, n := range votes {
			if n == 3 && who != topology.NoNode {
				return // unanimous election over real sockets
			}
		}
	}
	t.Fatal("zone-1 election never became unanimous over UDP")
}

// sessionFwd adapts a session.Manager to fabric.Agent.
type sessionFwd struct{ m *session.Manager }

func (a sessionFwd) Receive(now eventq.Time, d fabric.Delivery) { a.m.Receive(now, d.Pkt) }
