// Package netsim is the discrete-event network simulator the protocols
// run on — the reproduction's substitute for the UCB/LBNL ns simulator
// the paper used (§6).
//
// One multicast fabric (Cluster, cluster.go) joins a topology.Graph and
// a scoping.Hierarchy and holds everything packets share: link
// occupancy, loss streams and models, and the cached routes and
// fan-outs. A Network is a view of that fabric over one eventq.Queue —
// the agents attached to the nodes that queue runs, its telemetry bus,
// counters and hop pool. New builds a fabric with a single view over the
// caller's queue; NewCluster builds one view per shard of an
// eventq.ShardGroup. Protocol agents attach to nodes and exchange
// packets by multicasting to a scope zone: the packet travels the
// sender-rooted shortest-path tree, pruned to the branches that lead to
// members of the zone (administrative scoping), experiencing per-link
// store-and-forward transmission delay, FIFO queueing, propagation
// latency, and — for loss-eligible packets — independent Bernoulli loss
// per link, exactly the loss model the paper assumes. A view reports
// every transmission, delivery and drop as an event on its telemetry
// bus, and every per-link transmission to its HopTap; these are the
// only ways to observe a packet.
//
// Both constructors run the same forwarding code over the same data:
// every link direction draws its loss from its own stream (see Cluster).
package netsim

import (
	"errors"
	"fmt"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// Delivery is one packet arriving at a node (an alias of the transport
// seam's type, so protocols run unchanged on the UDP mesh).
type Delivery = fabric.Delivery

// Agent is a protocol endpoint attached to a node. Receive runs on the
// simulation goroutine and must not block; it may send packets and set
// timers.
type Agent = fabric.Agent

// ErrUnknownNode is wrapped by MulticastE when the sender is not a node
// of the simulated graph.
var ErrUnknownNode = errors.New("unknown node")

// ErrUnknownZone is wrapped by MulticastE when the destination zone does
// not exist in the scoping hierarchy.
var ErrUnknownZone = errors.New("unknown zone")

// LossModel replaces the default per-link Bernoulli draw for one link
// direction. Drop is consulted once per loss-eligible packet crossing
// the direction and reports whether the packet is lost. Implementations
// own their randomness (typically a dedicated simrand stream), so
// installing a model never perturbs the draws of unaffected links.
type LossModel interface {
	Drop() bool
}

// Network is one event queue's view of a multicast fabric: the whole
// network when built by New, one shard of it when built by NewCluster.
// Agents attach to the view whose queue runs their node, and send and
// receive through it; link state, loss models and the hierarchy are the
// fabric's, so the mutators below act network-wide from any view.
type Network struct {
	Q *eventq.Queue
	G *topology.Graph
	H *scoping.Hierarchy

	agents []Agent
	// tel receives a transport event per transmission, delivery and
	// drop whose kind a sink reads: every packet measurement reads it.
	// nil (the default) reads none.
	tel *telemetry.Bus
	// hopTap, when non-nil, observes every per-link transmission during
	// multicast fan-out (after queueing, before the loss draw): packets
	// lost in flight occupied the wire and are reported; tail-dropped
	// packets never transmitted and are not. nil keeps the path free.
	hopTap HopTap

	// QueueLimit bounds each link direction's transmit backlog in
	// packets; beyond it, packets are tail-dropped (congestion loss).
	// Zero means unbounded (the paper's model: loss is Bernoulli only).
	QueueLimit int

	// cluster is the fabric this view belongs to and shard its index
	// there (the value Cluster.Owner reports for the nodes it runs).
	cluster *Cluster
	shard   int32

	// hopFree recycles hop structs, so a hop costs no allocation in
	// steady state: a hop is itself the eventq.Event its arrival runs,
	// so queueing it binds no closure. A view's queue runs its events on
	// one goroutine, so a plain free list suffices and stays
	// deterministic. New hops are carved from hopBlk, the unused rest of
	// a block of hopBlock. parked holds the hops of other views that
	// landed here; the barrier sends them home (Cluster.returnHops),
	// since another goroutine owns their pool.
	hopFree []*hop
	hopBlk  []hop
	parked  []*hop
	// scratch is the span builder's working memory. It lives on the
	// view, never on the fabric: builders run concurrently on shard
	// goroutines.
	scratch spanScratch

	// Counters for coarse validation and benchmarks.
	sent       uint64
	delivered  uint64
	dropped    uint64
	taildrops  uint64
	faultdrops uint64
}

// New creates a network over g and h with a single view on q: the
// fabric of a one-shard cluster, without the shard group. Loss draws
// come from the same per-(link, dir) streams NewCluster uses, so the
// same traffic meets the same losses on either.
func New(q *eventq.Queue, g *topology.Graph, h *scoping.Hierarchy, src *simrand.Source) *Network {
	return newFabric(nil, []*eventq.Queue{q}, g, h, src, make([]int32, g.NumNodes())).nets[0]
}

// Attach binds an agent to a node (joining the session). Passing nil
// detaches.
func (n *Network) Attach(node topology.NodeID, a Agent) {
	n.agents[node] = a
}

// AgentAt returns the agent attached to node, or nil.
func (n *Network) AgentAt(node topology.NodeID) Agent { return n.agents[node] }

// Sched implements fabric.Network over the virtual clock.
func (n *Network) Sched() fabric.Scheduler { return simScheduler{n.Q} }

// Hierarchy implements fabric.Network.
func (n *Network) Hierarchy() *scoping.Hierarchy { return n.H }

// simScheduler adapts the event queue to the fabric.Scheduler interface.
type simScheduler struct{ q *eventq.Queue }

func (s simScheduler) Now() eventq.Time { return s.q.Now() }
func (s simScheduler) After(d eventq.Duration, fn func(eventq.Time)) fabric.Timer {
	return s.q.After(d, fn)
}

var _ fabric.Network = (*Network)(nil)

// SetTelemetry attaches (or, with nil, detaches) a telemetry bus that
// receives packet_sent / packet_delivered / drop events. A delivery's
// event is emitted before the member's agent receives the packet, so a
// sink reads the agent's state as it stood before the arrival.
func (n *Network) SetTelemetry(b *telemetry.Bus) { n.tel = b }

// HopTap observes one per-link transmission: link index li, direction
// dir (0 = A→B, 1 = B→A) and the packet on the wire. Taps must be
// passive — they run inline on the forwarding path.
type HopTap func(li, dir int, pkt packet.Packet)

// SetHopTap attaches (or, with nil, detaches) a per-link transmission
// observer — the census engine's view of where bytes actually flow.
func (n *Network) SetHopTap(t HopTap) { n.hopTap = t }

// Stats returns (multicasts sent, packets delivered to members, packets
// dropped by link loss) as counted on this view.
func (n *Network) Stats() (sent, delivered, dropped uint64) {
	return n.sent, n.delivered, n.dropped
}

// TailDrops returns the number of packets lost to transmit-queue
// overflow (only possible with QueueLimit > 0).
func (n *Network) TailDrops() uint64 { return n.taildrops }

// FaultDrops returns the number of packets discarded because their next
// link was administratively down (only possible after SetLinkUp).
func (n *Network) FaultDrops() uint64 { return n.faultdrops }

// SetLinkUp enables or disables a link mid-simulation, discarding the
// routes and fan-outs that depended on it. Packets already in flight
// keep the fan-out they started on: those past the link still arrive
// (they were on the wire), those reaching a downed link are discarded
// and counted by FaultDrops. Like every mutator here it must run with
// the whole fabric quiescent — an ordinary event under New, a
// ShardGroup.Sync barrier under NewCluster.
func (n *Network) SetLinkUp(link int, up bool) {
	c := n.cluster
	if c.G.LinkUp(link) == up {
		return
	}
	c.G.SetLinkUp(link, up)
	c.mu.Lock()
	clear(c.spans)
	clear(c.trees)
	c.mu.Unlock()
}

// SetHierarchy swaps the scoping hierarchy mid-simulation (membership
// change: a member left or rejoined) on every view, discarding the
// fan-outs derived from it. The new hierarchy must use the same ZoneID
// numbering as the old one (scoping.WithoutMember guarantees this).
func (n *Network) SetHierarchy(h *scoping.Hierarchy) {
	c := n.cluster
	for _, v := range c.nets {
		v.H = h
	}
	c.mu.Lock()
	clear(c.spans)
	c.mu.Unlock()
}

// SetLossModel installs (or, with nil, removes) a loss-model override
// for one direction of a link (dir 0 = A→B, 1 = B→A). Links without a
// model keep the default Bernoulli draw from the graph's loss rates.
func (n *Network) SetLossModel(link, dir int, m LossModel) {
	if link < 0 || link >= n.G.NumLinks() || dir < 0 || dir > 1 {
		panic(fmt.Sprintf("netsim: SetLossModel(%d, %d) out of range", link, dir))
	}
	n.cluster.lossModels[link][dir] = m
}

// Tree returns (building if necessary) the shortest-path tree rooted at
// src that all multicasts from src follow.
func (n *Network) Tree(src topology.NodeID) *topology.Tree { return n.cluster.tree(src) }

// OneWayDelay returns the pure propagation latency from a to b along the
// routing tree (no queueing or transmission time) — the ground truth the
// RTT-estimation experiments (Figures 11–13) compare against.
func (n *Network) OneWayDelay(a, b topology.NodeID) eventq.Duration {
	return n.Tree(a).Dist[b]
}

// Multicast sends pkt from node `from` to every member of `zone` (other
// than the sender). Delivery is scheduled through the event queue; the
// call returns immediately. Invalid senders or zones are dropped
// silently (the fabric seam has no error channel); callers that want the
// cause should use MulticastE.
func (n *Network) Multicast(from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) {
	_ = n.MulticastE(from, zone, pkt)
}

// MulticastE is Multicast with validation: it reports a wrapped
// ErrUnknownNode / ErrUnknownZone instead of panicking on input that a
// public-API caller (custom topologies, scripted fault plans) can get
// wrong. A valid multicast to a zone with no other members is not an
// error; the packet simply reaches nobody. Sending from a node another
// view runs is a wiring bug and panics.
func (n *Network) MulticastE(from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) error {
	if from < 0 || int(from) >= n.G.NumNodes() {
		return fmt.Errorf("netsim: multicast from node %d: %w", from, ErrUnknownNode)
	}
	if zone < 0 || int(zone) >= n.H.NumZones() {
		return fmt.Errorf("netsim: multicast to zone %d: %w", zone, ErrUnknownZone)
	}
	if owner := n.cluster.owner[from]; owner != n.shard {
		panic(fmt.Sprintf("netsim: node %d multicast on shard %d, owned by shard %d", from, n.shard, owner))
	}
	n.sent++
	now := n.Q.Now()
	if n.tel.Wants(telemetry.KindPacketSent) {
		n.tel.Emit(telemetry.Event{
			T: now.Seconds(), Kind: telemetry.KindPacketSent, Node: from, Zone: zone,
			Group: pktGroup(pkt), A: int64(pkt.Kind()), B: int64(pkt.WireSize()),
		})
	}
	sp, at := n.fanout(from, zone)
	n.flood(now, sp, at, -1, 0, from, zone, pkt)
	return nil
}

// flood lands pkt at span node at, hops links away from its sender src:
// it delivers there if the node is a member, then forwards to every span
// neighbour except the inbound one (from; -1 at the sender itself, which
// takes no delivery) — the child set, in node-ID order, of the
// src-rooted tree. Hops that stay on this view's shard are scheduled on
// its queue; hops that leave it become cross-shard posts.
func (n *Network) flood(now eventq.Time, sp *span, at, from, hops int32,
	src topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) {

	c := n.cluster
	nd := &sp.nodes[at]
	if from >= 0 && nd.member {
		n.deliver(now, nd.v, hops, Delivery{From: src, Scope: zone, Pkt: pkt})
	}
	for e := nd.lo; e < nd.hi; e++ {
		ed := &sp.edges[e]
		if ed.to == from {
			continue
		}
		to, v := ed.to, sp.nodes[ed.to].v
		arrive, ok := n.transmit(now, ed, v, zone, pkt)
		if !ok {
			continue // the whole subtree beyond the link misses the packet
		}
		h := n.acquireHop()
		h.sp, h.at, h.from, h.hops, h.shard = sp, to, at, hops+1, c.owner[v]
		h.src, h.zone, h.pkt = src, zone, pkt
		if h.shard == n.shard {
			n.Q.AtEvent(arrive, h)
			continue
		}
		// Leaving the shard: the arrival is at least one boundary-link
		// latency away, i.e. at or past the next barrier — the
		// lookahead contract PostEvent asserts.
		c.group.PostEvent(int(n.shard), int(h.shard), arrive, h)
	}
}

// transmit pushes pkt onto span edge ed toward node `to` at time t: it
// serializes on the link direction (FIFO store-and-forward at line
// rate), applies tail-drop and loss, and returns the far-end arrival
// time, or ok=false when the packet died on the hop. Link occupancy and
// the direction's loss stream are written only here, by the view that
// runs the transmitting node.
func (n *Network) transmit(t eventq.Time, ed *spanEdge, to topology.NodeID,
	zone scoping.ZoneID, pkt packet.Packet) (arrive eventq.Time, ok bool) {

	c := n.cluster
	li, dir := int(ed.link), int(ed.dir)
	if !c.G.LinkUp(li) {
		// The fan-out predates a link failure (multicasts in flight keep
		// theirs): the packet dies at the broken link.
		n.faultdrops++
		n.emitDrop(t, telemetry.KindFaultDrop, to, zone, pkt)
		return 0, false
	}
	link := c.G.Link(li)
	start := max(t, c.linkFree[li][dir])
	txTime := eventq.Duration(float64(pkt.WireSize()*8) / link.Bandwidth)
	if n.QueueLimit > 0 && float64(start.Sub(t))/float64(txTime) > float64(n.QueueLimit) {
		n.taildrops++ // congestion: the transmit queue is full
		n.emitDrop(t, telemetry.KindTailDrop, to, zone, pkt)
		return 0, false
	}
	txDone := start.Add(txTime)
	c.linkFree[li][dir] = txDone
	if n.hopTap != nil {
		n.hopTap(li, dir, pkt)
	}
	if pkt.Lossy() {
		loss, lost := link.LossAB, false
		if dir == 1 {
			loss = link.LossBA
		}
		if m := c.lossModels[li][dir]; m != nil {
			lost = m.Drop()
		} else if loss > 0 {
			lost = c.lossStream(li, dir).Bernoulli(loss)
		}
		if lost {
			n.dropped++
			n.emitDrop(t, telemetry.KindPacketLost, to, zone, pkt)
			return 0, false
		}
	}
	return txDone.Add(link.Latency), true
}

// deliver reports an arrived packet on the bus, then hands it to the
// member node's agent.
// hops is the number of links it crossed on the fan-out it actually
// travelled (which may predate a re-route).
func (n *Network) deliver(now eventq.Time, at topology.NodeID, hops int32, d Delivery) {
	n.delivered++
	if n.tel.Wants(telemetry.KindPacketDelivered) {
		n.tel.Emit(telemetry.Event{
			T: now.Seconds(), Kind: telemetry.KindPacketDelivered, Node: at, Zone: d.Scope,
			Group: pktGroup(d.Pkt), A: int64(d.Pkt.Kind()), B: int64(d.Pkt.WireSize()),
			Origin: d.From, Hops: int64(hops),
		})
	}
	if a := n.agents[at]; a != nil {
		a.Receive(now, d)
	}
}

// emitDrop reports a packet death at node v's inbound link. The drop is
// timestamped with the forwarding decision time (the loss is decided at
// enqueue, before the propagation delay elapses).
func (n *Network) emitDrop(t eventq.Time, kind telemetry.Kind, v topology.NodeID,
	zone scoping.ZoneID, pkt packet.Packet) {

	if !n.tel.Wants(kind) {
		return
	}
	n.tel.Emit(telemetry.Event{
		T: t.Seconds(), Kind: kind, Node: v, Zone: zone,
		Group: pktGroup(pkt), A: int64(pkt.Kind()), B: int64(pkt.WireSize()),
	})
}

// pktGroup is the span-correlation field of a packet: the FEC group it
// concerns (SRM mirrors the sequence number into Group). Session
// packets — and anything else without a group — return -1, the Event
// sentinel.
func pktGroup(pkt packet.Packet) int64 {
	switch p := pkt.(type) {
	case *packet.Data:
		return int64(p.Group)
	case *packet.Repair:
		return int64(p.Group)
	case *packet.NACK:
		return int64(p.Group)
	}
	return -1
}

// hop is a packet in flight toward span node at over the edge from span
// node from: what flood needs on arrival, pooled on the sending view n.
// It is the eventq.Event of its own arrival, so flood queues (or posts)
// the pointer itself and no per-hop closure is ever made. A hop that
// changes shard lands on the destination shard's view, which parks it
// until the barrier returns it to n's pool.
type hop struct {
	n        *Network
	sp       *span
	at, from int32
	hops     int32 // links crossed from src, the one in flight included
	shard    int32 // the shard whose view runs the arrival
	src      topology.NodeID
	zone     scoping.ZoneID
	pkt      packet.Packet
}

// Fire lands the hop's packet, then recycles the hop — cleared, so
// recycled entries never pin packets or fan-outs. A hop that changed
// shard lands on that shard's view, which parks it for the barrier.
func (h *hop) Fire(now eventq.Time) {
	n := h.n
	if h.shard == n.shard {
		n.flood(now, h.sp, h.at, h.from, h.hops, h.src, h.zone, h.pkt)
		h.sp, h.pkt = nil, nil
		n.hopFree = append(n.hopFree, h)
		return
	}
	on := n.cluster.nets[h.shard]
	on.flood(now, h.sp, h.at, h.from, h.hops, h.src, h.zone, h.pkt)
	h.sp, h.pkt = nil, nil
	on.parked = append(on.parked, h)
}

// hopBlock is how many hops one allocation holds when the pool grows.
const hopBlock = 64

// acquireHop takes a hop from the free list, or carves a new one from
// the current block. A block never moves: queued events hold pointers
// to its hops.
func (n *Network) acquireHop() *hop {
	if l := len(n.hopFree); l > 0 {
		h := n.hopFree[l-1]
		n.hopFree[l-1] = nil
		n.hopFree = n.hopFree[:l-1]
		return h
	}
	if len(n.hopBlk) == 0 {
		n.hopBlk = make([]hop, hopBlock)
	}
	h := &n.hopBlk[0]
	n.hopBlk = n.hopBlk[1:]
	h.n = n
	return h
}
