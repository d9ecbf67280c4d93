package core

import (
	"fmt"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/fec"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/session"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// Stats are per-agent protocol counters.
type Stats struct {
	NACKsSent        int
	NACKsSuppressed  int
	RepairsSent      int
	RepairsInjected  int
	GroupsCompleted  int
	DataReceived     int
	RepairsReceived  int
	DupShares        int
	ScopeEscalations int
	// BadShares counts data and repair packets refused at admission:
	// wrong group size, payload length or share index for their type, a
	// group the session does not have, or a data sequence number that is
	// not the share's place in the stream.
	BadShares int
	// BadNACKs counts requests refused the same way: for a group the
	// session does not have, or scoped to a zone the member is not in.
	BadNACKs int
}

// Agent is one SHARQFEC session member (sender or receiver).
type Agent struct {
	node  topology.NodeID
	net   fabric.Network
	cfg   Config
	src   *simrand.Source
	rng   *simrand.Rand // the "core" stream; nil until the first draw (see rand)
	sess  *session.Manager
	codec *fec.Codec
	tel   *telemetry.Bus // nil when telemetry is disabled

	root  scoping.ZoneID
	chain []scoping.ZoneID // scope chain used for NACKs: the node's zones, leaf to root

	// groups is indexed by group id, nil until the group is opened, and
	// grows on demand up to NumGroups. ensureGroup cuts records from the
	// blocks groupFree and levelFree: carved groups' worth so far.
	groups    []*group
	groupFree []group
	levelFree []level
	carved    int

	slab     groupSlab // arena backing every group's index bitsets
	maxSeq   int64     // highest original data seq seen; -1 before any
	ipt      float64
	lastData eventq.Time

	// ctrl sizes preemptive FEC injection: the predicted zone loss
	// counts maintained by the sender (root scope) and by ZCRs (their
	// zones) live behind it. Always non-nil; the static policy is the
	// default, held in static so it costs no allocation of its own.
	ctrl   Controller
	static staticController

	// sendData holds the source's original payloads, one element per
	// group, sized once in New. An element is written exactly once,
	// before its group's first packet leaves, and never again — so a
	// receiver on another shard may read it through SentGroup when it
	// completes the group: the barrier its delivery crossed orders the
	// read after the write, and no shared structure is mutated later.
	sendData [][][]byte

	// OnComplete, if set, fires when a group is complete at this node,
	// with the group's K data shares in index order. data is valid only
	// during the call: the shares this member did not receive are decoded
	// into an area the agent reuses for its next completion, and the ones
	// it did are released with the group. A callback that keeps data, or
	// hands it to another goroutine, must copy it first.
	OnComplete func(now eventq.Time, group uint32, data [][]byte)
	decoded    *decoding  // nil until the first OnComplete decode
	free       *freeLists // nil until the data path first needs one

	// The flags share one word, since a lone bool pads out a word of its
	// own. Size matters here: the runtime prefixes an object over 512
	// bytes with an 8-byte header, so an agent over 568 bytes takes the
	// 640-byte size class instead of 576, paid by every member of a
	// 10,000-receiver session.
	isSource bool
	iptInit  bool // lastData holds an arrival
	joined   bool
	stopped  bool

	// late-join state (see latejoin.go)
	lateJoiner    bool
	joinSeq       int64 // first seq of the group current at join; -1 until known
	catchUpQueue  []uint32
	catchUpActive int // groups with group.catchUp set and not yet complete

	// receiver-report tallies (original packets observed lost / total)
	rrLost, rrTotal int

	// adaptive request-timer state (§7 extension; see adaptive.go)
	c1, c2     float64
	aveDupNACK float64

	Stats Stats
}

// New creates a SHARQFEC agent for node and attaches it to the network.
func New(node topology.NodeID, net fabric.Network, cfg Config, src *simrand.Source) (*Agent, error) {
	if cfg.NumPackets%cfg.GroupK != 0 {
		return nil, fmt.Errorf("core: NumPackets (%d) must be a multiple of GroupK (%d)", cfg.NumPackets, cfg.GroupK)
	}
	codec, err := fec.NewCodec(cfg.GroupK)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a := &Agent{
		node:     node,
		net:      net,
		cfg:      cfg,
		src:      src,
		codec:    codec,
		isSource: node == cfg.Source,
		root:     net.Hierarchy().Root(),
		maxSeq:   -1,
		c1:       cfg.C1,
		c2:       cfg.C2,
		ipt:      cfg.InterPacket(), // advertised rate bootstraps the estimate
		tel:      cfg.Telemetry,
	}
	if cfg.NewController != nil {
		a.ctrl = cfg.NewController()
	}
	if a.ctrl == nil {
		a.ctrl = &a.static
	}
	a.sess = session.New(node, net, session.Config{Telemetry: cfg.Telemetry}, src.StreamN("session", int(node)))
	a.chain = net.Hierarchy().ZonesOf(node)
	if a.isSource {
		a.sendData = make([][][]byte, cfg.NumGroups())
	}
	net.Attach(node, a)
	return a, nil
}

// rand returns the agent's "core" stream, derived on its first draw so a
// member that never draws (a session-only run) never builds it. The
// stream is a function of (seed, node) alone, so when it is derived
// changes no draw.
func (a *Agent) rand() *simrand.Rand {
	if a.rng == nil {
		a.rng = a.src.StreamN("core", int(a.node))
	}
	return a.rng
}

// Node returns the agent's node ID.
func (a *Agent) Node() topology.NodeID { return a.node }

// Session exposes the agent's session manager (for experiments that
// inspect RTT state).
func (a *Agent) Session() *session.Manager { return a.sess }

// RawLossFraction returns the fraction of original packets this
// receiver observed missing at group loss-detection deadlines — its
// published receiver report.
func (a *Agent) RawLossFraction() float64 {
	if a.rrTotal == 0 {
		return 0
	}
	return float64(a.rrLost) / float64(a.rrTotal)
}

// SentGroup returns the original payloads the source transmitted for a
// group (nil on receivers or for groups not yet sent).
func (a *Agent) SentGroup(gid uint32) [][]byte {
	if int(gid) >= len(a.sendData) {
		return nil
	}
	return a.sendData[gid]
}

// Join subscribes the member: packets are processed from this moment and
// session management starts. The source declares itself the root-zone
// ZCR.
func (a *Agent) Join() {
	a.joined = true
	a.sess.Start(a.isSource)
}

// Stop fails the member: it stops sending and reacting entirely, while
// the network keeps forwarding through its attachment point — the ZCR
// failure model of §3.2/§5.2.
func (a *Agent) Stop() {
	a.stopped = true
	a.sess.Stop()
}

// Stopped reports whether Stop was called.
func (a *Agent) Stopped() bool { return a.stopped }

// StartSource schedules the source's CBR transmission beginning at the
// current simulation time: NumPackets data packets at the configured
// rate, in groups of GroupK, with preemptive redundancy per group when
// injection is enabled. Payload bytes are generated deterministically
// from the agent's random stream.
func (a *Agent) StartSource() {
	if !a.isSource {
		panic("core: StartSource on a receiver")
	}
	ipt := eventq.Duration(a.cfg.InterPacket())
	// The sends share one callback: they fire in the order they are
	// scheduled (increasing times, FIFO on ties), so a cursor names each.
	var next uint32
	send := func(now eventq.Time) {
		seq := next
		next++
		a.sourceSend(now, seq)
	}
	for s := 0; s < a.cfg.NumPackets; s++ {
		a.net.Sched().After(eventq.Duration(float64(s))*ipt, send)
	}
}

// sourceSend transmits data packet seq and, at each group boundary,
// performs the sender's repair-phase entry (§4 RP rules).
func (a *Agent) sourceSend(now eventq.Time, seq uint32) {
	if a.stopped {
		return
	}
	k := a.cfg.GroupK
	gid := seq / uint32(k)
	idx := int(seq) % k
	data := a.sendData[gid]
	if data == nil {
		// One block per group, sliced per payload (capacity-clipped so
		// an append can never bleed into a neighbor): k payloads cost
		// one allocation instead of k, and the bytes and RNG draw order
		// are identical to per-payload allocation.
		data = make([][]byte, k)
		sz := payloadSize
		block := make([]byte, k*sz)
		for i := range data {
			p := block[i*sz : (i+1)*sz : (i+1)*sz]
			for j := range p {
				p[j] = byte(a.rand().IntN(256))
			}
			data[i] = p
		}
		a.sendData[gid] = data
	}
	pkt := packet.CarveData()
	*pkt = packet.Data{
		Origin:  a.node,
		Seq:     seq,
		Group:   gid,
		Index:   uint8(idx),
		GroupK:  uint8(k),
		Payload: data[idx],
	}
	a.net.Multicast(a.node, a.root, pkt)
	a.sess.MaxSeq = seq + 1 // advertised as one past the high-water mark

	lastOfGroup := idx == k-1 || int(seq) == a.cfg.NumPackets-1
	if lastOfGroup {
		a.senderGroupEnd(now, gid)
	}
}

// senderGroupEnd runs when the source finishes a group's original
// packets: preemptive redundancy (if enabled), immediate service of any
// NACK-queued repairs, and scheduling of the ZLC sample for the EWMA.
func (a *Agent) senderGroupEnd(now eventq.Time, gid uint32) {
	g := a.ensureGroup(gid)
	g.complete = true // the source trivially holds all data
	g.maxShare = a.cfg.GroupK - 1

	if a.cfg.Options.Injection {
		// The source's own stream never saw upstream injections, so
		// nothing is netted out: repairsHeard = 0.
		dec := a.decide(now, g, a.root, 0)
		if dec.H > 0 {
			a.injectRepairs(now, g, a.root, dec.H)
			a.Stats.RepairsInjected += dec.H
		}
	}
	// Serve any repairs NACKed during the loss-detection phase,
	// starting immediately (§4 RP: "immediately generating and
	// transmitting the first of any queued repairs in the largest
	// scope zone").
	a.serveQueuedRepairs(now, g)
	a.scheduleZLCSample(g, len(a.chain)-1) // the root, with or without scoping
}

// Receive implements fabric.Agent: session packets go to the session
// manager; data-plane packets to the protocol handlers.
func (a *Agent) Receive(now eventq.Time, d fabric.Delivery) {
	if a.stopped || !a.joined {
		return
	}
	if sp, ok := d.Pkt.(*packet.Session); ok {
		// Session messages advertise the stream high-water mark, which
		// is the only way to detect losses at the very tail of the
		// stream (no later data packet opens the gap). A late joiner
		// instead learns the stream position from it and starts the
		// paced catch-up queue.
		hw := a.clampSeq(int64(sp.MaxSeq) - 1)
		if a.lateJoiner && a.joinSeq < 0 && hw >= 0 {
			a.observeStreamPosition(now, hw)
		}
		if !a.isSource && hw > a.maxSeq {
			for s := a.maxSeq + 1; s <= hw; s++ {
				a.noteLoss(now, uint32(s))
			}
			a.maxSeq = hw
		}
	}
	if a.sess.Receive(now, d.Pkt) {
		return
	}
	switch p := d.Pkt.(type) {
	case *packet.Data:
		a.handleData(now, p)
	case *packet.Repair:
		a.handleRepair(now, p)
	case *packet.NACK:
		a.handleNACK(now, p)
	default:
		// Unknown data-plane packet: ignore (forward compatibility).
	}
}

// scopeZone maps a scope index (into the agent's chain) to a zone.
func (a *Agent) scopeZone(idx int) scoping.ZoneID { return a.chain[idx] }

// nackScope returns the initial NACK scope per §4: the smallest zone,
// unless the source is a member of it, in which case the largest scope
// is used instead. A zone's own ZCR additionally starts at the parent
// scope: every member of its zone is downstream of it and shares its
// losses, and the Figure-2 redundancy cascade needs the next level up
// (ultimately the source) to hear the ZCR's loss count so its ZLC
// predictor covers the zone's inbound losses.
func (a *Agent) nackScope() int {
	if a.net.Hierarchy().Contains(a.chain[0], a.cfg.Source) {
		return len(a.chain) - 1
	}
	for i := 0; i < len(a.chain)-1; i++ {
		if !a.isZCR(a.chain[i]) {
			return i
		}
	}
	return len(a.chain) - 1
}

// distToSource estimates the one-way transit time to the data source for
// the request timer (d_{S,A}).
func (a *Agent) distToSource() float64 {
	return a.sess.Dist(a.cfg.Source, nil)
}

// canRepair reports whether this agent may generate repairs once it holds
// a complete group.
func (a *Agent) canRepair() bool {
	return a.isSource || !a.cfg.Options.SenderOnly
}

// emit posts a protocol event when a sink on the agent's bus reads its
// kind. Events carry no protocol state and consume no randomness, so
// instrumented and plain runs are byte-identical per seed.
func (a *Agent) emit(now eventq.Time, kind telemetry.Kind, zone scoping.ZoneID,
	group, av, bv int64, f float64) {

	if !a.tel.Wants(kind) {
		return
	}
	a.tel.Emit(telemetry.Event{
		T: now.Seconds(), Kind: kind, Node: a.node, Zone: zone,
		Group: group, A: av, B: bv, F: f,
	})
}

// decide consults the rate controller for one zone's injection size and
// publishes the decision as a telemetry event (Zone = target zone,
// A = shares owed, B = group size, F = predictor state). Emission is
// passive, so instrumented and plain runs stay byte-identical per seed.
func (a *Agent) decide(now eventq.Time, g *group, z scoping.ZoneID, repairsHeard int) Decision {
	dec := a.ctrl.Decide(z, g.k, repairsHeard)
	a.emit(now, telemetry.KindControllerDecision, z, int64(g.id), int64(dec.H), int64(dec.K), dec.Pred)
	return dec
}

// PredictedZLC exposes the controller's predicted zone loss count for
// z (0 before any ZLC sample), for tests and experiment reports.
func (a *Agent) PredictedZLC(z scoping.ZoneID) float64 { return a.ctrl.Predict(z) }

// isZCR reports whether this agent is currently the ZCR of zone z (the
// source acts as the root's ZCR).
func (a *Agent) isZCR(z scoping.ZoneID) bool {
	if z == a.root {
		return a.isSource
	}
	return a.sess.IsZCR(z)
}
