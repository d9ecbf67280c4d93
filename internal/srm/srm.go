// Package srm implements the Scalable Reliable Multicast protocol of
// Floyd, Jacobson, McCanne, Liu and Zhang (SIGCOMM '95) — the pure-ARQ
// baseline of the paper's Figures 14–15.
//
// SRM has no FEC and no scoping: every packet is individually NACKed and
// retransmitted at global scope, with receiver-based repair and
// distance-proportional suppression timers. Session messages carry
// all-pairs RTT state (the O(n²) cost SHARQFEC's hierarchy removes).
// Following the paper's setup, the simulation runs SRM "with adaptive
// timers turned on for best possible performance": the request and reply
// timer constants adapt to observed duplicate requests/replies in the
// style of the SRM paper's adaptive algorithm.
package srm

import (
	"fmt"
	"sort"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/session"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// SRM's constants, matching the paper's simulations (same stream as
// SHARQFEC).
const (
	// payloadSize and interPacket are SHARQFEC's: 1000-byte wire
	// packets (17-byte data header) at 800 kbit/s, one every 10 ms.
	payloadSize = 1000 - 17
	interPacket = float64(payloadSize+17) * 8 / 800e3
	// initC1, initC2 are the initial request-timer constants, shaping
	// 2^i·U[C1·d, (C1+C2)·d]; initD1, initD2 the initial reply-timer
	// constants, shaping U[D1·d, (D1+D2)·d]. They adapt from there,
	// within the documented bounds.
	initC1, initC2 = 2.0, 2.0
	initD1, initD2 = 1.0, 1.0
	// holdDown is the quiet period (in units of one-way distance to the
	// requester) after sending or hearing a repair during which new
	// requests for the same packet are ignored (the SRM paper's "3·d"
	// ignore-backoff).
	holdDown = 3
)

// Config carries SRM's run parameters.
type Config struct {
	Source     topology.NodeID
	NumPackets int

	// Telemetry receives the request/repair lifecycle events its sinks
	// read (the SRM analogue of core's emissions); nil reads none.
	Telemetry *telemetry.Bus
}

// DefaultConfig returns SRM defaults matching the paper's simulations.
func DefaultConfig() Config {
	return Config{
		Source:     0,
		NumPackets: 1024,
	}
}

// Stats are per-agent counters.
type Stats struct {
	RequestsSent       int
	RequestsSuppressed int
	RepairsSent        int
	DataReceived       int
}

// pktState tracks one sequence number at one receiver.
type pktState struct {
	have     bool
	payload  []byte
	reqTimer fabric.Timer
	reqExp   int // i in 2^i·[C1 d, (C1+C2) d]; 0 initially per SRM
	repTimer fabric.Timer
	holdTill eventq.Time // ignore requests until then (hold-down)
	// dupReq/dupRep count duplicates observed for timer adaptation.
	dupReq, dupRep int
	requestedAt    eventq.Time
	// lossDetected/lostAt record the first loss_detected emission so
	// hold can close the recovery span (and session-end accounting can
	// mark it unrecovered) with the true detection timestamp.
	lossDetected bool
	lostAt       eventq.Time
}

// Agent is one SRM session member.
type Agent struct {
	node topology.NodeID
	net  fabric.Network
	cfg  Config
	rng  *simrand.Rand
	sess *session.Manager
	tel  *telemetry.Bus

	isSource bool
	root     scoping.ZoneID

	pkts   map[uint32]*pktState
	maxSeq int64

	// adaptive timer state (EWMAs of duplicates and delay ratios)
	c1, c2, d1, d2 float64
	aveDupReq      float64
	aveDupRep      float64

	// OnDeliver fires for every original packet the first time it is
	// held (received or repaired).
	OnDeliver func(now eventq.Time, seq uint32, payload []byte)

	stopped bool

	Stats Stats
}

// New creates an SRM agent and attaches it to the network. SRM ignores
// the zone hierarchy: all traffic uses the root (global) scope.
func New(node topology.NodeID, net fabric.Network, cfg Config, src *simrand.Source) (*Agent, error) {
	if cfg.NumPackets <= 0 {
		return nil, fmt.Errorf("srm: NumPackets must be positive")
	}
	a := &Agent{
		node:     node,
		net:      net,
		cfg:      cfg,
		rng:      src.StreamN("srm", int(node)),
		isSource: node == cfg.Source,
		root:     net.Hierarchy().Root(),
		pkts:     make(map[uint32]*pktState),
		maxSeq:   -1,
		c1:       initC1, c2: initC2,
		d1: initD1, d2: initD2,
		tel: cfg.Telemetry,
	}
	a.sess = session.New(node, net, session.Config{Telemetry: cfg.Telemetry}, src.StreamN("session", int(node)))
	net.Attach(node, a)
	return a, nil
}

// Node returns the agent's node ID.
func (a *Agent) Node() topology.NodeID { return a.node }

// Join starts session management (the source heads the global zone).
func (a *Agent) Join() { a.sess.Start(a.isSource) }

// Stop fails the member (the crash model the fault engine uses): it
// stops sending and reacting entirely, while the network keeps
// forwarding through its attachment point — mirroring core.Agent.Stop.
func (a *Agent) Stop() {
	a.stopped = true
	a.sess.Stop()
}

// Stopped reports whether Stop was called.
func (a *Agent) Stopped() bool { return a.stopped }

// StartSource schedules the CBR stream from the current simulated time.
func (a *Agent) StartSource() {
	if !a.isSource {
		panic("srm: StartSource on a receiver")
	}
	ipt := eventq.Duration(interPacket)
	for s := 0; s < a.cfg.NumPackets; s++ {
		seq := uint32(s)
		a.net.Sched().After(eventq.Duration(float64(s))*ipt, func(now eventq.Time) {
			a.sourceSend(now, seq)
		})
	}
}

func (a *Agent) sourceSend(now eventq.Time, seq uint32) {
	if a.stopped {
		return
	}
	payload := make([]byte, payloadSize)
	for j := range payload {
		payload[j] = byte(a.rng.IntN(256))
	}
	st := a.state(seq)
	st.have = true
	st.payload = payload
	a.net.Multicast(a.node, a.root, &packet.Data{
		Origin:  a.node,
		Seq:     seq,
		Group:   seq, // SRM has no groups; mirror seq for the codecs
		Index:   0,
		GroupK:  1,
		Payload: payload,
	})
	a.sess.MaxSeq = seq + 1
}

func (a *Agent) state(seq uint32) *pktState {
	st := a.pkts[seq]
	if st == nil {
		st = &pktState{}
		a.pkts[seq] = st
	}
	return st
}

// Receive implements fabric.Agent.
func (a *Agent) Receive(now eventq.Time, d fabric.Delivery) {
	if a.stopped {
		return
	}
	if sp, ok := d.Pkt.(*packet.Session); ok {
		if hw := int64(sp.MaxSeq) - 1; !a.isSource && hw > a.maxSeq {
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
		a.handleRequest(now, p)
	}
}

// handleData stores an original packet and opens loss gaps.
func (a *Agent) handleData(now eventq.Time, p *packet.Data) {
	if a.isSource {
		return
	}
	a.Stats.DataReceived++
	a.hold(now, p.Seq, p.Payload)
	if int64(p.Seq) > a.maxSeq {
		for s := a.maxSeq + 1; s < int64(p.Seq); s++ {
			a.noteLoss(now, uint32(s))
		}
		a.maxSeq = int64(p.Seq)
		if a.sess.MaxSeq < p.Seq+1 {
			a.sess.MaxSeq = p.Seq + 1
		}
	}
}

// hold records possession of seq's payload and cancels pending timers.
func (a *Agent) hold(now eventq.Time, seq uint32, payload []byte) {
	st := a.state(seq)
	if st.have {
		return
	}
	st.have = true
	st.payload = payload
	st.reqTimer.Stop()
	if st.lossDetected {
		// SRM's per-packet analogue of a group decode: a previously
		// declared loss is now held, closing its recovery span.
		// F = detection-to-recovery latency.
		a.emit(now, telemetry.KindGroupDecoded, seq, 0, 1, now.Sub(st.lostAt).Seconds())
	}
	if a.OnDeliver != nil {
		a.OnDeliver(now, seq, payload)
	}
}

// emit posts a protocol event when a sink on the agent's bus reads its
// kind.
func (a *Agent) emit(now eventq.Time, kind telemetry.Kind, seq uint32, av, bv int64, f float64) {
	if !a.tel.Wants(kind) {
		return
	}
	a.tel.Emit(telemetry.Event{
		T: now.Seconds(), Kind: kind, Node: a.node, Zone: a.root,
		Group: int64(seq), A: av, B: bv, F: f,
	})
}

// noteLoss arms a request timer for a newly detected missing packet.
func (a *Agent) noteLoss(now eventq.Time, seq uint32) {
	st := a.state(seq)
	if st.have {
		return
	}
	if !st.lossDetected {
		// First detection of this sequence number (re-arms after
		// suppression or loss of the repair are not new losses).
		st.lossDetected = true
		st.lostAt = now
		a.emit(now, telemetry.KindLossDetected, seq, int64(seq), 0, 0)
	}
	a.armRequestTimer(now, seq, st)
}

// armRequestTimer draws the SRM request delay 2^i·U[C1·d, (C1+C2)·d]
// with d the one-way distance estimate to the source.
func (a *Agent) armRequestTimer(now eventq.Time, seq uint32, st *pktState) {
	if st.have || st.reqTimer.Active() {
		return
	}
	if st.reqExp > 8 {
		st.reqExp = 8
	}
	d := a.sess.Dist(a.cfg.Source, nil)
	f := float64(uint(1) << uint(st.reqExp))
	delay := eventq.Duration(a.rng.Uniform(f*a.c1*d, f*(a.c1+a.c2)*d))
	st.reqTimer = a.net.Sched().After(delay, func(fire eventq.Time) {
		a.requestFired(fire, seq, st)
	})
	a.emit(now, telemetry.KindNACKScheduled, seq, 1, int64(st.reqExp), delay.Seconds())
}

func (a *Agent) requestFired(now eventq.Time, seq uint32, st *pktState) {
	if st.have || a.stopped {
		return
	}
	a.net.Multicast(a.node, a.root, &packet.NACK{
		Origin:    a.node,
		Group:     seq,
		LLC:       1,
		Needed:    1,
		MaxSeq:    uint32(a.maxSeq + 1),
		Zone:      int16(a.root),
		Ancestors: a.sess.AncestorList(),
	})
	a.Stats.RequestsSent++
	a.emit(now, telemetry.KindNACKSent, seq, 1, 1, 0)
	st.requestedAt = now
	// Back off and re-arm in case the repair is lost (SRM request
	// timers double after each transmission).
	st.reqExp++
	a.armRequestTimer(now, seq, st)
}

// handleRequest reacts to a repair request: requesters back off, holders
// schedule a suppressed retransmission.
func (a *Agent) handleRequest(now eventq.Time, p *packet.NACK) {
	seq := p.Group
	st := a.state(seq)

	// Tail-loss discovery from the request's high-water mark.
	if hw := int64(p.MaxSeq) - 1; hw > a.maxSeq && !a.isSource {
		for s := a.maxSeq + 1; s <= hw; s++ {
			a.noteLoss(now, uint32(s))
		}
		a.maxSeq = hw
	}

	if !st.have {
		// A peer asked for the same packet: exponential back-off and
		// re-draw (SRM request suppression).
		if st.reqTimer.Active() {
			st.reqTimer.Stop()
			st.reqExp++
			st.dupReq++
			a.Stats.RequestsSuppressed++
			a.emit(now, telemetry.KindNACKSuppressed, seq, 0, int64(st.reqExp), 0)
			a.armRequestTimer(now, seq, st)
		} else {
			a.noteLoss(now, seq)
		}
		return
	}

	// Holder: schedule a repair unless held down or already pending.
	if now < st.holdTill {
		st.dupReq++
		return
	}
	if st.repTimer.Active() {
		st.dupReq++
		return
	}
	d := a.sess.Dist(p.Origin, p.Ancestors)
	delay := eventq.Duration(a.rng.Uniform(a.d1*d, (a.d1+a.d2)*d))
	st.repTimer = a.net.Sched().After(delay, func(fire eventq.Time) {
		a.replyFired(fire, seq, st, d)
	})
	a.emit(now, telemetry.KindRepairScheduled, seq, 0, 0, delay.Seconds())
}

func (a *Agent) replyFired(now eventq.Time, seq uint32, st *pktState, d float64) {
	if a.stopped {
		return
	}
	if now < st.holdTill {
		return // someone else repaired while we waited
	}
	a.net.Multicast(a.node, a.root, &packet.Repair{
		Origin:  a.node,
		Group:   seq,
		Index:   0,
		GroupK:  1,
		Zone:    int16(a.root),
		Payload: st.payload,
	})
	a.Stats.RepairsSent++
	a.emit(now, telemetry.KindRepairSent, seq, 0, 0, 0)
	st.holdTill = now.Add(eventq.Duration(holdDown * d))
	a.adaptAfterReply(st)
}

// handleRepair stores a retransmission and suppresses pending replies.
func (a *Agent) handleRepair(now eventq.Time, p *packet.Repair) {
	seq := p.Group
	st := a.state(seq)
	if st.have {
		st.dupRep++
		if st.repTimer.Active() {
			st.repTimer.Stop()
			a.emit(now, telemetry.KindRepairSuppressed, seq, 0, 0, 0)
		}
		st.holdTill = now.Add(eventq.Duration(holdDown * a.sess.Dist(p.Origin, nil)))
		a.adaptAfterReply(st)
		return
	}
	if !a.isSource {
		a.hold(now, seq, p.Payload)
	}
	st.reqExp = 0 // repair arrived: reset back-off (SRM)
	st.holdTill = now.Add(eventq.Duration(holdDown * a.sess.Dist(p.Origin, nil)))
	a.adaptRequestTimers(st)
}

// adaptRequestTimers implements the spirit of SRM's adaptive request
// algorithm: many duplicate requests widen the window (raise C1/C2);
// clean rounds shrink it toward faster recovery. Constants stay within
// documented bounds.
func (a *Agent) adaptRequestTimers(st *pktState) {
	a.aveDupReq = 0.75*a.aveDupReq + 0.25*float64(st.dupReq)
	st.dupReq = 0
	if a.aveDupReq > 1 {
		a.c1 += 0.1
		a.c2 += 0.5
	} else if a.aveDupReq < 0.5 {
		a.c2 -= 0.1
		a.c1 -= 0.05
	}
	a.c1 = min(max(a.c1, 0.5), 4)
	a.c2 = min(max(a.c2, 1), 8)
}

// adaptAfterReply adapts the reply constants from duplicate repairs.
func (a *Agent) adaptAfterReply(st *pktState) {
	a.aveDupRep = 0.75*a.aveDupRep + 0.25*float64(st.dupRep)
	st.dupRep = 0
	if a.aveDupRep > 1 {
		a.d1 += 0.1
		a.d2 += 0.5
	} else if a.aveDupRep < 0.5 {
		a.d2 -= 0.1
		a.d1 -= 0.05
	}
	a.d1 = min(max(a.d1, 0.5), 4)
	a.d2 = min(max(a.d2, 1), 8)
}

// EmitUnrecoveredLosses posts a terminal KindLossUnrecovered event for
// every detected loss still missing when the run ends — the SRM mirror
// of core.Agent.EmitUnrecoveredLosses. Deterministic order (ascending
// sequence); a no-op when no sink reads the kind.
func (a *Agent) EmitUnrecoveredLosses(now eventq.Time) {
	if !a.tel.Wants(telemetry.KindLossUnrecovered) {
		return
	}
	seqs := make([]uint32, 0, len(a.pkts))
	for seq := range a.pkts {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		st := a.pkts[seq]
		if st.lossDetected && !st.have && int(seq) < a.cfg.NumPackets {
			a.emit(now, telemetry.KindLossUnrecovered, seq, int64(seq), 0, 0)
		}
	}
}

// Held reports how many original packets this agent holds.
func (a *Agent) Held() int {
	n := 0
	for seq, st := range a.pkts {
		if st.have && int(seq) < a.cfg.NumPackets {
			n++
		}
	}
	return n
}

// Payload returns the held payload for seq, if any.
func (a *Agent) Payload(seq uint32) ([]byte, bool) {
	st := a.pkts[seq]
	if st == nil || !st.have {
		return nil, false
	}
	return st.payload, true
}
