package core

import (
	"sharqfec/internal/eventq"
	"sharqfec/internal/fec"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/session"
	"sharqfec/internal/telemetry"
)

// This file implements the repairer half of §4's Repair Phase: reply
// timers with RTT-proportional suppression, paced repair bursts, ZCR
// preemptive injection, and the EWMA predicted-ZLC maintenance.

// becomeRepairer runs when a node completes a group. ZCRs inject
// predicted redundancy into their zones and serve their speculative
// queues; ordinary receivers serve queued NACKs through reply timers.
func (a *Agent) becomeRepairer(now eventq.Time, g *group) {
	if !a.canRepair() {
		return
	}
	if a.cfg.Options.Injection {
		for i, z := range a.chain {
			if z == a.root || !a.isZCR(z) || g.lv[i].injected {
				continue
			}
			g.lv[i].injected = true
			// Inject the predicted zone loss, net of the redundancy
			// that already flowed into the zone with the group
			// (repairs heard from upstream injections): "should too
			// much redundancy be injected at one level, receivers in
			// subservient zones will add less" (§3.2).
			dec := a.decide(now, g, z, g.repairsHeard)
			if dec.H > 0 {
				a.injectRepairs(now, g, z, dec.H)
				a.Stats.RepairsInjected += dec.H
			}
		}
	}
	for i, z := range a.chain {
		if a.isZCR(z) && z != a.root {
			a.scheduleZLCSample(g, i)
		}
	}
	// ZCRs "generate and transmit the first of any additional queued
	// repairs to the zone for which they are responsible" immediately;
	// other repairers wait out a suppression reply timer before serving
	// requests that queued while the group was incomplete.
	if a.anyZCRDuty() {
		a.serveQueuedRepairs(now, g)
	} else if a.totalPending(g) > 0 {
		a.armReplyTimer(now, g, g.lastNACK)
	}
}

// anyZCRDuty reports whether this agent heads any zone (or is the
// source, which heads the root).
func (a *Agent) anyZCRDuty() bool {
	if a.isSource {
		return true
	}
	for _, z := range a.chain {
		if a.isZCR(z) {
			return true
		}
	}
	return false
}

// armReplyTimer schedules a suppressed reply to a NACK: uniform on
// [D1·d, (D1+D2)·d] where d is the estimated one-way distance to the
// NACK's sender. Increases to the queue do not reset a pending timer
// (§4), and there is no reply back-off.
func (a *Agent) armReplyTimer(now eventq.Time, g *group, nack *packet.NACK) {
	if g.replyTimer.Active() {
		return
	}
	if g.sendBusy {
		return // a burst is already being paced out
	}
	d := session.DefaultDist
	if nack != nil {
		d = a.sess.Dist(nack.Origin, nack.Ancestors)
	}
	delay := eventq.Duration(a.rand().Uniform(a.cfg.D1*d, (a.cfg.D1+a.cfg.D2)*d))
	a.armTimer(g, &g.replyTimer, delay)
	a.emit(now, telemetry.KindRepairScheduled, scoping.NoZone, int64(g.id), 0, 0, delay.Seconds())
}

// serveQueuedRepairs sends the speculative repair queue for every zone
// this agent can serve, widest scope first so one repair covers as many
// nested queues as possible.
func (a *Agent) serveQueuedRepairs(now eventq.Time, g *group) {
	if a.stopped {
		return
	}
	if !g.complete || g.sendBusy {
		return
	}
	// Serve from the widest zone down: repairs at a wide scope are
	// heard by (and decrement) every nested queue.
	for i := len(a.chain) - 1; i >= 0; i-- {
		z := a.chain[i]
		n := g.lv[i].pending
		if n <= 0 {
			continue
		}
		// Shrink nested queues covered by this transmission.
		for j := 0; j <= i; j++ {
			if a.net.Hierarchy().IsAncestor(z, a.chain[j]) {
				g.lv[j].pending = max(0, g.lv[j].pending-n)
			}
		}
		g.lv[i].pending = 0
		a.sendRepairBurst(now, g, z, n, false)
		return // pace one zone at a time; the burst end re-checks
	}
}

// sendRepairBurst transmits n fresh repair shares to zone z, spaced by
// repairSpacing × the inter-packet interval (§4 RP sender rule), then
// re-checks the queues. preempt marks the shares as preemptive-FEC for
// the cost census (see packet.Repair.Preemptive); it does not change
// what is sent.
func (a *Agent) sendRepairBurst(now eventq.Time, g *group, z scoping.ZoneID, n int, preempt bool) {
	first, last := g.maxShare+1, g.maxShare+n
	if last >= fec.MaxShares {
		last = fec.MaxShares - 1
	}
	if first > last {
		return
	}
	g.maxShare = last
	g.sendBusy = true
	spacing := repairSpacing * a.ipt
	// One callback paces the whole burst: share first+i at i spacings,
	// then the end-of-burst step one spacing after the last share.
	b := a.newBurst()
	b.g, b.z, b.next, b.last, b.preempt = g, z, first, last, preempt
	for i := 0; i <= last-first+1; i++ {
		a.net.Sched().After(eventq.Duration(float64(i)*spacing), b.fire)
	}
}

// burst is one repair burst being paced out. Its events fire in the
// order they were scheduled (increasing times, FIFO on ties), so each
// takes the share at the cursor, and the one after the last share ends
// the burst. The cursor is the burst's own: bursts of one group overlap
// when a ZCR injects into every zone it heads at once. A burst is the
// agent's: its last event hands it back to the agent's free list, and
// fire, made when the struct is, serves every burst it paces.
type burst struct {
	a          *Agent
	g          *group
	z          scoping.ZoneID
	next, last int
	preempt    bool
	// payloads is the burst's one payload buffer, made on its first
	// share and cut a share at a time: each payload is handed out once,
	// and the buffer lives as long as the longest-held of them.
	payloads []byte
	fire     eventq.Handler
}

// newBurst returns an idle burst from the agent's free list, or a new
// one with its callback made.
func (a *Agent) newBurst() *burst {
	f := a.freeList()
	if n := len(f.bursts); n > 0 {
		b := f.bursts[n-1]
		f.bursts = f.bursts[:n-1]
		return b
	}
	b := &burst{a: a}
	b.fire = b.step
	return b
}

func (b *burst) step(now eventq.Time) {
	if idx := b.next; idx <= b.last {
		b.next++
		b.a.transmitRepair(now, b, idx)
		return
	}
	a, g := b.a, b.g
	b.g, b.payloads = nil, nil
	a.free.bursts = append(a.free.bursts, b)
	g.sendBusy = false
	a.serveQueuedRepairs(now, g)
}

// transmitRepair computes and multicasts share idx of burst b.
func (a *Agent) transmitRepair(now eventq.Time, b *burst, idx int) {
	if a.stopped {
		return
	}
	g := b.g
	held := a.heldShares(g)
	if held == nil {
		return
	}
	if len(b.payloads) < payloadSize {
		b.payloads = make([]byte, (b.last-idx+1)*payloadSize)
	}
	payload := b.payloads[:payloadSize:payloadSize]
	if err := a.codec.ShareFrom(payload, held, idx); err != nil {
		return
	}
	b.payloads = b.payloads[payloadSize:]
	rep := packet.CarveRepair()
	*rep = packet.Repair{
		Origin:     a.node,
		Group:      g.id,
		Index:      uint8(idx),
		GroupK:     uint8(g.k),
		NewMaxSeq:  uint32(b.last),
		Zone:       int16(b.z),
		Payload:    payload,
		Preemptive: b.preempt,
	}
	a.net.Multicast(a.node, b.z, rep)
	a.Stats.RepairsSent++
	a.emit(now, telemetry.KindRepairSent, b.z, int64(g.id), int64(b.last), int64(idx), 0)
}

// injectRepairs preemptively sends h repair shares into zone z (ZCR
// automatic injection, or the sender's per-group redundancy). The
// telemetry event carries the EWMA predictor state that sized the
// injection.
func (a *Agent) injectRepairs(now eventq.Time, g *group, z scoping.ZoneID, h int) {
	a.emit(now, telemetry.KindRepairInjected, z, int64(g.id), int64(h), int64(g.repairsHeard), a.ctrl.Predict(z))
	a.sendRepairBurst(now, g, z, h, true)
}

// heldShares returns the K shares a completed group's repairs are
// computed from, indexed by share index: the source's transmit buffer,
// its K data shares; a receiver's kept shares, nil once retired.
func (a *Agent) heldShares(g *group) [][]byte {
	if a.isSource {
		return a.SentGroup(g.id)
	}
	return g.kept
}

// scheduleZLCSample arms the predicted-ZLC measurement for the zone at
// chain level i: the true ZLC is known 2.5 RTTs (to the most distant
// member) after the group ends (§4), at which point the controller's
// predictor absorbs it. When no NACK reported a loss, the agent's own
// LLC stands in for the ZLC.
func (a *Agent) scheduleZLCSample(g *group, i int) {
	lv := &g.lv[i]
	if lv.sampled {
		return
	}
	lv.sampled = true
	wait := eventq.Duration(zlcWaitRTTs * a.sess.MostDistantRTT(a.chain[i]))
	f := a.freeList()
	var s *zlcSample
	if n := len(f.samples); n > 0 {
		s, f.samples = f.samples[n-1], f.samples[:n-1]
	} else {
		s = &zlcSample{a: a}
		s.fire = s.take
	}
	s.g, s.i = g, i
	a.net.Sched().After(wait, s.fire)
}

// zlcSample is one armed ZLC measurement: group g's zone at chain level
// i. Like a burst it is the agent's, made with its callback and handed
// back to the free list when it fires.
type zlcSample struct {
	a    *Agent
	g    *group
	i    int
	fire eventq.Handler
}

func (s *zlcSample) take(eventq.Time) {
	a, g, i := s.a, s.g, s.i
	s.g = nil
	a.free.samples = append(a.free.samples, s)
	sample := float64(g.lv[i].zlc)
	if sample == 0 {
		sample = float64(g.llc)
	}
	a.ctrl.ObserveZLC(a.chain[i], sample)
}
