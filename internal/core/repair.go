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
	b := &burst{a: a, g: g, z: z, next: first, last: last, preempt: preempt}
	fire := b.fire
	for i := 0; i <= last-first+1; i++ {
		a.net.Sched().After(eventq.Duration(float64(i)*spacing), fire)
	}
}

// burst is one repair burst being paced out. Its events fire in the
// order they were scheduled (increasing times, FIFO on ties), so each
// takes the share at the cursor, and the one after the last share ends
// the burst. The cursor is the burst's own: bursts of one group overlap
// when a ZCR injects into every zone it heads at once.
type burst struct {
	a          *Agent
	g          *group
	z          scoping.ZoneID
	next, last int
	preempt    bool
}

func (b *burst) fire(now eventq.Time) {
	if idx := b.next; idx <= b.last {
		b.next++
		b.a.transmitRepair(now, b.g, b.z, idx, b.last, b.preempt)
		return
	}
	b.g.sendBusy = false
	b.a.serveQueuedRepairs(now, b.g)
}

// transmitRepair computes and multicasts one repair share.
func (a *Agent) transmitRepair(now eventq.Time, g *group, z scoping.ZoneID, idx, burstMax int, preempt bool) {
	if a.stopped {
		return
	}
	held := a.heldShares(g)
	if held == nil {
		return
	}
	payload := make([]byte, payloadSize)
	if err := a.codec.ShareFrom(payload, held, idx); err != nil {
		return
	}
	rep := &packet.Repair{
		Origin:     a.node,
		Group:      g.id,
		Index:      uint8(idx),
		GroupK:     uint8(g.k),
		NewMaxSeq:  uint32(burstMax),
		Zone:       int16(z),
		Payload:    payload,
		Preemptive: preempt,
	}
	a.net.Multicast(a.node, z, rep)
	a.Stats.RepairsSent++
	a.emit(now, telemetry.KindRepairSent, z, int64(g.id), int64(burstMax), int64(idx), 0)
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
	z := a.chain[i]
	wait := eventq.Duration(zlcWaitRTTs * a.sess.MostDistantRTT(z))
	a.net.Sched().After(wait, func(eventq.Time) {
		sample := float64(lv.zlc)
		if sample == 0 {
			sample = float64(g.llc)
		}
		a.ctrl.ObserveZLC(z, sample)
	})
}
