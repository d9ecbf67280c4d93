package core

import (
	"fmt"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/fec"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
)

// group is per-FEC-group receiver/repairer state.
type group struct {
	id uint32
	// The flags fill the word id leaves: a lone bool pads out a word of
	// its own, and every group a member opens pays for the layout.
	complete bool
	inRepair bool // repair phase entered (LDP over)
	sendBusy bool // a repair burst is being paced out (replies wait)
	catchUp  bool // late-join recovery group (never counts as loss)
	k        int

	// shares holds the payload of every distinct share held, indexed by
	// share index (nil = not held) — the form the codec reads — and held
	// counts them. admit is the only writer. Completion releases the
	// store; held keeps its final count.
	shares [][]byte
	held   int
	// kept is the store once complete: the K shares the group completed
	// from, the payloads received, by reference. Every repair the member
	// serves is computed from them (fec.Codec.ShareFrom); nothing is
	// decoded to keep them.
	kept [][]byte
	// sl/bits back the seen/counted/lossed index bitsets, packed as
	// lanes in the agent's slab arena (see slab.go):
	//   seen     — which original data indices arrived as data packets;
	//   counted  — indices already counted into the LLC;
	//   lossed   — indices that ever emitted a loss_detected event.
	//     Unlike counted it is never cleared when the original shows up
	//     late, so session-end accounting can close every opened
	//     recovery span.
	sl   *groupSlab
	bits int32

	// lv is the group's state per level of the member's scope chain:
	// lv[i] belongs to zone Agent.chain[i], and no other zone has a slot.
	lv []level

	llc          int
	maxShare     int // highest share index known used anywhere
	repairsHeard int // distinct repair shares received

	// The group's timers, each armed through armTimer with the one
	// callback in fire (see timerFired). A handle is zero whenever its
	// timer is not pending: stopTimer zeroes it on Stop, timerFired
	// before the handler runs.
	ldpTimer   fabric.Timer // loss-detection phase end
	reqTimer   fabric.Timer // NACK request
	replyTimer fabric.Timer // suppressed repair reply
	retire     fabric.Timer // retainData release of the kept shares
	fire       eventq.Handler

	// request side
	reqExp      int // the paper's i, initially 1
	scopeIdx    int // current NACK scope (index into the agent's chain)
	attempts    int // NACKs sent at the current scope
	outstanding int // repairs requested by zone peers, minus repairs heard

	// reply side (repairer)
	lastNACK *packet.NACK // most recent request heard, for reply timing

	firstSeen eventq.Time
	doneAt    eventq.Time
	dupNACKs  int // NACKs heard that failed to raise the ZLC
}

// level is what a group tracks about one zone of the scope chain.
type level struct {
	zlc      int  // zone loss count: the highest LLC a NACK at this scope reported
	pending  int  // speculative repairs owed to the zone (repairer side)
	sampled  bool // the zone's ZLC measurement is armed or taken
	injected bool // this ZCR sent the zone its preemptive redundancy
}

// groupBlock is how many groups' records one allocation holds.
const groupBlock = 8

// group returns the state for group gid, or nil if none was opened.
func (a *Agent) group(gid uint32) *group {
	if int(gid) >= len(a.groups) {
		return nil
	}
	return a.groups[gid]
}

// ensureGroup returns (opening if needed) the state for group gid, which
// every caller has checked or clamped below NumGroups.
func (a *Agent) ensureGroup(gid uint32) *group {
	if g := a.group(gid); g != nil {
		return g
	}
	for int(gid) >= len(a.groups) {
		a.groups = append(a.groups, nil)
	}
	// Records and their per-level state are cut from blocks of groupBlock
	// groups — never more than the session has left to open — so opening
	// a group allocates a quarter of an object on average. A block never
	// moves (a group lives as long as the run): timers hold *group.
	n := len(a.chain)
	if len(a.groupFree) == 0 {
		b := min(groupBlock, a.cfg.NumGroups()-a.carved)
		a.groupFree = make([]group, b)
		a.levelFree = make([]level, b*n)
		a.carved += b
	}
	g := &a.groupFree[0]
	a.groupFree = a.groupFree[1:]
	*g = group{
		id:       gid,
		k:        a.cfg.GroupK,
		sl:       &a.slab,
		bits:     a.slab.alloc(a.cfg.GroupK),
		lv:       a.levelFree[:n:n],
		maxShare: a.cfg.GroupK - 1,
		reqExp:   1,
	}
	a.levelFree = a.levelFree[n:]
	a.groups[gid] = g
	return g
}

// levelOf returns z's position in the member's scope chain, or -1 when
// the member is not in z (or, without scoping, z is not the root).
func (a *Agent) levelOf(z scoping.ZoneID) int {
	for i, c := range a.chain {
		if c == z {
			return i
		}
	}
	return -1
}

// clampSeq bounds a high-water mark a datagram advertised to the last
// sequence number the session has, so no packet can make a receiver walk
// (and open groups for) sequence space the stream will never reach.
func (a *Agent) clampSeq(hw int64) int64 {
	if last := int64(a.cfg.NumPackets) - 1; hw > last {
		return last
	}
	return hw
}

// Bitset accessors over the slab lanes; see the field doc above.
func (g *group) seen(i int) bool    { return g.sl.get(g.bits, laneSeen, i) }
func (g *group) markSeen(i int)     { g.sl.set(g.bits, laneSeen, i) }
func (g *group) counted(i int) bool { return g.sl.get(g.bits, laneCounted, i) }
func (g *group) markCounted(i int)  { g.sl.set(g.bits, laneCounted, i) }
func (g *group) uncount(i int)      { g.sl.clear(g.bits, laneCounted, i) }
func (g *group) lossed(i int) bool  { return g.sl.get(g.bits, laneLossed, i) }
func (g *group) markLossed(i int)   { g.sl.set(g.bits, laneLossed, i) }

// needed returns how many more distinct shares complete the group.
func (g *group) needed() int {
	return max(0, g.k-g.held)
}

// admit is the one door by which a share off the wire enters a group.
// Every field it checks can arrive in a datagram: the share must belong
// to this session's code (GroupK), carry the configured payload length
// (the codec needs equal lengths, and one odd share among the lowest
// indices would block every decode), and index the part of the field its
// packet type owns — data shares the first k indices, repairs the rest
// below fec.MaxShares — in a group the session has. A share failing any
// of these is counted in BadShares and touches nothing: admit returns a
// nil group. Otherwise it returns the share's group and whether the
// payload was stored, which it is unless the group is complete or already
// holds that index (the first copy wins).
func (a *Agent) admit(gid uint32, index, groupK uint8, repair bool, payload []byte) (g *group, stored bool) {
	k, idx := a.cfg.GroupK, int(index)
	if int(groupK) != k || len(payload) != payloadSize || repair != (idx >= k) || idx >= fec.MaxShares ||
		int64(gid) >= int64(a.cfg.NumGroups()) {
		a.Stats.BadShares++
		return nil, false
	}
	g = a.ensureGroup(gid)
	if g.complete {
		return g, false
	}
	if g.shares == nil {
		g.shares = a.slotArray()
	}
	if idx >= len(g.shares) {
		g.shares = append(g.shares, make([][]byte, idx+1-len(g.shares))...)
	}
	if g.shares[idx] != nil {
		return g, false
	}
	g.shares[idx] = payload
	g.held++
	return g, true
}

// handleData processes an original data packet.
func (a *Agent) handleData(now eventq.Time, p *packet.Data) {
	if a.isSource {
		return // routing artifact: the source ignores its own stream
	}
	// The sequence number drives loss detection over everything below
	// it, so it must be the one the share's place in the stream implies.
	if uint64(p.Seq) != uint64(p.Group)*uint64(a.cfg.GroupK)+uint64(p.Index) {
		a.Stats.BadShares++
		return
	}
	g, _ := a.admit(p.Group, p.Index, p.GroupK, false, p.Payload)
	if g == nil {
		return
	}
	a.Stats.DataReceived++
	a.updateIPT(now)
	if a.lateJoiner && a.joinSeq < 0 {
		a.observeStreamPosition(now, int64(p.Seq))
	}

	if g.firstSeen == 0 {
		g.firstSeen = now
		g.scopeIdx = a.nackScope()
		a.armLDPTimer(now, g, int(p.Index))
	}
	idx := int(p.Index)
	if !g.seen(idx) {
		g.markSeen(idx)
		if g.counted(idx) {
			// The packet was presumed lost (a peer's high-water mark
			// raced ahead of it) but was merely in flight: un-count.
			g.uncount(idx)
			g.llc--
		}
	} else {
		a.Stats.DupShares++
	}

	// Gap-based loss detection across the whole stream: every original
	// seq between the previous high-water mark and this packet that we
	// did not receive was dropped upstream.
	if int64(p.Seq) > a.maxSeq {
		for s := a.maxSeq + 1; s < int64(p.Seq); s++ {
			a.noteLoss(now, uint32(s))
		}
		// The arrival itself, fed after the gap it revealed so the
		// controller sees the stream in sequence order.
		a.ctrl.ObservePacket(false)
		a.maxSeq = int64(p.Seq)
		if a.sess.MaxSeq < p.Seq+1 {
			a.sess.MaxSeq = p.Seq + 1
		}
	}
	a.maybeComplete(now, g)
}

// updateIPT refines the inter-packet-arrival estimate (EWMA over
// consecutive data arrivals), used for LDP timers and repair spacing.
func (a *Agent) updateIPT(now eventq.Time) {
	if !a.iptInit {
		a.iptInit = true
		a.lastData = now
		return
	}
	delta := now.Sub(a.lastData).Seconds()
	a.lastData = now
	if delta <= 0 || delta > 10*a.cfg.InterPacket() {
		return // loss gap or idle period; not a cadence sample
	}
	a.ipt = 0.75*a.ipt + 0.25*delta
}

// noteLoss records the loss of original data seq s in its group's LLC
// and schedules a repair request if the LLC now exceeds the zone loss
// count (§4 LDP rules).
func (a *Agent) noteLoss(now eventq.Time, s uint32) {
	k := uint32(a.cfg.GroupK)
	gid := s / k
	idx := int(s % k)
	g := a.ensureGroup(gid)
	if g.firstSeen == 0 {
		g.firstSeen = now
		g.scopeIdx = a.nackScope()
		a.armLDPTimer(now, g, idx)
	}
	if g.seen(idx) || g.counted(idx) {
		return
	}
	g.markCounted(idx)
	g.markLossed(idx)
	g.llc++
	a.ctrl.ObservePacket(true)
	a.emit(now, telemetry.KindLossDetected, scoping.NoZone, int64(gid), int64(s), 0, 0)
	if g.complete {
		return
	}
	if g.llc > g.lv[g.scopeIdx].zlc {
		a.armRequestTimer(now, g)
	}
}

// armLDPTimer sets the loss-detection-phase timer: the estimated time by
// which the group's remaining packets should arrive, plus slack.
func (a *Agent) armLDPTimer(now eventq.Time, g *group, idxSeen int) {
	remaining := float64(g.k-1-idxSeen) + ldpSlackPackets
	if remaining < ldpSlackPackets {
		remaining = ldpSlackPackets
	}
	a.armTimer(g, &g.ldpTimer, eventq.Duration(remaining*a.ipt))
}

// armTimer arms one of g's timers, t, to fire d from now. Every timer of
// a group runs the group's one callback, made on its first arm, so no
// later arm allocates.
func (a *Agent) armTimer(g *group, t *fabric.Timer, d eventq.Duration) {
	if g.fire == nil {
		g.fire = func(now eventq.Time) { a.timerFired(now, g) }
	}
	*t = a.net.Sched().After(d, g.fire)
}

// timerFired is the callback of every timer of g. The queue retires an
// event before it runs the handler, so the timer that fired is the one
// handle that is set but no longer Active: no other is in that state,
// since a handle is zeroed when its timer fires (here) or stops
// (stopTimer). It zeroes that handle and runs the timer's handler.
func (a *Agent) timerFired(now eventq.Time, g *group) {
	switch {
	case fired(&g.ldpTimer):
		a.ldpExpired(now, g)
	case fired(&g.reqTimer):
		a.requestTimerFired(now, g)
	case fired(&g.replyTimer):
		a.serveQueuedRepairs(now, g)
	case fired(&g.retire):
		// Ordinary receivers release the kept shares retainData after
		// completion, unless they have taken up ZCR duty since.
		if !a.anyZCRDuty() {
			a.releaseSlots(g.kept)
			g.kept = nil
		}
	}
}

// fired reports whether t is a timer that has just fired — set, but no
// longer pending — and zeroes it if so.
func fired(t *fabric.Timer) bool {
	if *t == (fabric.Timer{}) || t.Active() {
		return false
	}
	*t = fabric.Timer{}
	return true
}

// stopTimer cancels one of a group's timers and zeroes its handle: a
// stopped handle left set would read, once its queue record moved on,
// as the timer that fired.
func stopTimer(t *fabric.Timer) {
	t.Stop()
	*t = fabric.Timer{}
}

// ldpExpired ends the loss-detection phase: any unseen original packets
// are counted as lost and the repair phase begins.
func (a *Agent) ldpExpired(now eventq.Time, g *group) {
	if a.stopped {
		return
	}
	// Receiver report (§7 extension): the fraction of original packets
	// that failed to arrive in this group feeds the member's published
	// reception quality, aggregated up the ZCR hierarchy.
	if !g.catchUp {
		base := int(g.id) * a.cfg.GroupK
		for idx := 0; idx < g.k && base+idx < a.cfg.NumPackets; idx++ {
			a.rrTotal++
			if !g.seen(idx) {
				a.rrLost++
			}
		}
		if a.rrTotal > 0 {
			a.sess.SetLocalLossReport(float64(a.rrLost) / float64(a.rrTotal))
		}
	}
	if g.complete {
		return
	}
	base := g.id * uint32(a.cfg.GroupK)
	for idx := 0; idx < g.k; idx++ {
		if int(base)+idx >= a.cfg.NumPackets {
			break
		}
		if !g.seen(idx) && !g.counted(idx) {
			g.markCounted(idx)
			g.markLossed(idx)
			g.llc++
			a.ctrl.ObservePacket(true)
			a.emit(now, telemetry.KindLossDetected, scoping.NoZone, int64(g.id), int64(base)+int64(idx), 0, 0)
		}
	}
	g.inRepair = true
	if g.needed() > 0 {
		if g.llc > g.lv[g.scopeIdx].zlc || g.outstanding < g.needed() {
			a.armRequestTimer(now, g)
		}
	}
}

// armRequestTimer starts (or restarts) the NACK request timer with the
// paper's window: uniform on 2^i·[C1·d, (C1+C2)·d], d = dist to source.
func (a *Agent) armRequestTimer(now eventq.Time, g *group) {
	if g.complete {
		return
	}
	if g.reqTimer.Active() {
		return
	}
	if g.reqExp > 6 {
		g.reqExp = 6 // cap the back-off so retries stay timely
	}
	d := a.distToSource()
	c1, c2 := a.timerC1C2()
	factor := float64(uint(1) << uint(g.reqExp))
	lo := factor * c1 * d
	hi := factor * (c1 + c2) * d
	delay := eventq.Duration(a.rand().Uniform(lo, hi))
	a.armTimer(g, &g.reqTimer, delay)
	a.emit(now, telemetry.KindNACKScheduled, a.scopeZone(g.scopeIdx), int64(g.id), int64(g.llc), int64(g.reqExp), delay.Seconds())
}

// requestTimerFired sends a NACK if the group still needs repairs that
// nobody else has requested, escalating scope after escalateAfter
// attempts per zone (§4 RP rules).
func (a *Agent) requestTimerFired(now eventq.Time, g *group) {
	if a.stopped {
		return
	}
	if g.complete {
		return
	}
	needed := g.needed()
	if !g.inRepair {
		// During the loss-detection phase later group packets are
		// still in flight: request only for detected losses, and only
		// while our LLC exceeds the zone's (§4 LDP rules).
		if g.llc <= g.lv[g.scopeIdx].zlc {
			return
		}
		if n := g.llc - g.repairsHeard; n < needed {
			needed = n
		}
	}
	if needed <= 0 {
		return
	}
	// Suppression at fire time: enough repairs are already on order.
	// The in-flight estimate decays each suppressed round so that
	// repairs lost on the way to us are eventually re-requested.
	// The decay alone paces retries (adding back-off here compounds
	// into minutes-long stalls for receivers behind very lossy tails).
	if g.outstanding >= needed {
		a.Stats.NACKsSuppressed++
		a.emit(now, telemetry.KindNACKSuppressed, a.scopeZone(g.scopeIdx), int64(g.id), 1, int64(g.reqExp), 0)
		g.outstanding /= 2
		a.armRequestTimer(now, g)
		return
	}
	if g.attempts >= escalateAfter && g.scopeIdx < len(a.chain)-1 {
		g.scopeIdx++
		g.attempts = 0
		a.Stats.ScopeEscalations++
		a.emit(now, telemetry.KindScopeEscalated, a.scopeZone(g.scopeIdx), int64(g.id), 0, 0, 0)
	}
	scope := a.scopeZone(g.scopeIdx)
	llc := g.llc
	if llc > 255 {
		llc = 255
	}
	nack := packet.CarveNACK()
	*nack = packet.NACK{
		Origin:    a.node,
		Group:     g.id,
		LLC:       uint8(llc),
		Needed:    uint8(min(needed, 255)),
		MaxSeq:    uint32(a.maxSeq + 1), // one past the high-water mark
		Zone:      int16(scope),
		Ancestors: a.sess.AncestorList(),
	}
	a.net.Multicast(a.node, scope, nack)
	a.Stats.NACKsSent++
	a.emit(now, telemetry.KindNACKSent, scope, int64(g.id), int64(g.llc), int64(needed), 0)
	g.attempts++
	if lv := &g.lv[g.scopeIdx]; lv.zlc < g.llc {
		lv.zlc = g.llc // our own NACK sets the new ZLC
	}
	g.outstanding = needed
	// Re-arm at the current back-off so lost repairs are re-requested;
	// i itself only grows on suppression events (§4 LDP rules).
	a.armRequestTimer(now, g)
}

// handleNACK processes a repair request heard at scope zone(p.Zone). A
// request for a group the session does not have, or scoped to a zone this
// member is not in (scoped delivery never produces one; a socket can), is
// counted in BadNACKs and touches nothing.
func (a *Agent) handleNACK(now eventq.Time, p *packet.NACK) {
	scope := scoping.ZoneID(p.Zone)
	li := a.levelOf(scope)
	if li < 0 || int64(p.Group) >= int64(a.cfg.NumGroups()) {
		a.Stats.BadNACKs++
		return
	}
	g := a.ensureGroup(p.Group)
	lv := &g.lv[li]

	hw := a.clampSeq(int64(p.MaxSeq) - 1)
	if a.lateJoiner && a.joinSeq < 0 {
		a.observeStreamPosition(now, hw)
	}
	// Tail-loss discovery from the NACK's high-water mark (§4: "checks
	// to see if the NACK's last received packet identifier causes the
	// detection of any further lost packets").
	if hw > a.maxSeq && !a.isSource {
		for s := a.maxSeq + 1; s <= hw; s++ {
			a.noteLoss(now, uint32(s))
		}
		a.maxSeq = hw
	}

	// ZLC bookkeeping and NACK suppression.
	increased := int(p.LLC) > lv.zlc
	if increased {
		lv.zlc = int(p.LLC)
	}
	if !g.complete {
		if g.llc <= lv.zlc && g.reqTimer.Active() {
			// Their request covers ours; suppress this round (the
			// timer re-arms with backoff so lost repairs still get
			// re-requested).
			stopTimer(&g.reqTimer)
			a.Stats.NACKsSuppressed++
			a.emit(now, telemetry.KindNACKSuppressed, scope, int64(g.id), 0, int64(g.reqExp), 0)
			g.reqExp++
			a.armRequestTimer(now, g)
		} else if !increased {
			// §4: a NACK that does not increase the ZLC backs the
			// request timer off.
			g.reqExp++
		}
	}
	if !increased {
		// Duplication evidence for timer adaptation, observed whether
		// or not this hearer still needs the group.
		g.dupNACKs++
	}
	if int(p.Needed) > g.outstanding {
		g.outstanding = int(p.Needed)
	}

	// Speculative reply queue for repairers (§4): remember how many
	// repairs this zone needs and schedule a reply. The sender and the
	// scope's ZCR serve immediately (their repairs are authoritative
	// for the zone); other repairers wait out a suppression timer.
	if a.canRepair() {
		if int(p.Needed) > lv.pending {
			lv.pending = int(p.Needed)
		}
		g.lastNACK = p
		if g.complete {
			if a.isSource || a.isZCR(scope) {
				a.serveQueuedRepairs(now, g)
			} else {
				a.armReplyTimer(now, g, p)
			}
		}
		// Incomplete repairers serve the queue once they complete.
	}
}

// handleRepair processes an FEC repair share.
func (a *Agent) handleRepair(now eventq.Time, p *packet.Repair) {
	g, stored := a.admit(p.Group, p.Index, p.GroupK, true, p.Payload)
	if g == nil {
		return
	}
	a.Stats.RepairsReceived++
	scope := scoping.ZoneID(p.Zone)

	// The announced burst end ("what will be the new highest packet
	// identifier", §4) both moves the share high-water mark and credits
	// the entire in-flight burst against request/reply queues at once —
	// the paper's defence against duplicate repairs from racing
	// repairers. No burst ends past the last share index that exists, so
	// a larger claim is clamped there, like an advertised MaxSeq past the
	// stream's end.
	oldMax := g.maxShare
	if int(p.Index) > g.maxShare {
		g.maxShare = int(p.Index)
	}
	if end := min(int(p.NewMaxSeq), fec.MaxShares-1); end > g.maxShare {
		g.maxShare = end
	}
	credit := g.maxShare - oldMax
	if credit < 1 {
		credit = 1
	}

	if stored || g.complete {
		g.repairsHeard++
	} else {
		a.Stats.DupShares++
	}

	// A repair resets the request backoff (§4) and counts against both
	// what we asked for and what we owe (repairs from larger zones are
	// heard by, and credit, the smaller ones).
	g.reqExp = 1
	g.outstanding -= credit
	if g.outstanding < 0 {
		g.outstanding = 0
	}
	for i, z := range a.chain {
		if lv := &g.lv[i]; lv.pending > 0 && a.net.Hierarchy().IsAncestor(scope, z) {
			lv.pending = max(0, lv.pending-credit)
		}
	}
	// Cancel the reply timer only once the whole repair is covered.
	if g.replyTimer.Active() && a.totalPending(g) == 0 {
		stopTimer(&g.replyTimer)
		a.emit(now, telemetry.KindRepairSuppressed, scope, int64(g.id), 0, 0, 0)
	}
	a.maybeComplete(now, g)
}

func (a *Agent) totalPending(g *group) int {
	t := 0
	for i := range g.lv {
		t += g.lv[i].pending
	}
	return t
}

// maybeComplete completes the group once K distinct shares are held:
// it keeps those K, fires the completion callback, and turns the node
// into a repairer.
func (a *Agent) maybeComplete(now eventq.Time, g *group) {
	if g.complete || g.held < g.k {
		return
	}
	// Completion is checked on every stored share, so the store holds
	// exactly K: the group keeps them, by reference, and copies nothing.
	g.kept, g.shares = g.shares, nil
	g.complete = true
	g.doneAt = now
	a.Stats.GroupsCompleted++
	lat := 0.0
	if g.firstSeen > 0 {
		lat = now.Sub(g.firstSeen).Seconds()
	}
	a.emit(now, telemetry.KindGroupDecoded, scoping.NoZone, int64(g.id), int64(g.repairsHeard), int64(g.llc), lat)
	stopTimer(&g.reqTimer)
	// The LDP timer deliberately keeps running: its expiry also samples
	// the group's arrival quality for the receiver report.
	if a.OnComplete != nil {
		a.OnComplete(now, g.id, a.decode(g.kept))
		clear(a.decoded.held) // hold no payload past the callback
	}
	if g.catchUp {
		// Completion happens once, and pumpCatchUp counted this group
		// when it set the flag: retire it and pull the next one.
		a.catchUpActive--
		a.pumpCatchUp(now)
	}
	a.scheduleTimerAdaptation(g)
	a.becomeRepairer(now, g)
	// Ordinary receivers retire the shares after a grace period; the
	// source and ZCRs stay able to repair indefinitely.
	if !a.isSource {
		a.armTimer(g, &g.retire, eventq.Duration(retainData))
	}
}

// decoding is the agent's one decode area: the K data shares handed to
// OnComplete are decoded into it, so completion allocates nothing once
// it exists. Reused by every completion, and only read during the call.
type decoding struct {
	held [][]byte // a copy of the kept shares, completed in place
	buf  []byte   // room for every data share
}

// decode returns kept's K data shares — the held ones by reference, the
// missing ones decoded into the agent's decode area with one inversion —
// valid until the next decode.
func (a *Agent) decode(kept [][]byte) [][]byte {
	if a.decoded == nil {
		a.decoded = &decoding{buf: make([]byte, a.cfg.GroupK*payloadSize)}
	}
	d := a.decoded
	d.held = append(d.held[:0], kept...)
	if err := a.codec.Reconstruct(d.held, d.buf); err != nil {
		// Cannot happen: admit stores only distinct, in-range,
		// equal-length shares, and kept holds K of them.
		panic(fmt.Sprintf("core: decoding a completed group: %v", err))
	}
	return d.held[:a.cfg.GroupK:a.cfg.GroupK]
}
