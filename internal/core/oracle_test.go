package core

// The receiver state PR 22 replaced, kept as an oracle: oracleAgent is the
// agent as it stood before — a group's per-zone state in four maps keyed
// by ZoneID (zlc, pending, zlcSampled, injected), the group table a map
// keyed by group id, the late-join window a map — copied with nothing
// changed but the type names and the timer handles (values now, so the
// nil guards are gone). It has none of the live agent's comments; read
// those for why a line does what it does.
//
// The tests below run the same seeded session twice, once on each model,
// stepping both event queues in lockstep: after every event the two must
// hold the same state for every member, group and chain zone, and at the
// end the same counters, predictor values and — event for event, packet
// for packet — the same telemetry stream, EmitUnrecoveredLosses included.

import (
	"fmt"
	"sort"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/faults"
	"sharqfec/internal/fec"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/session"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

type oracleAgent struct {
	node  topology.NodeID
	net   fabric.Network
	cfg   Config
	rng   *simrand.Rand
	sess  *session.Manager
	codec *fec.Codec
	tel   *telemetry.Bus

	isSource bool
	root     scoping.ZoneID
	chain    []scoping.ZoneID

	groups   map[uint32]*oracleGroup
	slab     groupSlab
	maxSeq   int64
	ipt      float64
	iptInit  bool
	lastData eventq.Time

	ctrl Controller

	sendData [][][]byte

	OnComplete func(now eventq.Time, group uint32, data [][]byte)

	joined  bool
	stopped bool

	lateJoiner    bool
	joinSeq       int64
	catchUpQueue  []uint32
	catchUpActive map[uint32]bool

	rrLost, rrTotal int

	c1, c2     float64
	aveDupNACK float64

	Stats Stats
}

func newOracleAgent(node topology.NodeID, net fabric.Network, cfg Config, src *simrand.Source) (*oracleAgent, error) {
	if cfg.NumPackets%cfg.GroupK != 0 {
		return nil, fmt.Errorf("core: NumPackets (%d) must be a multiple of GroupK (%d)", cfg.NumPackets, cfg.GroupK)
	}
	codec, err := fec.NewCodec(cfg.GroupK)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a := &oracleAgent{
		node:          node,
		net:           net,
		cfg:           cfg,
		rng:           src.StreamN("core", int(node)),
		codec:         codec,
		isSource:      node == cfg.Source,
		root:          net.Hierarchy().Root(),
		groups:        make(map[uint32]*oracleGroup),
		maxSeq:        -1,
		catchUpActive: make(map[uint32]bool),
		c1:            cfg.C1,
		c2:            cfg.C2,
		ipt:           cfg.InterPacket(),
		tel:           cfg.Telemetry,
	}
	if cfg.NewController != nil {
		a.ctrl = cfg.NewController()
	}
	if a.ctrl == nil {
		a.ctrl = &staticController{}
	}
	a.sess = session.New(node, net, session.Config{Telemetry: cfg.Telemetry}, src.StreamN("session", int(node)))
	a.chain = net.Hierarchy().ZonesOf(node)
	if a.isSource {
		a.sendData = make([][][]byte, cfg.NumGroups())
	}
	net.Attach(node, a)
	return a, nil
}

func (a *oracleAgent) SentGroup(gid uint32) [][]byte {
	if int(gid) >= len(a.sendData) {
		return nil
	}
	return a.sendData[gid]
}

func (a *oracleAgent) Join() {
	a.joined = true
	a.sess.Start(a.isSource)
}

func (a *oracleAgent) Stop() {
	a.stopped = true
	a.sess.Stop()
}

func (a *oracleAgent) StartSource() {
	if !a.isSource {
		panic("core: StartSource on a receiver")
	}
	ipt := eventq.Duration(a.cfg.InterPacket())
	for s := 0; s < a.cfg.NumPackets; s++ {
		seq := uint32(s)
		at := eventq.Duration(float64(s)) * ipt
		a.net.Sched().After(at, func(now eventq.Time) { a.sourceSend(now, seq) })
	}
}

func (a *oracleAgent) sourceSend(now eventq.Time, seq uint32) {
	if a.stopped {
		return
	}
	k := a.cfg.GroupK
	gid := seq / uint32(k)
	idx := int(seq) % k
	data := a.sendData[gid]
	if data == nil {
		data = make([][]byte, k)
		sz := payloadSize
		block := make([]byte, k*sz)
		for i := range data {
			p := block[i*sz : (i+1)*sz : (i+1)*sz]
			for j := range p {
				p[j] = byte(a.rng.IntN(256))
			}
			data[i] = p
		}
		a.sendData[gid] = data
	}
	pkt := &packet.Data{
		Origin:  a.node,
		Seq:     seq,
		Group:   gid,
		Index:   uint8(idx),
		GroupK:  uint8(k),
		Payload: data[idx],
	}
	a.net.Multicast(a.node, a.root, pkt)
	a.sess.MaxSeq = seq + 1

	lastOfGroup := idx == k-1 || int(seq) == a.cfg.NumPackets-1
	if lastOfGroup {
		a.senderGroupEnd(now, gid)
	}
}

func (a *oracleAgent) senderGroupEnd(now eventq.Time, gid uint32) {
	g := a.ensureGroup(gid)
	g.complete = true
	g.maxShare = a.cfg.GroupK - 1

	if a.cfg.Options.Injection {
		dec := a.decide(now, g, a.root, 0)
		if dec.H > 0 {
			a.injectRepairs(now, g, a.root, dec.H)
			a.Stats.RepairsInjected += dec.H
		}
	}
	a.serveQueuedRepairs(now, g)
	a.scheduleZLCSample(now, g, a.root)
}

func (a *oracleAgent) Receive(now eventq.Time, d fabric.Delivery) {
	if a.stopped || !a.joined {
		return
	}
	if sp, ok := d.Pkt.(*packet.Session); ok {
		hw := int64(sp.MaxSeq) - 1
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
	}
}

func (a *oracleAgent) ensureGroup(gid uint32) *oracleGroup {
	g := a.groups[gid]
	if g == nil {
		g = newOracleGroup(gid, a.cfg.GroupK, &a.slab)
		a.groups[gid] = g
	}
	return g
}

func (a *oracleAgent) scopeZone(idx int) scoping.ZoneID {
	if idx >= len(a.chain) {
		idx = len(a.chain) - 1
	}
	return a.chain[idx]
}

func (a *oracleAgent) nackScope() int {
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

func (a *oracleAgent) distToSource() float64 {
	return a.sess.Dist(a.cfg.Source, nil)
}

func (a *oracleAgent) canRepair() bool {
	return a.isSource || !a.cfg.Options.SenderOnly
}

func (a *oracleAgent) emit(now eventq.Time, kind telemetry.Kind, zone scoping.ZoneID,
	group, av, bv int64, f float64) {

	if a.tel == nil {
		return
	}
	a.tel.Emit(telemetry.Event{
		T: now.Seconds(), Kind: kind, Node: a.node, Zone: zone,
		Group: group, A: av, B: bv, F: f,
	})
}

func (a *oracleAgent) decide(now eventq.Time, g *oracleGroup, z scoping.ZoneID, repairsHeard int) Decision {
	dec := a.ctrl.Decide(z, g.k, repairsHeard)
	a.emit(now, telemetry.KindControllerDecision, z, int64(g.id), int64(dec.H), int64(dec.K), dec.Pred)
	return dec
}

func (a *oracleAgent) isZCR(z scoping.ZoneID) bool {
	if z == a.root {
		return a.isSource
	}
	return a.sess.IsZCR(z)
}

type oracleGroup struct {
	id uint32
	k  int

	shares [][]byte
	held   int
	data   [][]byte
	sl     *groupSlab
	bits   int32

	llc          int
	zlc          map[scoping.ZoneID]int
	maxShare     int
	complete     bool
	inRepair     bool
	repairsHeard int

	reqTimer    fabric.Timer
	reqExp      int
	scopeIdx    int
	attempts    int
	outstanding int

	pending    map[scoping.ZoneID]int
	replyTimer fabric.Timer
	sendBusy   bool
	lastNACK   *packet.NACK

	ldpTimer   fabric.Timer
	zlcSampled map[scoping.ZoneID]bool
	injected   map[scoping.ZoneID]bool
	firstSeen  eventq.Time
	doneAt     eventq.Time
	catchUp    bool
	dupNACKs   int
}

func newOracleGroup(id uint32, k int, sl *groupSlab) *oracleGroup {
	return &oracleGroup{
		id:         id,
		k:          k,
		sl:         sl,
		bits:       sl.alloc(k),
		zlc:        make(map[scoping.ZoneID]int),
		maxShare:   k - 1,
		reqExp:     1,
		pending:    make(map[scoping.ZoneID]int),
		zlcSampled: make(map[scoping.ZoneID]bool),
		injected:   make(map[scoping.ZoneID]bool),
	}
}

func (g *oracleGroup) seen(i int) bool    { return g.sl.get(g.bits, laneSeen, i) }
func (g *oracleGroup) markSeen(i int)     { g.sl.set(g.bits, laneSeen, i) }
func (g *oracleGroup) counted(i int) bool { return g.sl.get(g.bits, laneCounted, i) }
func (g *oracleGroup) markCounted(i int)  { g.sl.set(g.bits, laneCounted, i) }
func (g *oracleGroup) uncount(i int)      { g.sl.clear(g.bits, laneCounted, i) }
func (g *oracleGroup) lossed(i int) bool  { return g.sl.get(g.bits, laneLossed, i) }
func (g *oracleGroup) markLossed(i int)   { g.sl.set(g.bits, laneLossed, i) }

func (g *oracleGroup) needed() int {
	return max(0, g.k-g.held)
}

func (a *oracleAgent) admit(gid uint32, index, groupK uint8, repair bool, payload []byte) (g *oracleGroup, stored bool) {
	k, idx := a.cfg.GroupK, int(index)
	if int(groupK) != k || len(payload) != payloadSize || repair != (idx >= k) || idx >= fec.MaxShares {
		a.Stats.BadShares++
		return nil, false
	}
	g = a.ensureGroup(gid)
	if g.complete {
		return g, false
	}
	if g.shares == nil {
		g.shares = make([][]byte, k, 2*k)
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

func (a *oracleAgent) handleData(now eventq.Time, p *packet.Data) {
	if a.isSource {
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
			g.uncount(idx)
			g.llc--
		}
	} else {
		a.Stats.DupShares++
	}

	if int64(p.Seq) > a.maxSeq {
		for s := a.maxSeq + 1; s < int64(p.Seq); s++ {
			a.noteLoss(now, uint32(s))
		}
		a.ctrl.ObservePacket(false)
		a.maxSeq = int64(p.Seq)
		if a.sess.MaxSeq < p.Seq+1 {
			a.sess.MaxSeq = p.Seq + 1
		}
	}
	a.maybeComplete(now, g)
}

func (a *oracleAgent) updateIPT(now eventq.Time) {
	if !a.iptInit {
		a.iptInit = true
		a.lastData = now
		return
	}
	delta := now.Sub(a.lastData).Seconds()
	a.lastData = now
	if delta <= 0 || delta > 10*a.cfg.InterPacket() {
		return
	}
	a.ipt = 0.75*a.ipt + 0.25*delta
}

func (a *oracleAgent) noteLoss(now eventq.Time, s uint32) {
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
	scope := a.scopeZone(g.scopeIdx)
	if g.llc > g.zlc[scope] {
		a.armRequestTimer(now, g)
	}
}

func (a *oracleAgent) armLDPTimer(now eventq.Time, g *oracleGroup, idxSeen int) {
	remaining := float64(g.k-1-idxSeen) + ldpSlackPackets
	if remaining < ldpSlackPackets {
		remaining = ldpSlackPackets
	}
	d := eventq.Duration(remaining * a.ipt)
	g.ldpTimer = a.net.Sched().After(d, func(fire eventq.Time) { a.ldpExpired(fire, g) })
}

func (a *oracleAgent) ldpExpired(now eventq.Time, g *oracleGroup) {
	if a.stopped {
		return
	}
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
		scope := a.scopeZone(g.scopeIdx)
		if g.llc > g.zlc[scope] || g.outstanding < g.needed() {
			a.armRequestTimer(now, g)
		}
	}
}

func (a *oracleAgent) armRequestTimer(now eventq.Time, g *oracleGroup) {
	if g.complete {
		return
	}
	if g.reqTimer.Active() {
		return
	}
	if g.reqExp > 6 {
		g.reqExp = 6
	}
	d := a.distToSource()
	c1, c2 := a.timerC1C2()
	factor := float64(uint(1) << uint(g.reqExp))
	lo := factor * c1 * d
	hi := factor * (c1 + c2) * d
	delay := eventq.Duration(a.rng.Uniform(lo, hi))
	g.reqTimer = a.net.Sched().After(delay, func(fire eventq.Time) { a.requestTimerFired(fire, g) })
	a.emit(now, telemetry.KindNACKScheduled, a.scopeZone(g.scopeIdx), int64(g.id), int64(g.llc), int64(g.reqExp), delay.Seconds())
}

func (a *oracleAgent) requestTimerFired(now eventq.Time, g *oracleGroup) {
	if a.stopped {
		return
	}
	if g.complete {
		return
	}
	needed := g.needed()
	if !g.inRepair {
		scope := a.scopeZone(g.scopeIdx)
		if g.llc <= g.zlc[scope] {
			return
		}
		if n := g.llc - g.repairsHeard; n < needed {
			needed = n
		}
	}
	if needed <= 0 {
		return
	}
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
	nack := &packet.NACK{
		Origin:    a.node,
		Group:     g.id,
		LLC:       uint8(llc),
		Needed:    uint8(min(needed, 255)),
		MaxSeq:    uint32(a.maxSeq + 1),
		Zone:      int16(scope),
		Ancestors: a.sess.AncestorList(),
	}
	a.net.Multicast(a.node, scope, nack)
	a.Stats.NACKsSent++
	a.emit(now, telemetry.KindNACKSent, scope, int64(g.id), int64(g.llc), int64(needed), 0)
	g.attempts++
	if g.zlc[scope] < g.llc {
		g.zlc[scope] = g.llc
	}
	g.outstanding = needed
	a.armRequestTimer(now, g)
}

func (a *oracleAgent) handleNACK(now eventq.Time, p *packet.NACK) {
	scope := scoping.ZoneID(p.Zone)
	g := a.ensureGroup(p.Group)

	if a.lateJoiner && a.joinSeq < 0 {
		a.observeStreamPosition(now, int64(p.MaxSeq)-1)
	}
	if hw := int64(p.MaxSeq) - 1; hw > a.maxSeq && !a.isSource {
		for s := a.maxSeq + 1; s <= hw; s++ {
			a.noteLoss(now, uint32(s))
		}
		a.maxSeq = hw
	}

	prevZLC := g.zlc[scope]
	increased := false
	if int(p.LLC) > prevZLC {
		g.zlc[scope] = int(p.LLC)
		increased = true
	}
	if !g.complete {
		if g.llc <= g.zlc[scope] && g.reqTimer.Active() {
			g.reqTimer.Stop()
			a.Stats.NACKsSuppressed++
			a.emit(now, telemetry.KindNACKSuppressed, scope, int64(g.id), 0, int64(g.reqExp), 0)
			g.reqExp++
			a.armRequestTimer(now, g)
		} else if !increased {
			g.reqExp++
		}
	}
	if !increased {
		g.dupNACKs++
	}
	if int(p.Needed) > g.outstanding {
		g.outstanding = int(p.Needed)
	}

	if a.canRepair() && a.memberOf(scope) {
		if int(p.Needed) > g.pending[scope] {
			g.pending[scope] = int(p.Needed)
		}
		g.lastNACK = p
		if g.complete {
			if a.isSource || a.isZCR(scope) {
				a.serveQueuedRepairs(now, g)
			} else {
				a.armReplyTimer(now, g, p)
			}
		}
	}
}

func (a *oracleAgent) memberOf(z scoping.ZoneID) bool {
	if z == a.root {
		return true
	}
	return a.net.Hierarchy().Contains(z, a.node)
}

func (a *oracleAgent) handleRepair(now eventq.Time, p *packet.Repair) {
	g, stored := a.admit(p.Group, p.Index, p.GroupK, true, p.Payload)
	if g == nil {
		return
	}
	a.Stats.RepairsReceived++
	scope := scoping.ZoneID(p.Zone)

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

	g.reqExp = 1
	g.outstanding -= credit
	if g.outstanding < 0 {
		g.outstanding = 0
	}
	for _, z := range a.chain {
		if g.pending[z] > 0 && a.net.Hierarchy().IsAncestor(scope, z) {
			g.pending[z] -= credit
			if g.pending[z] < 0 {
				g.pending[z] = 0
			}
		}
	}
	if g.replyTimer.Active() && a.totalPending(g) == 0 {
		g.replyTimer.Stop()
		a.emit(now, telemetry.KindRepairSuppressed, scope, int64(g.id), 0, 0, 0)
	}
	a.maybeComplete(now, g)
}

func (a *oracleAgent) totalPending(g *oracleGroup) int {
	t := 0
	for _, n := range g.pending {
		t += n
	}
	return t
}

func (a *oracleAgent) maybeComplete(now eventq.Time, g *oracleGroup) {
	if g.complete || g.held < g.k {
		return
	}
	if err := a.codec.Reconstruct(g.shares, nil); err != nil {
		return
	}
	data := make([][]byte, g.k)
	copy(data, g.shares)
	g.shares = nil
	g.complete = true
	g.doneAt = now
	g.data = data
	a.Stats.GroupsCompleted++
	lat := 0.0
	if g.firstSeen > 0 {
		lat = now.Sub(g.firstSeen).Seconds()
	}
	a.emit(now, telemetry.KindGroupDecoded, scoping.NoZone, int64(g.id), int64(g.repairsHeard), int64(g.llc), lat)
	g.reqTimer.Stop()
	if a.OnComplete != nil {
		a.OnComplete(now, g.id, data)
	}
	if g.catchUp {
		a.catchUpDone(now, g)
	}
	a.scheduleTimerAdaptation(g)
	a.becomeRepairer(now, g)
	if !a.isSource {
		a.net.Sched().After(eventq.Duration(retainData), func(eventq.Time) {
			if !a.anyZCRDuty() {
				g.data = nil
			}
		})
	}
}

func (a *oracleAgent) becomeRepairer(now eventq.Time, g *oracleGroup) {
	if !a.canRepair() {
		return
	}
	if a.cfg.Options.Injection {
		for _, z := range a.chain {
			if z == a.root || !a.isZCR(z) || g.injected[z] {
				continue
			}
			g.injected[z] = true
			dec := a.decide(now, g, z, g.repairsHeard)
			if dec.H > 0 {
				a.injectRepairs(now, g, z, dec.H)
				a.Stats.RepairsInjected += dec.H
			}
		}
	}
	for _, z := range a.chain {
		if a.isZCR(z) && z != a.root {
			a.scheduleZLCSample(now, g, z)
		}
	}
	if a.anyZCRDuty() {
		a.serveQueuedRepairs(now, g)
	} else if a.totalPending(g) > 0 {
		a.armReplyTimer(now, g, g.lastNACK)
	}
}

func (a *oracleAgent) anyZCRDuty() bool {
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

func (a *oracleAgent) armReplyTimer(now eventq.Time, g *oracleGroup, nack *packet.NACK) {
	if g.replyTimer.Active() {
		return
	}
	if g.sendBusy {
		return
	}
	d := session.DefaultDist
	if nack != nil {
		d = a.sess.Dist(nack.Origin, nack.Ancestors)
	}
	delay := eventq.Duration(a.rng.Uniform(a.cfg.D1*d, (a.cfg.D1+a.cfg.D2)*d))
	g.replyTimer = a.net.Sched().After(delay, func(fire eventq.Time) {
		a.serveQueuedRepairs(fire, g)
	})
	a.emit(now, telemetry.KindRepairScheduled, scoping.NoZone, int64(g.id), 0, 0, delay.Seconds())
}

func (a *oracleAgent) serveQueuedRepairs(now eventq.Time, g *oracleGroup) {
	if a.stopped {
		return
	}
	if !g.complete || g.sendBusy {
		return
	}
	for i := len(a.chain) - 1; i >= 0; i-- {
		z := a.chain[i]
		n := g.pending[z]
		if n <= 0 {
			continue
		}
		for j := 0; j <= i; j++ {
			inner := a.chain[j]
			if a.net.Hierarchy().IsAncestor(z, inner) {
				g.pending[inner] = max(0, g.pending[inner]-n)
			}
		}
		g.pending[z] = 0
		a.sendRepairBurst(now, g, z, n, false)
		return
	}
}

func (a *oracleAgent) sendRepairBurst(now eventq.Time, g *oracleGroup, z scoping.ZoneID, n int, preempt bool) {
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
	for idx := first; idx <= last; idx++ {
		idx := idx
		offset := eventq.Duration(float64(idx-first) * spacing)
		a.net.Sched().After(offset, func(fire eventq.Time) {
			a.transmitRepair(fire, g, z, idx, last, preempt)
		})
	}
	a.net.Sched().After(eventq.Duration(float64(last-first+1)*spacing), func(fire eventq.Time) {
		g.sendBusy = false
		a.serveQueuedRepairs(fire, g)
	})
}

func (a *oracleAgent) transmitRepair(now eventq.Time, g *oracleGroup, z scoping.ZoneID, idx, burstMax int, preempt bool) {
	if a.stopped {
		return
	}
	data := a.groupData(g)
	if data == nil {
		return
	}
	share, err := a.codec.Repair(data, idx)
	if err != nil {
		return
	}
	rep := &packet.Repair{
		Origin:     a.node,
		Group:      g.id,
		Index:      uint8(share.Index),
		GroupK:     uint8(g.k),
		NewMaxSeq:  uint32(burstMax),
		Zone:       int16(z),
		Payload:    share.Data,
		Preemptive: preempt,
	}
	a.net.Multicast(a.node, z, rep)
	a.Stats.RepairsSent++
	a.emit(now, telemetry.KindRepairSent, z, int64(g.id), int64(burstMax), int64(idx), 0)
}

func (a *oracleAgent) injectRepairs(now eventq.Time, g *oracleGroup, z scoping.ZoneID, h int) {
	a.emit(now, telemetry.KindRepairInjected, z, int64(g.id), int64(h), int64(g.repairsHeard), a.ctrl.Predict(z))
	a.sendRepairBurst(now, g, z, h, true)
}

func (a *oracleAgent) groupData(g *oracleGroup) [][]byte {
	if a.isSource {
		return a.SentGroup(g.id)
	}
	return g.data
}

func (a *oracleAgent) scheduleZLCSample(now eventq.Time, g *oracleGroup, z scoping.ZoneID) {
	if g.zlcSampled[z] {
		return
	}
	g.zlcSampled[z] = true
	wait := eventq.Duration(zlcWaitRTTs * a.sess.MostDistantRTT(z))
	a.net.Sched().After(wait, func(eventq.Time) {
		sample := float64(g.zlc[z])
		if sample == 0 {
			sample = float64(g.llc)
		}
		a.ctrl.ObserveZLC(z, sample)
	})
}

func (a *oracleAgent) JoinLate() {
	if a.isSource {
		panic("core: JoinLate on the source")
	}
	a.joined = true
	a.lateJoiner = true
	a.joinSeq = -1
	a.sess.Start(false)
}

func (a *oracleAgent) observeStreamPosition(now eventq.Time, hw int64) {
	if !a.lateJoiner || a.joinSeq >= 0 || hw < 0 {
		return
	}
	k := int64(a.cfg.GroupK)
	currentGroup := hw / k
	a.joinSeq = currentGroup * k
	a.maxSeq = a.joinSeq - 1
	for gid := int64(0); gid < currentGroup; gid++ {
		a.catchUpQueue = append(a.catchUpQueue, uint32(gid))
	}
	a.pumpCatchUp(now)
}

func (a *oracleAgent) pumpCatchUp(now eventq.Time) {
	if a.stopped {
		return
	}
	for len(a.catchUpActive) < catchUpWindow && len(a.catchUpQueue) > 0 {
		gid := a.catchUpQueue[0]
		a.catchUpQueue = a.catchUpQueue[1:]
		g := a.ensureGroup(gid)
		if g.complete {
			continue
		}
		a.catchUpActive[gid] = true
		if g.firstSeen == 0 {
			g.firstSeen = now
			g.scopeIdx = a.nackScope()
		}
		g.inRepair = true
		g.catchUp = true
		g.reqExp = 0
		a.armRequestTimer(now, g)
	}
}

func (a *oracleAgent) catchUpDone(now eventq.Time, g *oracleGroup) {
	if !a.catchUpActive[g.id] {
		return
	}
	delete(a.catchUpActive, g.id)
	a.pumpCatchUp(now)
}

func (a *oracleAgent) scheduleTimerAdaptation(g *oracleGroup) {
	if !a.cfg.Options.AdaptiveTimers || a.isSource || g.llc == 0 {
		return
	}
	wait := eventq.Duration(zlcWaitRTTs * a.sess.MostDistantRTT(a.chain[len(a.chain)-1]))
	a.net.Sched().After(wait, func(eventq.Time) { a.adaptTimers(g) })
}

func (a *oracleAgent) adaptTimers(g *oracleGroup) {
	if a.stopped {
		return
	}
	a.aveDupNACK = 0.75*a.aveDupNACK + 0.25*float64(g.dupNACKs)
	switch {
	case a.aveDupNACK > 1:
		step := a.aveDupNACK - 1
		if step > 4 {
			step = 4
		}
		a.c1 += 0.1 * step
		a.c2 += 0.5 * step
	case a.aveDupNACK < 0.25:
		a.c1 -= 0.05
		a.c2 -= 0.1
	}
	a.c1 = min(max(a.c1, 0.5), 8)
	a.c2 = min(max(a.c2, 1), 16)
}

func (a *oracleAgent) timerC1C2() (float64, float64) {
	if a.cfg.Options.AdaptiveTimers {
		return a.c1, a.c2
	}
	return a.cfg.C1, a.cfg.C2
}

func (a *oracleAgent) EmitUnrecoveredLosses(now eventq.Time) {
	if a.tel == nil {
		return
	}
	gids := make([]uint32, 0, len(a.groups))
	for gid := range a.groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		g := a.groups[gid]
		if g.complete {
			continue
		}
		base := int64(gid) * int64(a.cfg.GroupK)
		for idx := 0; idx < g.k; idx++ {
			if !g.lossed(idx) {
				continue
			}
			late := int64(0)
			if g.seen(idx) {
				late = 1
			}
			a.emit(now, telemetry.KindLossUnrecovered, scoping.NoZone, int64(gid), base+int64(idx), late, 0)
		}
	}
}

// miniFigure10 is Figure 10 in small: the source feeds two backbone
// nodes, each rooting two children with two grandchildren apiece, zoned
// like the original (global; one zone per backbone subtree; one per child
// subtree), so the grandchildren's scope chains are three zones long.
func miniFigure10(loss float64) *topology.Spec {
	g := topology.New(15)
	spec := &topology.Spec{Graph: g, Source: 0, Name: "mini-figure10"}
	spec.Zones = append(spec.Zones, topology.ZoneSpec{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}})
	next, zone := topology.NodeID(3), 1
	for m := topology.NodeID(1); m <= 2; m++ {
		g.AddLink(0, m, 45e6, eventq.Duration(0.010*float64(m)), loss)
		spec.Receivers = append(spec.Receivers, m)
		inter := zone
		spec.Zones = append(spec.Zones, topology.ZoneSpec{ID: inter, Parent: 0, Leaves: []topology.NodeID{m}})
		zone++
		for c := 0; c < 2; c++ {
			child := next
			next++
			g.AddLink(m, child, 10e6, 0.020, loss)
			leaf := topology.ZoneSpec{ID: zone, Parent: inter, Leaves: []topology.NodeID{child}}
			zone++
			for gc := 0; gc < 2; gc++ {
				g.AddLink(child, next, 10e6, 0.020, loss/2)
				leaf.Leaves = append(leaf.Leaves, next)
				next++
			}
			spec.Receivers = append(spec.Receivers, leaf.Leaves...)
			spec.Zones = append(spec.Zones, leaf)
		}
	}
	return spec
}

// levelView is one group's state at one chain zone, in either model.
type levelView struct {
	zlc, pending      int
	sampled, injected bool
}

// groupView is what the lockstep comparison reads of one group.
type groupView struct {
	llc, held, maxShare, repairsHeard, reqExp, scopeIdx, attempts, outstanding int
	complete, inRepair, sendBusy, catchUp                                      bool
	levels                                                                     [4]levelView
	timers                                                                     [3]bool
}

// oracleMember is what the driver needs of an agent of either model.
type oracleMember interface {
	fabric.Agent
	Join()
	JoinLate()
	StartSource()
	EmitUnrecoveredLosses(now eventq.Time)
	// view reports group gid's state, ok false if it was never opened.
	view(t *testing.T, gid uint32) (v groupView, ok bool)
	// totals reports the counters, the late-join window in use and the
	// predicted ZLC of every chain zone.
	totals() (Stats, int, []float64)
	zcrOfAny() bool
}

func (a *Agent) view(t *testing.T, gid uint32) (groupView, bool) {
	g := a.group(gid)
	if g == nil {
		return groupView{}, false
	}
	v := groupView{
		llc: g.llc, held: g.held, maxShare: g.maxShare, repairsHeard: g.repairsHeard,
		reqExp: g.reqExp, scopeIdx: g.scopeIdx, attempts: g.attempts, outstanding: g.outstanding,
		complete: g.complete, inRepair: g.inRepair, sendBusy: g.sendBusy, catchUp: g.catchUp,
		timers: [3]bool{g.reqTimer.Active(), g.replyTimer.Active(), g.ldpTimer.Active()},
	}
	if len(g.lv) != len(a.chain) {
		t.Fatalf("node %d group %d: %d level records for a chain of %d", a.node, gid, len(g.lv), len(a.chain))
	}
	for i, lv := range g.lv {
		v.levels[i] = levelView{lv.zlc, lv.pending, lv.sampled, lv.injected}
	}
	return v, true
}

func (a *Agent) totals() (Stats, int, []float64) {
	return a.Stats, a.catchUpActive, predictions(a.ctrl, a.chain)
}

func (a *Agent) zcrOfAny() bool { return !a.isSource && a.anyZCRDuty() }

func (a *oracleAgent) view(t *testing.T, gid uint32) (groupView, bool) {
	g := a.groups[gid]
	if g == nil {
		return groupView{}, false
	}
	v := groupView{
		llc: g.llc, held: g.held, maxShare: g.maxShare, repairsHeard: g.repairsHeard,
		reqExp: g.reqExp, scopeIdx: g.scopeIdx, attempts: g.attempts, outstanding: g.outstanding,
		complete: g.complete, inRepair: g.inRepair, sendBusy: g.sendBusy, catchUp: g.catchUp,
		timers: [3]bool{g.reqTimer.Active(), g.replyTimer.Active(), g.ldpTimer.Active()},
	}
	// Every key the maps hold must be a chain zone: the array model has
	// nowhere to keep anything else.
	inChain := func(z scoping.ZoneID) {
		for _, c := range a.chain {
			if c == z {
				return
			}
		}
		t.Fatalf("node %d group %d: oracle holds state for zone %d, outside its chain %v", a.node, gid, z, a.chain)
	}
	for z := range g.zlc {
		inChain(z)
	}
	for z := range g.pending {
		inChain(z)
	}
	for z := range g.zlcSampled {
		inChain(z)
	}
	for z := range g.injected {
		inChain(z)
	}
	for i, z := range a.chain {
		v.levels[i] = levelView{g.zlc[z], g.pending[z], g.zlcSampled[z], g.injected[z]}
	}
	return v, true
}

func (a *oracleAgent) totals() (Stats, int, []float64) {
	return a.Stats, len(a.catchUpActive), predictions(a.ctrl, a.chain)
}

func (a *oracleAgent) zcrOfAny() bool { return !a.isSource && a.anyZCRDuty() }

func predictions(c Controller, chain []scoping.ZoneID) []float64 {
	out := make([]float64, len(chain))
	for i, z := range chain {
		out[i] = c.Predict(z)
	}
	return out
}

// oracleWorld is one model's copy of a session: its own queue, network,
// agents and recorded telemetry stream.
type oracleWorld struct {
	q       eventq.Queue
	members []oracleMember // indexed by node: every node of miniFigure10 is a member
	events  []telemetry.Event
	zones   int // zones in the session's hierarchy
}

type oracleScenario struct {
	name     string
	loss     float64
	burst    float64 // mean burst length of a Gilbert plan over every link; 0 for none
	opts     Options
	flat     bool            // run on the one-zone hierarchy, as the "ns" variants do
	lateJoin topology.NodeID // joins at 7 s, a second into the stream; 0 for nobody
	until    float64
	// wantUnrecovered requires the run to end with losses still open, so
	// EmitUnrecoveredLosses has an order to get right.
	wantUnrecovered bool
}

func buildOracleWorld(t *testing.T, sc oracleScenario, seed uint64,
	mk func(topology.NodeID, fabric.Network, Config, *simrand.Source) (oracleMember, error)) *oracleWorld {

	t.Helper()
	spec := miniFigure10(sc.loss)
	if sc.flat {
		spec = oneZone(spec)
	}
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatal(err)
	}
	w := &oracleWorld{zones: h.NumZones()}
	src := simrand.New(seed)
	net := netsim.New(&w.q, spec.Graph, h, src)
	bus := telemetry.NewBus()
	bus.Attach(func(e telemetry.Event) { w.events = append(w.events, e) })
	net.SetTelemetry(bus)
	cfg := DefaultConfig()
	cfg.NumPackets = 128 // 8 groups
	cfg.Source = spec.Source
	cfg.Options = sc.opts
	cfg.Telemetry = bus
	w.members = make([]oracleMember, spec.Graph.NumNodes())
	for _, m := range spec.Members() {
		ag, err := mk(m, net, cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		w.members[m] = ag
	}
	if sc.burst > 0 {
		plan := &faults.Plan{Events: []faults.Event{{Kind: faults.GilbertEqualMean, BurstLen: sc.burst}}}
		if err := faults.NewEngine(net, src, plan).Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.q.At(1, func(eventq.Time) {
		for _, m := range spec.Members() {
			if m != sc.lateJoin || m == spec.Source {
				w.members[m].Join()
			}
		}
	})
	w.q.At(6, func(eventq.Time) { w.members[spec.Source].StartSource() })
	if sc.lateJoin != 0 {
		w.q.At(7, func(eventq.Time) { w.members[sc.lateJoin].JoinLate() })
	}
	return w
}

func TestAgentMatchesMapOracle(t *testing.T) {
	scenarios := []oracleScenario{
		{name: "lossless", opts: Full(), until: 12},
		{name: "bernoulli", loss: 0.06, opts: Full(), until: 30},
		{name: "bernoulli-cut-short", loss: 0.10, opts: Full(), until: 7.6, wantUnrecovered: true},
		{name: "burst", loss: 0.06, burst: 4, opts: Full(), until: 30},
		{name: "no-scoping", loss: 0.06, opts: Options{Injection: true}, flat: true, until: 30},
		{name: "no-injection-adaptive-timers", loss: 0.06, opts: Options{AdaptiveTimers: true}, until: 30},
		{name: "sender-only", loss: 0.06, opts: Options{SenderOnly: true}, flat: true, until: 30},
		{name: "late-join", loss: 0.04, opts: Full(), lateJoin: 11, until: 30},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			const seed = 1998
			live := buildOracleWorld(t, sc, seed, func(n topology.NodeID, net fabric.Network, cfg Config, src *simrand.Source) (oracleMember, error) {
				return New(n, net, cfg, src)
			})
			model := buildOracleWorld(t, sc, seed, func(n topology.NodeID, net fabric.Network, cfg Config, src *simrand.Source) (oracleMember, error) {
				return newOracleAgent(n, net, cfg, src)
			})
			groups := uint32(128 / 16)
			steps, caughtUp := 0, false
			for live.q.NextAt() <= eventq.Time(sc.until) {
				live.q.Step()
				if !model.q.Step() || model.q.Now() != live.q.Now() {
					t.Fatalf("step %d: live clock %v, oracle clock %v", steps, live.q.Now(), model.q.Now())
				}
				steps++
				for i := range live.members {
					for gid := uint32(0); gid < groups; gid++ {
						got, gotOK := live.members[i].view(t, gid)
						want, wantOK := model.members[i].view(t, gid)
						if gotOK != wantOK || got != want {
							t.Fatalf("step %d (t=%v) node %d group %d:\n live   %v %+v\n oracle %v %+v",
								steps, live.q.Now(), i, gid, gotOK, got, wantOK, want)
						}
						caughtUp = caughtUp || got.catchUp
					}
				}
			}
			if next := model.q.NextAt(); next <= eventq.Time(sc.until) {
				t.Fatalf("oracle still has an event at %v after the live run ended", next)
			}
			zcrs := 0
			for i := range live.members {
				live.members[i].EmitUnrecoveredLosses(live.q.Now())
				model.members[i].EmitUnrecoveredLosses(model.q.Now())
				gs, gc, gp := live.members[i].totals()
				ws, wc, wp := model.members[i].totals()
				if gs != ws || gc != wc || fmt.Sprint(gp) != fmt.Sprint(wp) {
					t.Errorf("node %d totals:\n live   %+v window %d pred %v\n oracle %+v window %d pred %v", i, gs, gc, gp, ws, wc, wp)
				}
				if gs.BadShares != 0 || gs.BadNACKs != 0 {
					t.Errorf("node %d refused %d shares and %d NACKs of a well-formed session", i, gs.BadShares, gs.BadNACKs)
				}
				if live.members[i].zcrOfAny() {
					zcrs++
				}
			}
			if live.zones > 1 && (zcrs == 0 || zcrs == len(live.members)-1) {
				t.Errorf("%d of %d receivers head a zone: want both ZCRs and ordinary members compared", zcrs, len(live.members)-1)
			}
			if len(live.events) != len(model.events) {
				t.Fatalf("live emitted %d events, oracle %d", len(live.events), len(model.events))
			}
			unrecovered := 0
			for i, e := range live.events {
				if e != model.events[i] {
					t.Fatalf("event %d: live %s, oracle %s", i, e.Format(), model.events[i].Format())
				}
				if e.Kind == telemetry.KindLossUnrecovered {
					unrecovered++
				}
			}
			if (sc.lateJoin != 0) != caughtUp {
				t.Errorf("late joiner %d, but catch-up groups seen: %v", sc.lateJoin, caughtUp)
			}
			if sc.wantUnrecovered && unrecovered == 0 {
				t.Error("run ended with no unrecovered loss: EmitUnrecoveredLosses order went unchecked")
			}
			t.Logf("%d steps, %d events (%d unrecovered losses), %d ZCRs", steps, len(live.events), unrecovered, zcrs)
		})
	}
}
