package session

// oracle is the reference model TestManagerMatchesMapOracle checks the
// Manager against: the session state machine written the obvious way,
// one Go map per quantity (per-zone maps keyed by ZoneID, per-peer maps
// keyed by NodeID, one heap object per peer), with the Manager's exact
// order of timer arming and random draws. It is deliberately plain and
// shares no state code with the Manager, so a slip in the zone records,
// the side table or the sorted tables shows as a disagreement.

import (
	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

type oracleEcho struct {
	sentAt  float64
	arrival eventq.Time
}

type oraclePeer struct {
	rtt  float64
	have bool
}

type oracleChallenge struct {
	challenger topology.NodeID
	sentAt     float64
	recvAt     eventq.Time
}

type oracle struct {
	node topology.NodeID
	net  fabric.Network
	cfg  Config
	rng  *simrand.Rand

	chain []scoping.ZoneID
	leaf  scoping.ZoneID

	direct  map[topology.NodeID]*oraclePeer
	heardAt map[scoping.ZoneID]map[topology.NodeID]*oracleEcho

	zcr          map[scoping.ZoneID]topology.NodeID
	zcrDist      map[scoping.ZoneID]float64
	myParentDist map[scoping.ZoneID]float64
	zcrLink      map[topology.NodeID]map[topology.NodeID]float64
	zcrHeard     map[scoping.ZoneID]eventq.Time

	lastChallenge   map[scoping.ZoneID]oracleChallenge
	suspectZCR      map[scoping.ZoneID]bool
	pendingTakeover map[scoping.ZoneID]fabric.Timer
	pendingDist     map[scoping.ZoneID]float64
	challengeTimer  map[scoping.ZoneID]fabric.Timer
	watchdog        map[scoping.ZoneID]fabric.Timer

	msgCount int
	started  bool
	stopped  bool

	rrLocal float64
	rrSet   bool
	heardRR map[scoping.ZoneID]map[topology.NodeID]oracleRR

	MaxSeq uint32

	Elections int
}

func newOracle(node topology.NodeID, net fabric.Network, cfg Config, rng *simrand.Rand) *oracle {
	m := &oracle{
		node:            node,
		net:             net,
		cfg:             cfg,
		rng:             rng,
		chain:           net.Hierarchy().ZonesOf(node),
		direct:          make(map[topology.NodeID]*oraclePeer),
		heardAt:         make(map[scoping.ZoneID]map[topology.NodeID]*oracleEcho),
		zcr:             make(map[scoping.ZoneID]topology.NodeID),
		zcrDist:         make(map[scoping.ZoneID]float64),
		myParentDist:    make(map[scoping.ZoneID]float64),
		zcrLink:         make(map[topology.NodeID]map[topology.NodeID]float64),
		zcrHeard:        make(map[scoping.ZoneID]eventq.Time),
		lastChallenge:   make(map[scoping.ZoneID]oracleChallenge),
		suspectZCR:      make(map[scoping.ZoneID]bool),
		pendingTakeover: make(map[scoping.ZoneID]fabric.Timer),
		pendingDist:     make(map[scoping.ZoneID]float64),
		challengeTimer:  make(map[scoping.ZoneID]fabric.Timer),
		watchdog:        make(map[scoping.ZoneID]fabric.Timer),
		heardRR:         make(map[scoping.ZoneID]map[topology.NodeID]oracleRR),
	}
	if len(m.chain) == 0 {
		panic("session: node is not a member of any zone")
	}
	m.leaf = m.chain[0]
	return m
}

func (m *oracle) Start(root bool) {
	if m.started {
		return
	}
	m.started = true
	now := m.net.Sched().Now()
	if root {
		rootZone := m.chain[len(m.chain)-1]
		m.zcr[rootZone] = m.node
		m.zcrDist[rootZone] = 0
		m.myParentDist[rootZone] = 0
		m.zcrHeard[rootZone] = now
	}
	m.scheduleSession()
	for _, z := range m.chain {
		if m.net.Hierarchy().Parent(z) == scoping.NoZone {
			continue
		}
		m.resetWatchdog(z)
	}
}

func (m *oracle) SeedZCR(z scoping.ZoneID, n topology.NodeID) {
	m.setZCR(m.net.Sched().Now(), z, n, DefaultDist)
}

func (m *oracle) scheduleSession() {
	lo, hi := steadyLo, steadyHi
	if m.msgCount < fastCount {
		lo, hi = fastLo, fastHi
	}
	d := eventq.Duration(m.rng.Uniform(lo, hi))
	m.net.Sched().After(d, func(now eventq.Time) {
		if m.stopped {
			return
		}
		m.sendSessionMessages(now)
		m.scheduleSession()
	})
}

func (m *oracle) sendSessionMessages(now eventq.Time) {
	m.msgCount++
	sent := map[scoping.ZoneID]bool{m.leaf: true}
	m.sendSessionFor(now, m.leaf)
	for _, z := range m.chain {
		if m.zcr[z] != m.node {
			continue
		}
		if !sent[z] {
			sent[z] = true
			m.sendSessionFor(now, z)
		}
		if p := m.net.Hierarchy().Parent(z); p != scoping.NoZone && !sent[p] {
			sent[p] = true
			m.sendSessionFor(now, p)
		}
	}
}

func (m *oracle) sendSessionFor(now eventq.Time, z scoping.ZoneID) {
	msg := &packet.Session{
		Origin: m.node,
		Zone:   int16(z),
		SentAt: now.Seconds(),
		ZCR:    topology.NoNode,
		MaxSeq: m.MaxSeq,
	}
	msg.RRWorstLoss, msg.RRMembers = m.reportFor(z)
	if zcr, ok := m.zcr[z]; ok {
		msg.ZCR = zcr
		if zcr == m.node {
			msg.ZCRParentDist = m.myParentDist[z]
		} else {
			msg.ZCRParentDist = m.zcrDist[z]
		}
	}
	for peer, e := range m.heardAt[z] {
		entry := packet.SessionEntry{
			Peer:       peer,
			SinceHeard: now.Sub(e.arrival).Seconds(),
			Echo:       e.sentAt,
		}
		if pi := m.direct[peer]; pi != nil && pi.have {
			entry.RTT = pi.rtt
		}
		msg.Entries = append(msg.Entries, entry)
	}
	m.net.Multicast(m.node, z, msg)
}

func (m *oracle) HandleSession(now eventq.Time, msg *packet.Session) {
	z := scoping.ZoneID(msg.Zone)
	peers := m.heardAt[z]
	if peers == nil {
		peers = make(map[topology.NodeID]*oracleEcho)
		m.heardAt[z] = peers
	}
	peers[msg.Origin] = &oracleEcho{sentAt: msg.SentAt, arrival: now}
	m.recordReport(z, msg)

	for _, e := range msg.Entries {
		if e.Peer == m.node && e.Echo > 0 {
			sample := now.Seconds() - e.Echo - e.SinceHeard
			if sample >= 0 {
				m.observeRTT(msg.Origin, sample)
			}
		}
	}

	if msg.ZCR != topology.NoNode {
		if cur, ok := m.zcr[z]; !ok || cur != msg.ZCR {
			if !ok || msg.Origin == msg.ZCR || msg.Origin == cur {
				m.setZCR(now, z, msg.ZCR, msg.ZCRParentDist)
			}
		} else if msg.Origin == msg.ZCR {
			m.zcrDist[z] = msg.ZCRParentDist
		}
	}
	if msg.Origin == m.zcrOf(z) {
		m.zcrHeard[z] = now
		m.suspectZCR[z] = false
		m.resetWatchdog(z)
	}

	for _, c := range m.chain {
		if m.zcrOf(c) == msg.Origin {
			links := m.zcrLink[msg.Origin]
			if links == nil {
				links = make(map[topology.NodeID]float64)
				m.zcrLink[msg.Origin] = links
			}
			for _, e := range msg.Entries {
				if e.RTT > 0 {
					links[e.Peer] = e.RTT
				}
			}
			break
		}
	}
}

func (m *oracle) observeRTT(peer topology.NodeID, sample float64) {
	pi := m.direct[peer]
	if pi == nil {
		pi = &oraclePeer{}
		m.direct[peer] = pi
	}
	if !pi.have {
		pi.rtt = sample
		pi.have = true
		return
	}
	pi.rtt = (1-rttAlpha)*pi.rtt + rttAlpha*sample
}

func (m *oracle) zcrOf(z scoping.ZoneID) topology.NodeID {
	if n, ok := m.zcr[z]; ok {
		return n
	}
	return topology.NoNode
}

func (m *oracle) ZCR(z scoping.ZoneID) topology.NodeID { return m.zcrOf(z) }

func (m *oracle) IsZCR(z scoping.ZoneID) bool { return m.zcrOf(z) == m.node }

func (m *oracle) StateSize() int {
	n := len(m.direct)
	for _, links := range m.zcrLink {
		n += len(links)
	}
	return n
}

func (m *oracle) CensusTimers() int {
	n := 0
	for _, t := range m.pendingTakeover {
		if t.Active() {
			n++
		}
	}
	for _, t := range m.challengeTimer {
		if t.Active() {
			n++
		}
	}
	for _, t := range m.watchdog {
		if t.Active() {
			n++
		}
	}
	return n
}

func (m *oracle) DirectRTT(peer topology.NodeID) (float64, bool) {
	if pi := m.direct[peer]; pi != nil && pi.have {
		return pi.rtt, true
	}
	return 0, false
}

func (m *oracle) setZCR(now eventq.Time, z scoping.ZoneID, n topology.NodeID, dist float64) {
	prev, had := m.zcr[z]
	m.zcr[z] = n
	m.zcrDist[z] = dist
	m.zcrHeard[z] = now
	m.suspectZCR[z] = false
	if had && prev != n {
		m.Elections++
	}
	if n == m.node {
		m.startChallengeDuty(z)
	} else {
		m.challengeTimer[z].Stop()
		delete(m.challengeTimer, z)
	}
}

func (m *oracle) startChallengeDuty(z scoping.ZoneID) {
	if m.challengeTimer[z].Active() {
		return
	}
	if m.net.Hierarchy().Parent(z) == scoping.NoZone {
		return
	}
	d := eventq.Duration(m.rng.Uniform(challengeLo, challengeHi))
	m.challengeTimer[z] = m.net.Sched().After(d, func(now eventq.Time) {
		if m.stopped {
			return
		}
		if m.zcrOf(z) == m.node {
			m.issueChallenge(now, z)
			m.startChallengeDuty(z)
		}
	})
}

func (m *oracle) resetWatchdog(z scoping.ZoneID) {
	m.watchdog[z].Stop()
	var window float64
	if m.zcrOf(z) == topology.NoNode {
		window = m.rng.Uniform(bootstrapLo, bootstrapHi)
	} else {
		window = watchdogFactor * challengeHi * m.rng.Uniform(1.0, 1.5)
	}
	m.watchdog[z] = m.net.Sched().After(eventq.Duration(window), func(now eventq.Time) {
		if m.stopped {
			return
		}
		if m.zcrOf(z) != m.node {
			if m.zcrOf(z) != topology.NoNode {
				m.suspectZCR[z] = true
			}
			m.issueChallenge(now, z)
		}
		m.resetWatchdog(z)
	})
}

func (m *oracle) issueChallenge(now eventq.Time, z scoping.ZoneID) {
	parent := m.net.Hierarchy().Parent(z)
	if parent == scoping.NoZone {
		return
	}
	pz := m.zcrOf(parent)
	if pz == topology.NoNode {
		return
	}
	ch := &packet.ZCRChallenge{Origin: m.node, Zone: int16(z), SentAt: now.Seconds()}
	m.lastChallenge[z] = oracleChallenge{challenger: m.node, sentAt: now.Seconds(), recvAt: now}
	m.net.Multicast(m.node, parent, ch)
	if pz == m.node {
		m.myParentDist[z] = 0
		if m.zcrOf(z) == m.node {
			m.zcrDist[z] = 0
		}
		m.net.Multicast(m.node, parent, &packet.ZCRResponse{
			Origin: m.node, Zone: int16(z), Challenger: m.node, ProcDelay: 0,
		})
	}
}

func (m *oracle) HandleChallenge(now eventq.Time, msg *packet.ZCRChallenge) {
	z := scoping.ZoneID(msg.Zone)
	if m.net.Hierarchy().Contains(z, m.node) {
		m.lastChallenge[z] = oracleChallenge{challenger: msg.Origin, sentAt: msg.SentAt, recvAt: now}
	}
	if msg.Origin == m.zcrOf(z) {
		m.zcrHeard[z] = now
		m.suspectZCR[z] = false
		m.resetWatchdog(z)
	}
	parent := m.net.Hierarchy().Parent(z)
	if parent != scoping.NoZone && m.zcrOf(parent) == m.node && msg.Origin != m.node {
		m.net.Multicast(m.node, parent, &packet.ZCRResponse{
			Origin: m.node, Zone: msg.Zone, Challenger: msg.Origin, ProcDelay: 0,
		})
		if m.net.Hierarchy().Contains(z, m.node) {
			m.considerTakeover(now, z, 0)
		}
	}
}

func (m *oracle) HandleResponse(now eventq.Time, msg *packet.ZCRResponse) {
	z := scoping.ZoneID(msg.Zone)
	lc, ok := m.lastChallenge[z]
	if !ok || lc.challenger != msg.Challenger {
		return
	}
	if !m.net.Hierarchy().Contains(z, m.node) {
		return
	}

	var dist float64
	switch {
	case msg.Challenger == m.node:
		dist = (now.Seconds() - lc.sentAt - msg.ProcDelay) / 2
	case msg.Challenger == m.zcrOf(z):
		rtt, ok := m.DirectRTT(m.zcrOf(z))
		if !ok {
			return
		}
		if _, known := m.zcr[z]; !known {
			return
		}
		dist = rtt/2 + (now.Sub(lc.recvAt).Seconds() - msg.ProcDelay) - m.zcrDist[z]
	default:
		return
	}
	if dist < 0 {
		dist = 0
	}
	m.considerTakeover(now, z, dist)
}

func (m *oracle) considerTakeover(_ eventq.Time, z scoping.ZoneID, dist float64) {
	m.myParentDist[z] = dist
	cur := m.zcrOf(z)
	if cur == m.node {
		m.zcrDist[z] = dist
		return
	}
	if cur != topology.NoNode && !m.suspectZCR[z] && dist+takeoverEpsilon >= m.zcrDist[z] {
		return
	}
	if t := m.pendingTakeover[z]; t.Active() {
		if m.pendingDist[z] <= dist {
			return
		}
		t.Stop()
	}
	delay := eventq.Duration(0.001 + dist*m.rng.Uniform(1.0, 1.3))
	m.pendingDist[z] = dist
	m.pendingTakeover[z] = m.net.Sched().After(delay, func(fireAt eventq.Time) {
		if m.stopped {
			return
		}
		m.sendTakeover(fireAt, z, dist)
	})
}

func (m *oracle) sendTakeover(now eventq.Time, z scoping.ZoneID, dist float64) {
	to := &packet.ZCRTakeover{Origin: m.node, Zone: int16(z), DistToParent: dist}
	m.net.Multicast(m.node, z, to)
	if parent := m.net.Hierarchy().Parent(z); parent != scoping.NoZone {
		m.net.Multicast(m.node, parent, to)
	}
	m.setZCR(now, z, m.node, dist)
}

func (m *oracle) HandleTakeover(now eventq.Time, msg *packet.ZCRTakeover) {
	z := scoping.ZoneID(msg.Zone)
	if t := m.pendingTakeover[z]; t.Active() && m.pendingDist[z]+takeoverEpsilon >= msg.DistToParent {
		t.Stop()
	}
	if m.zcrOf(z) == m.node && msg.Origin != m.node {
		if d, ok := m.myParentDist[z]; ok && d+takeoverEpsilon < msg.DistToParent {
			m.sendTakeover(now, z, d)
			return
		}
	}
	m.setZCR(now, z, msg.Origin, msg.DistToParent)
	m.resetWatchdog(z)
}

func (m *oracle) Receive(now eventq.Time, pkt packet.Packet) bool {
	if m.stopped {
		switch pkt.(type) {
		case *packet.Session, *packet.ZCRChallenge, *packet.ZCRResponse, *packet.ZCRTakeover:
			return true
		}
		return false
	}
	switch p := pkt.(type) {
	case *packet.Session:
		m.HandleSession(now, p)
	case *packet.ZCRChallenge:
		m.HandleChallenge(now, p)
	case *packet.ZCRResponse:
		m.HandleResponse(now, p)
	case *packet.ZCRTakeover:
		m.HandleTakeover(now, p)
	default:
		return false
	}
	return true
}

func (m *oracle) RTTToChainZCR(idx int) (float64, bool) {
	if idx < 0 || idx >= len(m.chain) {
		return 0, false
	}
	total := 0.0
	prev := m.node
	for i := 0; i <= idx; i++ {
		z := m.zcrOf(m.chain[i])
		if z == topology.NoNode {
			return 0, false
		}
		if z == prev {
			continue
		}
		hop, ok := m.hopRTT(prev, z)
		if !ok {
			return 0, false
		}
		total += hop
		prev = z
	}
	return total, true
}

func (m *oracle) hopRTT(from, to topology.NodeID) (float64, bool) {
	if from == m.node {
		if rtt, ok := m.DirectRTT(to); ok {
			return rtt, true
		}
		return 0, false
	}
	if links := m.zcrLink[from]; links != nil {
		if rtt, ok := links[to]; ok {
			return rtt, true
		}
	}
	if links := m.zcrLink[to]; links != nil {
		if rtt, ok := links[from]; ok {
			return rtt, true
		}
	}
	return 0, false
}

func (m *oracle) AncestorList() []packet.AncestorRTT {
	var out []packet.AncestorRTT
	for i := range m.chain {
		z := m.zcrOf(m.chain[i])
		if z == topology.NoNode || z == m.node {
			continue
		}
		if rtt, ok := m.RTTToChainZCR(i); ok {
			out = append(out, packet.AncestorRTT{ZCR: z, RTT: rtt})
		}
	}
	return out
}

func (m *oracle) EstimateRTT(sender topology.NodeID, ancestors []packet.AncestorRTT) (float64, bool) {
	if sender == m.node {
		return 0, true
	}
	if rtt, ok := m.DirectRTT(sender); ok {
		return rtt, true
	}
	for _, a := range ancestors {
		if rtt, ok := m.DirectRTT(a.ZCR); ok {
			return rtt + a.RTT, true
		}
		for i := range m.chain {
			if m.zcrOf(m.chain[i]) == a.ZCR {
				if mine, ok := m.RTTToChainZCR(i); ok {
					return mine + a.RTT, true
				}
			}
		}
		for i := range m.chain {
			z := m.zcrOf(m.chain[i])
			if z == topology.NoNode {
				continue
			}
			link, ok := m.hopRTT(z, a.ZCR)
			if !ok {
				continue
			}
			mine, ok := m.RTTToChainZCR(i)
			if !ok {
				if z == m.node {
					mine = 0
					ok = true
				}
			}
			if ok {
				return mine + link + a.RTT, true
			}
		}
	}
	return 0, false
}

func (m *oracle) MostDistantRTT(z scoping.ZoneID) float64 {
	max := 0.0
	for peer := range m.heardAt[z] {
		if rtt, ok := m.DirectRTT(peer); ok && rtt > max {
			max = rtt
		}
	}
	for _, child := range m.net.Hierarchy().Children(z) {
		czcr := m.zcrOf(child)
		if czcr == topology.NoNode {
			continue
		}
		base, ok := m.DirectRTT(czcr)
		if !ok {
			continue
		}
		far := 0.0
		for _, rtt := range m.zcrLink[czcr] {
			if rtt > far {
				far = rtt
			}
		}
		if base+far > max {
			max = base + far
		}
	}
	if max == 0 {
		max = 2 * DefaultDist
	}
	return max
}

type oracleRR struct {
	loss    float64
	members uint32
}

func (m *oracle) SetLocalLossReport(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	m.rrLocal = frac
	m.rrSet = true
}

func (m *oracle) recordReport(z scoping.ZoneID, msg *packet.Session) {
	if msg.RRMembers == 0 {
		return
	}
	per := m.heardRR[z]
	if per == nil {
		per = make(map[topology.NodeID]oracleRR)
		m.heardRR[z] = per
	}
	per[msg.Origin] = oracleRR{loss: msg.RRWorstLoss, members: msg.RRMembers}
}

func (m *oracle) reportFor(z scoping.ZoneID) (loss float64, members uint32) {
	if m.rrSet {
		loss, members = m.rrLocal, 1
	}
	for _, c := range m.chain {
		if c == z || m.zcrOf(c) != m.node {
			continue
		}
		if !m.net.Hierarchy().IsAncestor(z, c) {
			continue
		}
		for origin, ri := range m.heardRR[c] {
			if origin == m.node {
				continue
			}
			if ri.loss > loss {
				loss = ri.loss
			}
			members += ri.members
		}
	}
	return loss, members
}

func (m *oracle) ReportersHeard(z scoping.ZoneID) int { return len(m.heardRR[z]) }

func (m *oracle) AggregatedReport(z scoping.ZoneID) (worstLoss float64, members uint32) {
	if m.rrSet && m.net.Hierarchy().Contains(z, m.node) {
		worstLoss, members = m.rrLocal, 1
	}
	for origin, ri := range m.heardRR[z] {
		if origin == m.node {
			continue
		}
		if ri.loss > worstLoss {
			worstLoss = ri.loss
		}
		members += ri.members
	}
	return worstLoss, members
}
