// Package session implements SHARQFEC's administratively scoped session
// management (paper §5): staggered per-zone session messages, echo-based
// round-trip-time measurement, the reduced hierarchical state tables,
// indirect RTT estimation through Zone Closest Receivers (§5.1), and the
// adaptive ZCR election / challenge protocol (§5.2).
//
// One Manager runs per session member. The enclosing protocol agent
// forwards SESSION / ZCR-* packets to the Manager and queries it for the
// distance estimates its suppression timers need.
package session

import (
	"slices"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// The session-management constants are the values the paper's
// simulations used where it states them, and documented calibrations
// where it does not.
const (
	// steadyLo/steadyHi bound the uniform stagger between session
	// messages in steady state (paper §5: [0.9, 1.1] s).
	steadyLo, steadyHi = 0.9, 1.1
	// fastLo/fastHi bound the stagger for the first fastCount messages,
	// to speed convergence (paper §5: [0.05, 0.25] s for three
	// messages).
	fastLo, fastHi = 0.05, 0.25
	fastCount      = 3
	// rttAlpha is the weight of a new RTT sample in the EWMA merge.
	rttAlpha = 0.25
	// challengeLo/challengeHi bound the randomized interval between a
	// ZCR's periodic challenges (§5.2).
	challengeLo, challengeHi = 2.0, 3.0
	// watchdogFactor scales challengeHi into the non-ZCR watchdog
	// window ("slightly larger than that of their ZCR", §5.2).
	watchdogFactor = 1.8
	// bootstrapLo/bootstrapHi bound the watchdog window used while a
	// zone has no known ZCR at all, so initial elections finish inside
	// the paper's five-second session-stabilization window (§6.1).
	bootstrapLo, bootstrapHi = 0.4, 0.9
	// takeoverEpsilon is the distance improvement (seconds, one-way)
	// required before a node attempts a takeover, preventing flapping
	// between near-equidistant candidates.
	takeoverEpsilon = 0.002
)

// DefaultDist is the one-way distance (seconds) assumed for peers with
// no estimate yet; it bootstraps suppression timers.
const DefaultDist = 0.050

// Config carries what a session member takes from its owner.
type Config struct {
	// Telemetry receives the RTT-sample and ZCR-election events its
	// sinks read; nil reads none. The owning protocol agent propagates
	// its own bus here.
	Telemetry *telemetry.Bus
}

// DefaultConfig returns a Config with telemetry off.
func DefaultConfig() Config { return Config{} }

// heardPeer is what a member remembers of one peer at one scope: the last
// session message heard (for the entry echoed back) and the peer's latest
// receiver-report summary.
type heardPeer struct {
	sentAt    float64     // peer's SentAt timestamp
	arrival   eventq.Time // local arrival time
	rrLoss    float64     // reports.go; valid when rrMembers > 0
	rrMembers uint32
}

// challengeInfo tracks the last challenge heard per zone so the matching
// response can be interpreted.
type challengeInfo struct {
	challenger topology.NodeID // NoNode until a challenge is heard
	sentAt     float64         // challenger's timestamp
	recvAt     eventq.Time     // when *we* heard the challenge
}

// zoneState is everything a member tracks about one zone. The fields a
// session message reads sit together at the front.
type zoneState struct {
	id      scoping.ZoneID
	zcr     topology.NodeID  // believed ZCR, NoNode until one is known
	heard   table[heardPeer] // peers heard at this scope
	zcrDist float64          // announced one-way ZCR→parent-ZCR distance
	suspect bool             // incumbent silent past watchdog

	haveMyDist  bool
	myDist      float64 // measured when we are (or probe as) ZCR
	pendingDist float64 // distance the pending takeover was armed with
	challenge   challengeInfo

	// The zone's timers, armed through Manager.arm (see timerFired).
	takeover, duty, watchdog fabric.Timer

	// links is, in a chain zone's record, the link table of the first
	// ZCR heard announcing at this zone: a share New carves, unclaimed
	// (origin NoNode) until then.
	links zcrLinks
}

// zcrLinks is one ZCR's announced RTTs to its peers — a row of the
// reduced state table of Figure 5.
type zcrLinks struct {
	origin topology.NodeID
	rtt    table[float64]
}

// Manager is the per-node session-management state machine. Its state is
// map-free: a zone is found by scanning the few records in zones, a peer
// by binary search in a table.
type Manager struct {
	node topology.NodeID
	net  fabric.Network
	cfg  Config
	rng  *simrand.Rand

	chain []scoping.ZoneID // zones containing node, smallest first (shared, read-only)
	// zones holds one record per chain level, in chain order, then the
	// sibling zones whose elections were overheard at parent scope.
	// Appending may move the records: zoneFor is called once, on entry
	// to a handler, and timerFired finds a zone by its handles, not by
	// a captured address.
	zones []zoneState

	direct table[float64] // direct RTT estimate per peer
	// links holds the link tables of ZCRs whose chain zone's share was
	// already claimed by an earlier ZCR, as after a takeover.
	links []zcrLinks

	msgCount int
	started  bool
	stopped  bool
	// session is the session-message timer. It and every zone's timers
	// run the one callback in fire, made on the first arm, so no re-arm
	// allocates. A handle is zero whenever its timer is not pending:
	// timerFired zeroes it before the handler runs, and each Stop that
	// is not followed by a re-arm zeroes it too.
	session fabric.Timer
	fire    eventq.Handler

	// receiver-report aggregation (reports.go)
	rrLocal float64
	rrSet   bool

	// MaxSeq is advertised in session messages (SRM tail-loss
	// detection); the owning protocol keeps it current.
	MaxSeq uint32

	// Elections counts ZCR takeovers observed, for the §6.1 experiments.
	Elections int
	// BadZones counts session, challenge and takeover messages refused
	// because their Zone is not a zone of the hierarchy; they touch
	// nothing.
	BadZones int
}

// New creates a Manager for node. The node's zone chain comes from the
// network's scoping hierarchy.
func New(node topology.NodeID, net fabric.Network, cfg Config, rng *simrand.Rand) *Manager {
	h := net.Hierarchy()
	m := &Manager{node: node, net: net, cfg: cfg, rng: rng, chain: h.ZonesOf(node)}
	if len(m.chain) == 0 {
		panic("session: node is not a member of any zone")
	}
	m.zones = make([]zoneState, len(m.chain))
	// A zone's scope carries its own leaves and one ZCR per child zone.
	// Every chain zone's heard table is a share of one backing sized for
	// them all. A second backing holds direct, sized for the leaf zone,
	// and each chain zone's link share, sized for the two zones its ZCR
	// announces into: the zone and its parent. The three-index slice caps
	// each share, so a table that outgrows it reallocates alone and
	// never writes into the next one's rows.
	scope := func(z scoping.ZoneID) int { return len(h.Leaves(z)) + len(h.Children(z)) }
	n := 0
	for _, z := range m.chain {
		n += scope(z)
	}
	back := make(table[heardPeer], n)
	for i, z := range m.chain {
		c := scope(z)
		m.zones[i] = newZoneState(z)
		m.zones[i].heard, back = back[:0:c], back[c:]
	}
	leaf := cap(m.zones[0].heard)
	n = leaf
	for i := range m.chain {
		n += m.linkScope(i)
	}
	rtts := make(table[float64], n)
	m.direct, rtts = rtts[:0:leaf], rtts[leaf:]
	for i := range m.chain {
		c := m.linkScope(i)
		m.zones[i].links.rtt, rtts = rtts[:0:c], rtts[c:]
	}
	return m
}

// linkScope is the size of a link table announced by the ZCR of chain
// zone i, which announces into zone i and zone i's parent.
func (m *Manager) linkScope(i int) int {
	n := cap(m.zones[i].heard)
	if i+1 < len(m.chain) {
		n += cap(m.zones[i+1].heard)
	}
	return n
}

func newZoneState(z scoping.ZoneID) zoneState {
	return zoneState{
		id: z, zcr: topology.NoNode,
		challenge: challengeInfo{challenger: topology.NoNode},
		links:     zcrLinks{origin: topology.NoNode},
	}
}

// zone returns z's record, or nil if this member tracks nothing about z.
func (m *Manager) zone(z scoping.ZoneID) *zoneState {
	for i := range m.zones {
		if m.zones[i].id == z {
			return &m.zones[i]
		}
	}
	return nil
}

// knownZone reports whether a message's zone field names a zone of the
// hierarchy, counting the refusal in BadZones when it does not. Scoped
// delivery never hands a member another hierarchy's zone, but a socket
// can carry any 16-bit value, and zoneFor would open a record for it that
// the hierarchy's accessors then index unchecked.
func (m *Manager) knownZone(z int16) bool {
	if z >= 0 && int(z) < m.net.Hierarchy().NumZones() {
		return true
	}
	m.BadZones++
	return false
}

// zoneFor is zone, creating the record on first sight of z. The first
// record past the chain grows the records once, making room for every
// sibling zone the member can overhear.
func (m *Manager) zoneFor(z scoping.ZoneID) *zoneState {
	if zs := m.zone(z); zs != nil {
		return zs
	}
	if len(m.zones) == len(m.chain) {
		grown := make([]zoneState, len(m.zones), len(m.zones)+m.siblings())
		copy(grown, m.zones)
		m.zones = grown
	}
	m.zones = append(m.zones, newZoneState(z))
	return &m.zones[len(m.zones)-1]
}

// siblings counts the zones outside the chain whose elections a member
// overhears: a takeover is heard at its zone's parent scope, so the
// children of every chain zone, less the chain zone below it.
func (m *Manager) siblings() int {
	h := m.net.Hierarchy()
	n := 0
	for i, z := range m.chain {
		n += len(h.Children(z))
		if i > 0 {
			n--
		}
	}
	return n
}

// Node returns the owning node's ID.
func (m *Manager) Node() topology.NodeID { return m.node }

// Chain returns the node's zone chain, smallest zone first.
func (m *Manager) Chain() []scoping.ZoneID { return m.chain }

// Start begins session timers. If root is true the node declares itself
// the ZCR of the global zone (the data source / top cache, "by design" in
// the paper's deployments).
func (m *Manager) Start(root bool) {
	if m.started {
		return
	}
	m.started = true
	if root {
		rz := &m.zones[len(m.chain)-1]
		rz.zcr, rz.zcrDist = m.node, 0
		rz.myDist, rz.haveMyDist = 0, true
	}
	m.scheduleSession()
	// Watchdogs for every non-root zone in the chain: if no ZCR makes
	// itself heard, this node will issue a challenge (election
	// bootstrap, §5.2).
	for i, z := range m.chain {
		if m.net.Hierarchy().Parent(z) != scoping.NoZone {
			m.resetWatchdog(&m.zones[i])
		}
	}
}

// SeedZCR installs n as the designated ZCR of zone z before elections
// run, modelling the paper's deployments where zone representatives
// (caches, designated routers) are configured rather than discovered —
// Start(true) already does exactly this for the root zone. Call it
// before Start: members that know an incumbent arm the steady-state
// watchdog window instead of the short bootstrap window, so a fully
// designated session skips the O(members × parent-scope) bootstrap
// challenge storm that otherwise dominates large runs. Everything after
// that is the unchanged protocol: duty challenges, passive distance
// measurement, suppression and takeovers all still operate, so a badly
// placed designee is corrected the normal way (§5.2).
func (m *Manager) SeedZCR(z scoping.ZoneID, n topology.NodeID) {
	m.setZCR(m.net.Sched().Now(), m.zoneFor(z), n, DefaultDist)
}

// Stop silences the manager: it ceases sending session messages,
// challenges and takeovers, and ignores further input — modelling the
// failure of the member (the host dies; the network keeps routing).
func (m *Manager) Stop() { m.stopped = true }

// Stopped reports whether Stop was called.
func (m *Manager) Stopped() bool { return m.stopped }

// scheduleSession arms the next session-message timer with the paper's
// staggering rule.
func (m *Manager) scheduleSession() {
	lo, hi := steadyLo, steadyHi
	if m.msgCount < fastCount {
		lo, hi = fastLo, fastHi
	}
	m.arm(&m.session, eventq.Duration(m.rng.Uniform(lo, hi)))
}

// arm arms t, one of the Manager's timers, to fire d from now.
func (m *Manager) arm(t *fabric.Timer, d eventq.Duration) {
	if m.fire == nil {
		m.fire = m.timerFired
	}
	*t = m.net.Sched().After(d, m.fire)
}

// timerFired is the callback of every timer of the Manager. The queue
// retires an event before it runs the handler, so the timer that fired
// is the one handle that is set but no longer Active: no other is in
// that state, since a handle is zeroed when its timer fires (here) or
// stops for good. It zeroes that handle and runs the timer's handler.
func (m *Manager) timerFired(now eventq.Time) {
	if fired(&m.session) {
		if !m.stopped {
			m.sendSessionMessages(now)
			m.scheduleSession()
		}
		return
	}
	for i := range m.zones {
		switch zs := &m.zones[i]; {
		case fired(&zs.watchdog):
			m.watchdogFired(now, zs)
		case fired(&zs.duty):
			m.dutyFired(now, zs)
		case fired(&zs.takeover):
			if !m.stopped {
				m.sendTakeover(now, zs, zs.pendingDist)
			}
		default:
			continue
		}
		return
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

// sendSessionMessages emits this node's periodic messages: one scoped to
// its smallest zone, plus — for every zone it is the ZCR of — one to that
// (child) zone and one to the zone's parent (§5 rules: "the first session
// message lists entries for the child zone's receivers and is sent to the
// child zone, while the second is sent to the parent zone").
func (m *Manager) sendSessionMessages(now eventq.Time) {
	m.msgCount++
	m.sendSessionFor(now, &m.zones[0])
	// Sends climb the chain, so "already sent" is one high-water index.
	sent := 0
	for i := range m.chain {
		if m.zones[i].zcr != m.node {
			continue
		}
		if i > sent {
			m.sendSessionFor(now, &m.zones[i])
		}
		sent = i
		if i+1 < len(m.chain) {
			sent = i + 1
			m.sendSessionFor(now, &m.zones[sent])
		}
	}
}

// sendSessionFor builds and multicasts the session message for a zone,
// with one entry per peer heard there in ascending NodeID order.
func (m *Manager) sendSessionFor(now eventq.Time, zs *zoneState) {
	msg := packet.CarveSession(len(zs.heard))
	*msg = packet.Session{
		Origin:  m.node,
		Zone:    int16(zs.id),
		SentAt:  now.Seconds(),
		ZCR:     zs.zcr,
		MaxSeq:  m.MaxSeq,
		Entries: msg.Entries,
	}
	msg.RRWorstLoss, msg.RRMembers = m.reportFor(zs.id)
	if zs.zcr == m.node {
		msg.ZCRParentDist = zs.myDist
	} else {
		msg.ZCRParentDist = zs.zcrDist
	}
	for i := range zs.heard {
		h, e := &zs.heard[i], &msg.Entries[i]
		e.Peer, e.SinceHeard, e.Echo = h.id, now.Sub(h.val.arrival).Seconds(), h.val.sentAt
		if rtt := m.direct.get(h.id); rtt != nil {
			e.RTT = *rtt
		}
	}
	m.net.Multicast(m.node, zs.id, msg)
}

// HandleSession processes a received session message.
func (m *Manager) HandleSession(now eventq.Time, msg *packet.Session) {
	if !m.knownZone(msg.Zone) {
		return
	}
	zs := m.zoneFor(scoping.ZoneID(msg.Zone))
	// Record the peer for echoing in our next message at this scope.
	h, _ := zs.heard.put(msg.Origin)
	h.sentAt, h.arrival = msg.SentAt, now
	if msg.RRMembers != 0 {
		h.rrLoss, h.rrMembers = msg.RRWorstLoss, msg.RRMembers
	}

	// RTT sample from the echo of our own previous message.
	for i := range msg.Entries {
		if e := &msg.Entries[i]; e.Peer == m.node && e.Echo > 0 {
			sample := now.Seconds() - e.Echo - e.SinceHeard
			if sample >= 0 {
				m.observeRTT(msg.Origin, sample)
			}
		}
	}

	// Zone bookkeeping from the header.
	if msg.ZCR != topology.NoNode {
		if cur := zs.zcr; cur != msg.ZCR {
			// Adopt announcements; the challenge protocol corrects
			// stale claims.
			if cur == topology.NoNode || msg.Origin == msg.ZCR || msg.Origin == cur {
				m.setZCR(now, zs, msg.ZCR, msg.ZCRParentDist)
			}
		} else if msg.Origin == msg.ZCR {
			zs.zcrDist = msg.ZCRParentDist
		}
	}
	if msg.Origin == zs.zcr {
		zs.suspect = false
		m.resetWatchdog(zs)
	}

	// If the sender is one of our chain ZCRs, record its view of its
	// peers — the reduced state table of Figure 5.
	for i := range m.chain {
		if m.zones[i].zcr == msg.Origin {
			links := m.linksFor(msg.Origin, i, len(msg.Entries))
			for j := range msg.Entries {
				if e := &msg.Entries[j]; e.RTT > 0 {
					rtt, _ := links.put(e.Peer)
					*rtt = e.RTT
				}
			}
			break
		}
	}
}

// linksOf returns the link table origin announced, or nil.
func (m *Manager) linksOf(origin topology.NodeID) *table[float64] {
	// An unclaimed share's origin is NoNode, which is not a claim.
	if origin != topology.NoNode {
		for i := range m.chain {
			if l := &m.zones[i].links; l.origin == origin {
				return &l.rtt
			}
		}
	}
	for i := range m.links {
		if m.links[i].origin == origin {
			return &m.links[i].rtt
		}
	}
	return nil
}

// linksFor is linksOf, creating the table on the first announcement of
// origin, the ZCR of chain zone i. The first such ZCR claims zone i's
// share, which settles without regrowing; a later one, after a
// takeover, gets a table of the same size (or of the announcement's
// entries, if more). So does a NoNode origin, which a socket can carry
// and which cannot mark a share claimed.
func (m *Manager) linksFor(origin topology.NodeID, i, entries int) *table[float64] {
	if l := m.linksOf(origin); l != nil {
		return l
	}
	if l := &m.zones[i].links; l.origin == topology.NoNode && origin != topology.NoNode {
		l.origin = origin
		return &l.rtt
	}
	size := max(m.linkScope(i), entries)
	m.links = append(m.links, zcrLinks{origin: origin, rtt: make(table[float64], 0, size)})
	return &m.links[len(m.links)-1].rtt
}

// observeRTT merges a new RTT sample for peer with the EWMA filter.
func (m *Manager) observeRTT(peer topology.NodeID, sample float64) {
	if m.cfg.Telemetry.Wants(telemetry.KindRTTSample) {
		m.cfg.Telemetry.Emit(telemetry.Event{
			T: m.net.Sched().Now().Seconds(), Kind: telemetry.KindRTTSample,
			Node: m.node, Zone: scoping.NoZone, Group: -1,
			A: int64(peer), F: sample,
		})
	}
	if rtt, fresh := m.direct.put(peer); fresh {
		*rtt = sample
	} else {
		*rtt = (1-rttAlpha)**rtt + rttAlpha*sample
	}
}

// zcrOf returns the believed ZCR of z, or NoNode.
func (m *Manager) zcrOf(z scoping.ZoneID) topology.NodeID {
	if zs := m.zone(z); zs != nil {
		return zs.zcr
	}
	return topology.NoNode
}

// ZCR returns the node currently believed to be z's Zone Closest
// Receiver, or topology.NoNode if none is known yet.
func (m *Manager) ZCR(z scoping.ZoneID) topology.NodeID { return m.zcrOf(z) }

// IsZCR reports whether this node believes it is the ZCR of z.
func (m *Manager) IsZCR(z scoping.ZoneID) bool { return m.zcrOf(z) == m.node }

// StateSize returns the number of RTT entries this member maintains:
// direct peer estimates plus recorded ZCR link tables — the "RTTs
// maintained per receiver" quantity of Figure 8.
func (m *Manager) StateSize() int {
	n := len(m.direct)
	for i := range m.chain {
		n += len(m.zones[i].links.rtt)
	}
	for i := range m.links {
		n += len(m.links[i].rtt)
	}
	return n
}

// CensusTimers returns the number of armed session-layer timers
// (pending takeovers, periodic challenges, ZCR watchdogs) for the
// telemetry census. Read-only: it never arms or cancels anything.
func (m *Manager) CensusTimers() int {
	n := 0
	for i := range m.zones {
		zs := &m.zones[i]
		for _, t := range [...]fabric.Timer{zs.takeover, zs.duty, zs.watchdog} {
			if t.Active() {
				n++
			}
		}
	}
	return n
}

// DirectRTT returns the direct RTT estimate to peer, if one exists.
func (m *Manager) DirectRTT(peer topology.NodeID) (float64, bool) {
	if rtt := m.direct.get(peer); rtt != nil {
		return *rtt, true
	}
	return 0, false
}

// setZCR installs a new ZCR belief for a zone.
func (m *Manager) setZCR(now eventq.Time, zs *zoneState, n topology.NodeID, dist float64) {
	prev := zs.zcr
	zs.zcr, zs.zcrDist, zs.suspect = n, dist, false
	if prev != topology.NoNode && prev != n {
		m.Elections++
	}
	if prev != n && m.cfg.Telemetry.Wants(telemetry.KindZCRElected) {
		m.cfg.Telemetry.Emit(telemetry.Event{
			T: now.Seconds(), Kind: telemetry.KindZCRElected,
			Node: m.node, Zone: zs.id, Group: -1,
			A: int64(prev), B: int64(n),
		})
	}
	if n == m.node {
		m.sizeDirect()
		m.startChallengeDuty(zs)
	} else {
		zs.duty.Stop()
		zs.duty = fabric.Timer{}
	}
}

// sizeDirect makes room in direct, at most once per duty taken, for a
// peer of every zone this member samples RTTs in: the leaf zone, and the
// two zones it announces into as the ZCR of chain zone i — zone i and
// its parent, the rule linkScope sizes a link table by. New sized direct
// for the leaf zone alone.
func (m *Manager) sizeDirect() {
	n := 0
	for i := range m.chain {
		if i == 0 || m.zones[i].zcr == m.node || m.zones[i-1].zcr == m.node {
			n += cap(m.zones[i].heard)
		}
	}
	if n > cap(m.direct) {
		m.direct = slices.Grow(m.direct, n-len(m.direct))
	}
}
