package session

import (
	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// This file implements the ZCR challenge phase (§5.2): periodic probes by
// each zone's ZCR of its distance to the parent ZCR, passive distance
// measurement by the other zone members using the paper's formula, and
// suppressed takeover when a closer receiver exists. Elections run
// top-down: a zone can only challenge once its parent zone has a ZCR.

// startChallengeDuty arms the periodic challenge timer for a zone this
// node is the ZCR of.
func (m *Manager) startChallengeDuty(zs *zoneState) {
	if zs.duty.Active() {
		return
	}
	if m.net.Hierarchy().Parent(zs.id) == scoping.NoZone {
		return // the root zone has no parent to probe
	}
	m.arm(&zs.duty, eventq.Duration(m.rng.Uniform(challengeLo, challengeHi)))
}

// dutyFired runs a zone's periodic challenge while this node is its ZCR.
func (m *Manager) dutyFired(now eventq.Time, zs *zoneState) {
	if !m.stopped && zs.zcr == m.node {
		m.issueChallenge(now, zs)
		m.startChallengeDuty(zs)
	}
}

// resetWatchdog re-arms the non-ZCR watchdog for a zone. Its window is
// "slightly larger" than the ZCR's challenge window so a healthy ZCR
// always wins the race.
func (m *Manager) resetWatchdog(zs *zoneState) {
	zs.watchdog.Stop()
	var window float64
	if zs.zcr == topology.NoNode {
		// No ZCR yet: probe quickly so the initial election happens
		// within the session-stabilization window.
		window = m.rng.Uniform(bootstrapLo, bootstrapHi)
	} else {
		window = watchdogFactor * challengeHi * m.rng.Uniform(1.0, 1.5)
	}
	m.arm(&zs.watchdog, eventq.Duration(window))
}

// watchdogFired runs when a zone's watchdog window passes with no word
// from its ZCR.
func (m *Manager) watchdogFired(now eventq.Time, zs *zoneState) {
	if m.stopped {
		return
	}
	if zs.zcr != m.node {
		// The incumbent has been silent for a whole watchdog window:
		// challenge, and treat its advertised distance as stale so a
		// takeover is not suppressed by a dead node (a live incumbent
		// simply reasserts, §5.2).
		if zs.zcr != topology.NoNode {
			zs.suspect = true
		}
		m.issueChallenge(now, zs)
	}
	m.resetWatchdog(zs)
}

// issueChallenge multicasts a ZCR challenge for a zone to the parent
// scope, provided the parent zone has elected a ZCR (top-down ordering).
func (m *Manager) issueChallenge(now eventq.Time, zs *zoneState) {
	parent := m.net.Hierarchy().Parent(zs.id)
	if parent == scoping.NoZone {
		return
	}
	pz := m.zcrOf(parent)
	if pz == topology.NoNode {
		return // back off until the parent zone has elected
	}
	ch := &packet.ZCRChallenge{Origin: m.node, Zone: int16(zs.id), SentAt: now.Seconds()}
	zs.challenge = challengeInfo{challenger: m.node, sentAt: now.Seconds(), recvAt: now}
	m.net.Multicast(m.node, parent, ch)
	if pz == m.node {
		// Degenerate case: we are also the parent ZCR, so no response
		// will arrive (no loopback). Answer our own probe so zone
		// members can still measure, and record a zero distance.
		zs.myDist, zs.haveMyDist = 0, true
		if zs.zcr == m.node {
			zs.zcrDist = 0
		}
		m.net.Multicast(m.node, parent, &packet.ZCRResponse{
			Origin: m.node, Zone: int16(zs.id), Challenger: m.node, ProcDelay: 0,
		})
	}
}

// HandleChallenge processes a ZCR challenge heard at the parent scope.
func (m *Manager) HandleChallenge(now eventq.Time, msg *packet.ZCRChallenge) {
	if !m.knownZone(msg.Zone) {
		return
	}
	z := scoping.ZoneID(msg.Zone)
	member := m.net.Hierarchy().Contains(z, m.node)
	zs := m.zone(z) // non-nil for every zone we are a member of
	if member {
		zs.challenge = challengeInfo{challenger: msg.Origin, sentAt: msg.SentAt, recvAt: now}
	}
	if zs != nil && msg.Origin == zs.zcr {
		zs.suspect = false
		m.resetWatchdog(zs)
	}
	parent := m.net.Hierarchy().Parent(z)
	if parent != scoping.NoZone && m.zcrOf(parent) == m.node && msg.Origin != m.node {
		// We are the parent ZCR: respond immediately (processing delay
		// is effectively zero in this simulator, and is carried
		// explicitly so receivers can subtract it regardless).
		m.net.Multicast(m.node, parent, &packet.ZCRResponse{
			Origin: m.node, Zone: msg.Zone, Challenger: msg.Origin, ProcDelay: 0,
		})
		if member {
			// We are also a member of the child zone, at distance zero
			// from its parent ZCR (ourselves) — contest directly,
			// since we will never hear our own response.
			m.considerTakeover(zs, 0)
		}
	}
}

// HandleResponse processes the parent ZCR's response to a challenge,
// computing this node's distance to the parent ZCR and contesting the
// ZCR role if closer (§5.2 formula and takeover rules).
func (m *Manager) HandleResponse(now eventq.Time, msg *packet.ZCRResponse) {
	z := scoping.ZoneID(msg.Zone)
	zs := m.zone(z)
	if zs == nil || zs.challenge.challenger == topology.NoNode || zs.challenge.challenger != msg.Challenger {
		return // stale or unmatched response
	}
	if !m.net.Hierarchy().Contains(z, m.node) {
		return // parent-zone bystander; nothing to measure
	}

	var dist float64
	switch {
	case msg.Challenger == m.node:
		// We probed: round trip halved, processing delay removed.
		dist = (now.Seconds() - zs.challenge.sentAt - msg.ProcDelay) / 2
	case msg.Challenger == zs.zcr:
		// Passive measurement with the paper's formula:
		// dist = d(me→localZCR) + (t_replyRecv − t_challengeRecv)
		//        − procDelay − d(localZCR→parentZCR).
		rtt, ok := m.DirectRTT(zs.zcr)
		if !ok {
			return
		}
		dist = rtt/2 + (now.Sub(zs.challenge.recvAt).Seconds() - msg.ProcDelay) - zs.zcrDist
	default:
		return // challenge came from a usurper; only it can measure
	}
	if dist < 0 {
		dist = 0
	}
	m.considerTakeover(zs, dist)
}

// considerTakeover schedules a distance-proportional suppressed takeover
// if this node appears closer to the parent ZCR than the incumbent.
func (m *Manager) considerTakeover(zs *zoneState, dist float64) {
	zs.myDist, zs.haveMyDist = dist, true
	if zs.zcr == m.node {
		// Already the ZCR: refresh the advertised distance.
		zs.zcrDist = dist
		return
	}
	if zs.zcr != topology.NoNode && !zs.suspect && dist+takeoverEpsilon >= zs.zcrDist {
		return // not meaningfully closer (and the incumbent is alive)
	}
	if t := zs.takeover; t.Active() {
		if zs.pendingDist <= dist {
			return // an earlier, closer attempt is already pending
		}
		t.Stop()
	}
	// Suppression: closer candidates fire earlier, so the closest
	// receiver in the zone wins the election.
	delay := eventq.Duration(0.001 + dist*m.rng.Uniform(1.0, 1.3))
	zs.pendingDist = dist // what the takeover announces when it fires
	m.arm(&zs.takeover, delay)
}

// sendTakeover announces this node as a zone's new ZCR to both the child
// zone and the parent zone.
func (m *Manager) sendTakeover(now eventq.Time, zs *zoneState, dist float64) {
	to := &packet.ZCRTakeover{Origin: m.node, Zone: int16(zs.id), DistToParent: dist}
	m.net.Multicast(m.node, zs.id, to)
	if parent := m.net.Hierarchy().Parent(zs.id); parent != scoping.NoZone {
		m.net.Multicast(m.node, parent, to)
	}
	m.setZCR(now, zs, m.node, dist)
}

// HandleTakeover processes a ZCR takeover announcement.
func (m *Manager) HandleTakeover(now eventq.Time, msg *packet.ZCRTakeover) {
	if !m.knownZone(msg.Zone) {
		return
	}
	zs := m.zoneFor(scoping.ZoneID(msg.Zone))
	// Suppress our own pending (not-closer) takeover.
	if t := zs.takeover; t.Active() && zs.pendingDist+takeoverEpsilon >= msg.DistToParent {
		t.Stop()
		zs.takeover = fabric.Timer{}
	}
	if zs.zcr == m.node && msg.Origin != m.node && zs.haveMyDist && zs.myDist+takeoverEpsilon < msg.DistToParent {
		// The usurper is farther than we are: reassert (§5.2).
		m.sendTakeover(now, zs, zs.myDist)
		return
	}
	m.setZCR(now, zs, msg.Origin, msg.DistToParent)
	m.resetWatchdog(zs)
}

// Receive dispatches a session-layer packet to its handler and reports
// whether the packet was consumed (false for data-plane packets the
// owning protocol must handle).
func (m *Manager) Receive(now eventq.Time, pkt packet.Packet) bool {
	if m.stopped {
		switch pkt.(type) {
		case *packet.Session, *packet.ZCRChallenge, *packet.ZCRResponse, *packet.ZCRTakeover:
			return true // consumed but ignored: the member is dead
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
