package session

import (
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// RTTToChainZCR returns this node's composed RTT estimate to the ZCR of
// chain level idx (0 = leaf zone's ZCR), built by "adding the observed
// RTTs between successive generations" (§5 rules). The second result
// reports whether every hop of the composition is known.
func (m *Manager) RTTToChainZCR(idx int) (float64, bool) {
	if idx < 0 || idx >= len(m.chain) {
		return 0, false
	}
	total := 0.0
	prev := m.node
	for i := 0; i <= idx; i++ {
		z := m.zones[i].zcr
		if z == topology.NoNode {
			return 0, false
		}
		if z == prev {
			continue // we (or the previous hop's ZCR) also head this zone
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

// hopRTT returns the RTT between from and to using the direct table (when
// from is this node) or the recorded ZCR link tables.
func (m *Manager) hopRTT(from, to topology.NodeID) (float64, bool) {
	if from == m.node {
		return m.DirectRTT(to)
	}
	if rtt, ok := m.linkRTT(from, to); ok {
		return rtt, true
	}
	// Links are announced symmetrically often enough to try the reverse
	// direction too.
	return m.linkRTT(to, from)
}

// linkRTT returns the RTT to peer that origin announced, if recorded.
func (m *Manager) linkRTT(origin, peer topology.NodeID) (float64, bool) {
	if links := m.linksOf(origin); links != nil {
		if rtt := links.get(peer); rtt != nil {
			return *rtt, true
		}
	}
	return 0, false
}

// AncestorList builds the (ZCR, RTT) entries a node attaches to outgoing
// NACKs: its estimate of the distance to each of the parent ZCRs that
// will hear the message (§5 rules). Unknown levels are omitted, and with
// none known the list is nil. A list is counted before it is carved, at
// exactly its size, from the packet arena (packet.CarveAncestors): it is
// the sender's to hand out once, and never written again.
func (m *Manager) AncestorList() []packet.AncestorRTT {
	n := 0
	for i := range m.chain {
		if _, ok := m.ancestor(i); ok {
			n++
		}
	}
	out := packet.CarveAncestors(n)[:0]
	for i := range m.chain {
		if e, ok := m.ancestor(i); ok {
			out = append(out, e)
		}
	}
	return out
}

// ancestor returns chain level i's AncestorList entry, if the level has
// a ZCR other than this node and its distance is known.
func (m *Manager) ancestor(i int) (packet.AncestorRTT, bool) {
	z := m.zones[i].zcr
	if z == topology.NoNode || z == m.node {
		return packet.AncestorRTT{}, false
	}
	rtt, ok := m.RTTToChainZCR(i)
	return packet.AncestorRTT{ZCR: z, RTT: rtt}, ok
}

// EstimateRTT estimates the RTT between this node and sender, using the
// direct table when the sender is a known peer and otherwise composing
// through sibling ZCRs with the sender-supplied ancestor list, exactly
// the Figure-6 construction. The boolean reports whether any estimate
// could be formed.
func (m *Manager) EstimateRTT(sender topology.NodeID, ancestors []packet.AncestorRTT) (float64, bool) {
	if sender == m.node {
		return 0, true
	}
	if rtt, ok := m.DirectRTT(sender); ok {
		return rtt, true
	}
	// Walk the sender's ancestors from the smallest scope outward; the
	// first join point gives the most local (most accurate) composition.
	for _, a := range ancestors {
		// Case 1: we know the sender's ancestor ZCR directly.
		if rtt, ok := m.DirectRTT(a.ZCR); ok {
			return rtt + a.RTT, true
		}
		// Case 2: the ancestor is one of our own chain ZCRs.
		for i := range m.chain {
			if m.zones[i].zcr == a.ZCR {
				if mine, ok := m.RTTToChainZCR(i); ok {
					return mine + a.RTT, true
				}
			}
		}
		// Case 3: one of our chain ZCRs has announced an RTT to the
		// sender's ancestor (sibling ZCRs heard in a shared parent
		// zone — receiver 13's path to receiver 8 in Figure 6).
		for i := range m.chain {
			z := m.zones[i].zcr
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

// Dist returns the one-way distance estimate to peer (RTT/2), falling
// back to DefaultDist when nothing is known. Protocol timers
// are specified in terms of one-way transit times d_{S,A}.
func (m *Manager) Dist(peer topology.NodeID, ancestors []packet.AncestorRTT) float64 {
	if rtt, ok := m.EstimateRTT(peer, ancestors); ok && rtt > 0 {
		return rtt / 2
	}
	return DefaultDist
}

// MostDistantRTT returns the largest known RTT between this node and any
// member of zone z: direct estimates for participants heard at that
// scope, extended through child-zone ZCR link tables for obscured
// members. ZCRs use 2.5× this value to time their ZLC measurement (§4).
func (m *Manager) MostDistantRTT(z scoping.ZoneID) float64 {
	max := 0.0
	if zs := m.zone(z); zs != nil {
		for i := range zs.heard {
			if rtt, ok := m.DirectRTT(zs.heard[i].id); ok && rtt > max {
				max = rtt
			}
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
		if links := m.linksOf(czcr); links != nil {
			for _, l := range *links {
				if l.val > far {
					far = l.val
				}
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
