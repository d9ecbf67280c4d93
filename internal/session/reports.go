package session

import "sharqfec/internal/scoping"

// Hierarchical receiver-report aggregation — the §7 proposal of using
// SHARQFEC's session hierarchy to solve the RTCP announcement problem.
// Each member publishes its own reception quality; every session message
// then carries a summary (worst loss fraction, member count) of the
// subtree its sender represents: ordinary members report themselves,
// ZCRs fold in everything they heard inside the zones they head. The
// summaries bubble one level per ZCR, so the source learns the session's
// worst reception quality with O(zones) rather than O(receivers)
// reports.

// SetLocalLossReport publishes this member's own reception quality: the
// fraction of original packets it lost in transit (before repair).
func (m *Manager) SetLocalLossReport(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	m.rrLocal = frac
	m.rrSet = true
}

// foldReports folds every summary heard at zs's scope, other than our
// own, into (loss, members).
func (m *Manager) foldReports(zs *zoneState, loss float64, members uint32) (float64, uint32) {
	for i := range zs.heard {
		h := &zs.heard[i].val
		if zs.heard[i].id == m.node || h.rrMembers == 0 {
			continue
		}
		if h.rrLoss > loss {
			loss = h.rrLoss
		}
		members += h.rrMembers
	}
	return loss, members
}

// reportFor computes the summary this member attaches to a message
// scoped to z: its own report plus the aggregates of every zone below z
// that it heads.
func (m *Manager) reportFor(z scoping.ZoneID) (loss float64, members uint32) {
	if m.rrSet {
		loss, members = m.rrLocal, 1
	}
	for i, c := range m.chain {
		if c == z || m.zones[i].zcr != m.node || !m.net.Hierarchy().IsAncestor(z, c) {
			continue
		}
		loss, members = m.foldReports(&m.zones[i], loss, members)
	}
	return loss, members
}

// ReportersHeard returns how many distinct origins have contributed a
// summary at scope z — the announcement load at that level.
func (m *Manager) ReportersHeard(z scoping.ZoneID) int {
	n := 0
	if zs := m.zone(z); zs != nil {
		for i := range zs.heard {
			if zs.heard[i].val.rrMembers != 0 {
				n++
			}
		}
	}
	return n
}

// AggregatedReport returns this member's view of zone z's reception
// quality: the worst loss fraction reported by any summarized subtree
// and the number of receivers covered. The source calls this on the
// root zone for a session-wide view.
func (m *Manager) AggregatedReport(z scoping.ZoneID) (worstLoss float64, members uint32) {
	if m.rrSet && m.net.Hierarchy().Contains(z, m.node) {
		worstLoss, members = m.rrLocal, 1
	}
	if zs := m.zone(z); zs != nil {
		worstLoss, members = m.foldReports(zs, worstLoss, members)
	}
	return worstLoss, members
}
