package core

import "sharqfec/internal/telemetry/census"

// StateCensus is a point-in-time accounting of the protocol state an
// agent holds resident, read by the telemetry census on virtual-clock
// epochs. Collecting it only inspects state — it never arms timers,
// consumes randomness or mutates groups.
type StateCensus struct {
	// ActiveGroups counts FEC groups still tracked: incomplete, or
	// complete but retaining share/data buffers for repair duty.
	ActiveGroups int
	// PendingTimers counts armed per-group request/reply/LDP timers
	// plus the session layer's election timers.
	PendingTimers int
	// RepairQueue is the speculative repair backlog: shares owed to
	// zone peers across every scope, summed over groups.
	RepairQueue int
	// ResidentBytes estimates the payload bytes held in share buffers,
	// decoded group data and (for the source) the transmit store.
	ResidentBytes int
	// SessionEntries is the session manager's RTT-entry count — the
	// "RTTs maintained per receiver" state quantity of Figure 8.
	SessionEntries int
	// MemBytes is the agent's estimated total protocol memory
	// footprint: the slab arena backing the group bitsets, the group
	// table, the blocks of group and per-level records, plus every
	// payload byte counted by ResidentBytes. It feeds the census
	// bytes-per-receiver gauge.
	MemBytes int
}

// StateCensus reads the agent's current census. A stopped (crashed)
// agent reports zero state: its successor probe owns the node.
func (a *Agent) StateCensus() StateCensus {
	var s StateCensus
	if a.stopped {
		return s
	}
	for _, g := range a.groups {
		if g == nil {
			continue
		}
		resident := 0
		for _, p := range g.shares {
			resident += len(p)
		}
		for _, p := range g.data {
			resident += len(p)
		}
		if !g.complete || resident > 0 {
			s.ActiveGroups++
		}
		if g.reqTimer.Active() {
			s.PendingTimers++
		}
		if g.replyTimer.Active() {
			s.PendingTimers++
		}
		if g.ldpTimer.Active() {
			s.PendingTimers++
		}
		s.RepairQueue += a.totalPending(g)
		s.ResidentBytes += resident
	}
	for _, d := range a.sendData {
		for _, p := range d {
			s.ResidentBytes += len(p)
		}
	}
	s.PendingTimers += a.sess.CensusTimers()
	s.SessionEntries = a.sess.StateSize()
	s.MemBytes = a.footprintBytes()
	return s
}

// Census converts the census to the record a telemetry census probe
// returns.
func (s StateCensus) Census() census.State {
	return census.State{
		Groups:         int64(s.ActiveGroups),
		Timers:         int64(s.PendingTimers),
		RepairQueue:    int64(s.RepairQueue),
		ResidentBytes:  int64(s.ResidentBytes),
		SessionEntries: int64(s.SessionEntries),
		MemBytes:       int64(s.MemBytes),
	}
}
