package core

import "sharqfec/internal/telemetry/census"

// StateCensus reads the protocol state the agent holds resident, for
// the telemetry census on virtual-clock epochs. Collecting it only
// inspects state: it never arms timers, consumes randomness or mutates
// groups. A stopped (crashed) agent reports zero state: its successor
// probe owns the node.
//
// The fields are those census.State documents; MemBytes is
// footprintBytes, the estimate behind the census bytes-per-receiver
// gauge. An Agent is its own census.Probe.
func (a *Agent) StateCensus() census.State {
	var s census.State
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
		for _, p := range g.kept {
			resident += len(p)
		}
		if !g.complete || resident > 0 {
			s.Groups++
		}
		if g.reqTimer.Active() {
			s.Timers++
		}
		if g.replyTimer.Active() {
			s.Timers++
		}
		if g.ldpTimer.Active() {
			s.Timers++
		}
		s.RepairQueue += int64(a.totalPending(g))
		s.ResidentBytes += int64(resident)
	}
	for _, d := range a.sendData {
		for _, p := range d {
			s.ResidentBytes += int64(len(p))
		}
	}
	s.Timers += int64(a.sess.CensusTimers())
	s.SessionEntries = int64(a.sess.StateSize())
	s.MemBytes = int64(a.footprintBytes())
	return s
}
