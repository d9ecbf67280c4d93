package core

import "sharqfec/internal/eventq"

// Adaptive suppression timers — the paper's primary future-work item
// (§7): "fixed timers are incapable of coping with all network
// topologies, and therefore inclusion of some mechanism for adjusting
// the timer constants can lead to enhanced performance. This task is
// complicated by the fact that SHARQFEC include[s] mechanisms that
// preemptively inject repairs."
//
// The adaptation follows the SRM paper's style, with the complication §7
// points out handled by measuring only NACK duplication (a duplicate
// NACK is one that failed to increase the ZLC): preemptively injected
// repairs suppress NACKs entirely, so they never register as duplicates
// and do not drag the window wider. Per completed group, each agent
// folds the group's duplicate count into an EWMA and nudges C1/C2:
// sustained duplicates widen the request window (more suppression),
// clean groups shrink it (faster recovery), within fixed bounds.

// scheduleTimerAdaptation samples a group's duplicate count once the
// stragglers have had time to arrive (2.5 RTTs past completion, like the
// ZLC measurement of §4) and folds it into the adaptation filter.
func (a *Agent) scheduleTimerAdaptation(g *group) {
	if !a.cfg.Options.AdaptiveTimers || a.isSource || g.llc == 0 {
		return
	}
	wait := eventq.Duration(zlcWaitRTTs * a.sess.MostDistantRTT(a.chain[len(a.chain)-1]))
	a.net.Sched().After(wait, func(eventq.Time) { a.adaptTimers(g) })
}

// adaptTimers folds one loss event's duplicate count into the EWMA and
// nudges the constants.
func (a *Agent) adaptTimers(g *group) {
	if a.stopped {
		return
	}
	a.aveDupNACK = 0.75*a.aveDupNACK + 0.25*float64(g.dupNACKs)
	switch {
	case a.aveDupNACK > 1:
		// Step proportional to the excess, so heavy duplication opens
		// the window quickly while mild duplication nudges it.
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

// timerC1C2 returns the request-timer constants currently in effect.
func (a *Agent) timerC1C2() (float64, float64) {
	if a.cfg.Options.AdaptiveTimers {
		return a.c1, a.c2
	}
	return a.cfg.C1, a.cfg.C2
}

// TimerConstants reports the request-timer constants in effect (equal to
// the configured C1/C2 unless adaptation has moved them).
func (a *Agent) TimerConstants() (c1, c2 float64) { return a.timerC1C2() }
