package core

import (
	"sharqfec/internal/eventq"
)

// Late-join recovery (the extension the paper's §7 defers to the
// author's thesis): a receiver that joins mid-stream recovers the groups
// it missed *sequentially* through zone-scoped requests, so one member's
// catch-up is served by its zone's ZCR (which retains group data) rather
// than flooding wider scopes. Missed groups are explicitly not treated
// as network losses: they never contribute to LLC/ZLC, keeping the loss
// predictor honest.

// catchUpWindow bounds how many missed groups a late joiner recovers
// concurrently, keeping its catch-up traffic paced.
const catchUpWindow = 2

// JoinLate starts session management for a receiver joining mid-stream.
// The agent watches for the stream's current position (first data packet
// or session high-water mark), then recovers every earlier group through
// the catch-up queue, catchUpWindow groups at a time.
func (a *Agent) JoinLate() {
	if a.isSource {
		panic("core: JoinLate on the source")
	}
	a.joined = true
	a.lateJoiner = true
	a.joinSeq = -1
	a.sess.Start(false)
}

// IsCatchingUp reports whether late-join recovery is still running.
func (a *Agent) IsCatchingUp() bool {
	return a.lateJoiner && (a.joinSeq < 0 || len(a.catchUpQueue) > 0 || a.catchUpActive > 0)
}

// observeStreamPosition runs on the first evidence of the stream's
// high-water mark hw (inclusive); it enqueues all fully-missed groups
// and pins maxSeq so ordinary gap detection does not flood. Callers hand
// it a mark already bounded by the session's length (clampSeq).
func (a *Agent) observeStreamPosition(now eventq.Time, hw int64) {
	if !a.lateJoiner || a.joinSeq >= 0 || hw < 0 {
		return
	}
	k := int64(a.cfg.GroupK)
	// Join mid-group: the current group is handled by normal loss
	// detection; everything before it goes through catch-up.
	currentGroup := hw / k
	a.joinSeq = currentGroup * k
	a.maxSeq = a.joinSeq - 1
	for gid := int64(0); gid < currentGroup; gid++ {
		a.catchUpQueue = append(a.catchUpQueue, uint32(gid))
	}
	a.pumpCatchUp(now)
}

// pumpCatchUp starts recovery of queued groups up to the configured
// window.
func (a *Agent) pumpCatchUp(now eventq.Time) {
	if a.stopped {
		return
	}
	for a.catchUpActive < catchUpWindow && len(a.catchUpQueue) > 0 {
		gid := a.catchUpQueue[0]
		a.catchUpQueue = a.catchUpQueue[1:]
		g := a.ensureGroup(gid)
		if g.complete {
			continue
		}
		a.catchUpActive++
		if g.firstSeen == 0 {
			g.firstSeen = now
			g.scopeIdx = a.nackScope()
		}
		g.inRepair = true
		g.catchUp = true
		g.reqExp = 0 // dedicated recovery: no initial back-off factor
		// Count the whole group as needing recovery, but keep it out
		// of the loss counters (it was never "lost" on a link).
		a.armRequestTimer(now, g)
	}
}
