package sharqfec

import (
	"fmt"
	"slices"

	"sharqfec/internal/packet"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// FailoverResult reports a ZCR-failure experiment (§3.2/§5.2 robustness:
// peer recovery and re-election absorb the loss of a zone's
// representative).
type FailoverResult struct {
	// FailedNode is the ZCR that was killed, and Zone its zone.
	FailedNode, Zone int
	// NewZCR is the survivor elected in its place (as seen unanimously
	// by the zone's surviving members; -1 if they do not agree on one
	// live node).
	NewZCR int
	// SurvivorCompletion is the fraction of groups completed by every
	// member other than the failed node.
	SurvivorCompletion float64
	// ZoneCompletion is the same restricted to the failed ZCR's zone.
	ZoneCompletion float64
}

// RunZCRFailover runs the full protocol on the Figure-10 topology,
// kills the ZCR of the first leaf zone mid-stream, and verifies the
// session heals: survivors elect a replacement and still recover the
// stream.
func RunZCRFailover(seed uint64) (*FailoverResult, error) {
	_, r, err := runData(DataConfig{
		Protocol: SHARQFEC, Seed: seed, NumPackets: 512, Until: 90,
		Faults: ZCRCrashPlan(), // node 8, the first tree child's leaf-zone ZCR, at 9 s
	}, nil)
	if err != nil {
		return nil, err
	}
	h := r.h
	failed := topology.NodeID(8)
	zone := h.LeafZone(failed)
	live := func(m topology.NodeID) bool { return !r.gone[m] }
	res := &FailoverResult{
		FailedNode: int(failed), Zone: int(zone), NewZCR: -1,
		SurvivorCompletion: r.completion(live),
		ZoneCompletion:     r.completion(func(m topology.NodeID) bool { return live(m) && h.Contains(zone, m) }),
	}
	if zcr, ok := zoneAgreement(h, r.coreAgent, zone, failed); ok {
		res.NewZCR = int(zcr)
	}
	return res, nil
}

// LateJoinResult reports a late-join experiment: the recovery of a
// receiver that subscribes mid-stream (the extension §7 defers to the
// author's thesis: the hierarchy localizes late-join repair traffic).
type LateJoinResult struct {
	Joiner int
	JoinAt float64
	// Completion is the fraction of all groups (including those sent
	// before the join) the joiner eventually reconstructed.
	Completion float64
	// LocalRepairFrac is the fraction of repair packets the joiner
	// received that were scoped to its own leaf or intermediate zone
	// rather than globally.
	LocalRepairFrac float64
	// CatchUpSeconds is how long after joining the last missed group
	// completed.
	CatchUpSeconds float64
}

// RunLateJoin runs the full protocol on Figure-10 with one receiver
// joining at joinAt seconds (0 → default 9.6, after the stream ends).
// The joiner is crashed before the session's joins and restarted, as a
// fresh late joiner, at joinAt.
func RunLateJoin(seed uint64, joinAt float64) (*LateJoinResult, error) {
	if joinAt == 0 {
		joinAt = 9.6
	}
	const late = 12
	localRepairs, globalRepairs := 0, 0
	_, r, err := runData(DataConfig{
		Protocol: SHARQFEC, Seed: seed, NumPackets: 256, Until: 120,
		Faults: NewFaultPlan().Crash(0, late).Restart(joinAt, late),
	}, func(r *dataRun) {
		r.buses[r.owner[late]].AttachKinds(func(e telemetry.Event) {
			if e.Kind == telemetry.KindPacketDelivered && e.Node == late &&
				e.A == int64(packet.TypeRepair) && e.T > joinAt {
				if r.h.Level(e.Zone) > 0 {
					localRepairs++
				} else {
					globalRepairs++
				}
			}
		}, telemetry.KindPacketDelivered)
	})
	if err != nil {
		return nil, err
	}

	res := &LateJoinResult{
		Joiner:     late,
		JoinAt:     joinAt,
		Completion: r.completion(func(m topology.NodeID) bool { return m == late }),
	}
	if total := localRepairs + globalRepairs; total > 0 {
		res.LocalRepairFrac = float64(localRepairs) / float64(total)
	}
	if lastDone := slices.Max(r.doneOf(late)); lastDone > 0 {
		res.CatchUpSeconds = lastDone.Seconds() - joinAt
	}
	return res, nil
}

// String renders the failover result for CLI output.
func (r *FailoverResult) String() string {
	return fmt.Sprintf("failed ZCR %d (zone %d): new ZCR %d, survivor completion %.2f%%, zone completion %.2f%%",
		r.FailedNode, r.Zone, r.NewZCR, 100*r.SurvivorCompletion, 100*r.ZoneCompletion)
}

// String renders the late-join result for CLI output.
func (r *LateJoinResult) String() string {
	return fmt.Sprintf("joiner %d at t=%.1fs: completion %.2f%%, %.0f%% of repairs zone-local, caught up in %.1fs",
		r.Joiner, r.JoinAt, 100*r.Completion, 100*r.LocalRepairFrac, r.CatchUpSeconds)
}
