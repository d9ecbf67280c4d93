package sharqfec

import (
	"fmt"
	"slices"

	"sharqfec/internal/packet"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

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
// fresh late joiner, at joinAt. A joinAt at or after the run's 120 s
// horizon is refused: the restart would never fire, and the run would
// read as a joiner that failed to catch up.
func RunLateJoin(seed uint64, joinAt float64) (*LateJoinResult, error) {
	if joinAt == 0 {
		joinAt = 9.6
	}
	const late, until = 12, 120
	if joinAt >= until {
		return nil, fmt.Errorf("sharqfec: joinAt = %v; want a time before the %v s horizon", joinAt, until)
	}
	localRepairs, globalRepairs := 0, 0
	_, r, err := runData(DataConfig{
		Protocol: SHARQFEC, Seed: seed, NumPackets: 256, Until: until,
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

// String renders the late-join result for CLI output.
func (r *LateJoinResult) String() string {
	return fmt.Sprintf("joiner %d at t=%.1fs: completion %.2f%%, %.0f%% of repairs zone-local, caught up in %.1fs",
		r.Joiner, r.JoinAt, 100*r.Completion, 100*r.LocalRepairFrac, r.CatchUpSeconds)
}
