package sharqfec

import (
	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/topology"
)

// sweepParallelism caps the worker pool RunTimerSweep (and RunEnsemble)
// fan out to. Overridable in tests.
var sweepParallelism = runtimeGOMAXPROCS

// TimerSweepPoint is one point of the §7 timer-constant exploration:
// SHARQFEC run with the request/reply constants scaled by Multiplier.
type TimerSweepPoint struct {
	Multiplier float64
	C1, C2     float64
	D1, D2     float64
	// NACKs and Repairs count transmissions; DupShares counts shares
	// received redundantly (the suppression-quality signal).
	NACKs, Repairs, DupShares int
	// MeanRecovery is the mean delay (s) from a group's last original
	// packet to its reconstruction, averaged over late completions
	// (groups completed after their transmission window).
	MeanRecovery float64
	Completion   float64
}

// RunTimerSweep runs SHARQFEC on the Figure-10 scenario once per
// multiplier, scaling all four suppression-timer constants. The paper's
// future-work note observes fixed constants cannot fit every topology;
// the sweep exposes the latency/duplicate-suppression trade-off the
// constants control.
// Points run in parallel across a bounded worker pool: each point is an
// independent simulation with its own event queue and a seed derived
// only from (seed, multiplier position), so results are deterministic
// and returned in multiplier order regardless of scheduling.
func RunTimerSweep(seed uint64, multipliers []float64) ([]TimerSweepPoint, error) {
	if len(multipliers) == 0 {
		multipliers = []float64{0.5, 1, 2, 4}
	}
	out := make([]TimerSweepPoint, len(multipliers))
	errs := make([]error, len(multipliers))
	runIndexed(len(multipliers), func(i int) {
		pt, err := runTimerPoint(seed, multipliers[i])
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = *pt
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runTimerPoint(seed uint64, mult float64) (*TimerSweepPoint, error) {
	s, err := newSim(topology.Figure10(topology.Figure10Params{}), seed, 0, nil)
	if err != nil {
		return nil, err
	}

	pcfg := core.DefaultConfig()
	pcfg.NumPackets = 256
	pcfg.C1 *= mult
	pcfg.C2 *= mult
	pcfg.D1 *= mult
	pcfg.D2 *= mult

	ipt := pcfg.InterPacket()
	k := pcfg.GroupK
	groupEnd := func(gid uint32) float64 {
		return 6 + float64(int(gid+1)*k)*ipt
	}

	completions := 0
	var recoverySum float64
	var recoveries int
	agents, err := coreAgents(s, pcfg, func(m topology.NodeID, ag *core.Agent) {
		if m == s.spec.Source {
			return
		}
		ag.OnComplete = func(now eventq.Time, gid uint32, _ [][]byte) {
			completions++
			if delay := now.Seconds() - groupEnd(gid); delay > 0 {
				recoverySum += delay
				recoveries++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	stream(s, agents, 1, 6)
	s.run(60)

	pt := &TimerSweepPoint{
		Multiplier: mult,
		C1:         pcfg.C1, C2: pcfg.C2,
		D1: pcfg.D1, D2: pcfg.D2,
	}
	for _, m := range s.members {
		st := &agents[m].Stats
		pt.NACKs += st.NACKsSent
		pt.Repairs += st.RepairsSent + st.RepairsInjected
		pt.DupShares += st.DupShares
	}
	if recoveries > 0 {
		pt.MeanRecovery = recoverySum / float64(recoveries)
	}
	pt.Completion = float64(completions) / float64(len(s.spec.Receivers)*pcfg.NumGroups())
	return pt, nil
}
