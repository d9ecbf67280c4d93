package sharqfec

import (
	"fmt"

	"sharqfec/internal/core"
)

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
// and returned in multiplier order regardless of scheduling. A
// multiplier that is not finite and > 0 is refused before any point
// runs: NaN panics the event queue, 0 or less zeroes every timer and
// never returns, and +Inf silently disables recovery.
func RunTimerSweep(seed uint64, multipliers []float64) ([]TimerSweepPoint, error) {
	if len(multipliers) == 0 {
		multipliers = []float64{0.5, 1, 2, 4}
	}
	for i, m := range multipliers {
		if !(isFinite64(m) && m > 0) {
			return nil, fmt.Errorf("sharqfec: timer multiplier [%d] = %v; want finite and > 0", i, m)
		}
	}
	out := make([]TimerSweepPoint, len(multipliers))
	err := runIndexed(len(multipliers), func(i int) (err error) {
		out[i], err = runTimerPoint(seed, multipliers[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func runTimerPoint(seed uint64, mult float64) (TimerSweepPoint, error) {
	cfg := DataConfig{Protocol: SHARQFEC, Seed: seed, NumPackets: 256, SourceOnAt: 6, Until: 60}
	res, r, err := runData(cfg, func(r *dataRun) {
		r.pcfg.C1 *= mult
		r.pcfg.C2 *= mult
		r.pcfg.D1 *= mult
		r.pcfg.D2 *= mult
	})
	if err != nil {
		return TimerSweepPoint{}, err
	}
	pcfg := &r.pcfg
	pt := TimerSweepPoint{
		Multiplier: mult,
		C1:         pcfg.C1, C2: pcfg.C2,
		D1: pcfg.D1, D2: pcfg.D2,
		NACKs:      res.NACKsSent,
		Repairs:    res.RepairsSent + res.RepairsInjected,
		Completion: res.CompletionRate,
	}
	for _, ag := range r.spawned {
		pt.DupShares += ag.(*core.Agent).Stats.DupShares
	}
	// A group's transmission window ends with its last original packet.
	var recoverySum float64
	var recoveries int
	for _, m := range r.spec.Receivers {
		for gid, t := range r.doneOf(m) {
			groupEnd := cfg.SourceOnAt + float64((gid+1)*pcfg.GroupK)*pcfg.InterPacket()
			if delay := t.Seconds() - groupEnd; t > 0 && delay > 0 {
				recoverySum += delay
				recoveries++
			}
		}
	}
	if recoveries > 0 {
		pt.MeanRecovery = recoverySum / float64(recoveries)
	}
	return pt, nil
}
