package faults

import (
	"fmt"
	"math"

	"sharqfec/internal/simrand"
)

// GilbertElliott is a two-state Markov burst-loss process implementing
// netsim.LossModel. The chain advances one step per loss-eligible packet
// crossing the link direction: in the Good state packets drop with
// probability LossGood, in the Bad state with LossBad, and the state
// transitions afterwards with probabilities PGoodBad / PBadGood. With
// LossGood = 0 and LossBad = 1 this is the classic Gilbert model: loss
// arrives in bursts of mean length 1/PBadGood, with stationary mean loss
// PGoodBad/(PGoodBad+PBadGood) — directly comparable to a Bernoulli link
// at the same mean, which is exactly what i.i.d.-loss analyses of hybrid
// ARQ/FEC assume away.
type GilbertElliott struct {
	rng                *simrand.Rand
	pGoodBad, pBadGood float64
	lossGood, lossBad  float64
	bad                bool
}

// NewBurst builds the classic Gilbert model (LossGood 0, LossBad 1)
// calibrated to a stationary mean loss rate and a mean burst length in
// packets: PBadGood = 1/burstLen and PGoodBad solves the stationary
// equation meanLoss = PGoodBad/(PGoodBad+PBadGood). It refuses what
// burstError refuses.
func NewBurst(rng *simrand.Rand, meanLoss, burstLen float64) (*GilbertElliott, error) {
	if err := burstError(meanLoss, burstLen); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	pBG := 1 / burstLen
	pGB := meanLoss * pBG / (1 - meanLoss)
	return &GilbertElliott{rng: rng, pGoodBad: pGB, pBadGood: pBG, lossBad: 1}, nil
}

// burstError reports why no classic Gilbert chain has this stationary
// mean loss and mean burst length, or nil when one does. PGoodBad =
// meanLoss/((1−meanLoss)·burstLen) is a probability only while
// meanLoss ≤ burstLen/(1+burstLen); above that the chain would lose
// less than asked.
func burstError(meanLoss, burstLen float64) error {
	// Written so NaN fails every comparison.
	if !(meanLoss >= 0 && meanLoss < 1) {
		return fmt.Errorf("mean loss %g outside [0,1)", meanLoss)
	}
	if !(burstLen >= 1) || math.IsInf(burstLen, 0) {
		return fmt.Errorf("burst length %g must be finite and >= 1", burstLen)
	}
	if most := burstLen / (1 + burstLen); meanLoss > most {
		return fmt.Errorf("mean loss %g above %g, the most a mean burst length of %g can give", meanLoss, most, burstLen)
	}
	return nil
}

// Params returns the chain's transition and per-state loss
// probabilities — the ground truth an online estimator (see
// internal/ratecontrol) should converge to.
func (g *GilbertElliott) Params() (pGoodBad, pBadGood, lossGood, lossBad float64) {
	return g.pGoodBad, g.pBadGood, g.lossGood, g.lossBad
}

// StationaryLoss returns the chain's stationary mean drop rate:
// the state-occupancy-weighted mix of the per-state loss probabilities.
func (g *GilbertElliott) StationaryLoss() float64 {
	if g.pGoodBad+g.pBadGood <= 0 {
		return g.lossGood
	}
	pBad := g.pGoodBad / (g.pGoodBad + g.pBadGood)
	return (1-pBad)*g.lossGood + pBad*g.lossBad
}

// MeanBurstLen returns the mean Bad-state sojourn in packets,
// 1/PBadGood (the mean loss-burst length for the classic model).
func (g *GilbertElliott) MeanBurstLen() float64 {
	if g.pBadGood <= 0 {
		return 1
	}
	return 1 / g.pBadGood
}

// Drop implements netsim.LossModel: emit from the current state, then
// advance the chain.
func (g *GilbertElliott) Drop() bool {
	p := g.lossGood
	if g.bad {
		p = g.lossBad
	}
	drop := g.rng.Bernoulli(p)
	if g.bad {
		if g.rng.Bernoulli(g.pBadGood) {
			g.bad = false
		}
	} else if g.rng.Bernoulli(g.pGoodBad) {
		g.bad = true
	}
	return drop
}
