package core

import (
	"sharqfec/internal/scoping"
)

// This file defines the rate-control seam: the Controller interface an
// agent consults to size preemptive FEC, and the static policy — the
// paper's EWMA predicted-ZLC filter — implemented behind it. The
// refactor is behavior-preserving: with the static controller (the
// default when Config.NewController is nil) every decision reproduces
// the pre-refactor arithmetic bit for bit, which the fixed-seed digest
// tests pin.

// Decision is one rate-control output: how many repair shares to owe a
// zone for one FEC group.
type Decision struct {
	// K is the group size the decision covers.
	K int
	// H is the number of repair shares to inject now, net of redundancy
	// already heard. H <= 0 means nothing is owed.
	H int
	// Pred is the predictor state behind the decision (the predicted
	// zone loss count), carried on telemetry events.
	Pred float64
}

// Controller sizes preemptive FEC injection per zone. One controller
// serves one agent; implementations need not be safe for concurrent
// use (the simulator is single-threaded per run).
//
// ObservePacket feeds the agent's own data-plane reception sequence —
// one call per original packet, in sequence order, lost = true when the
// packet was declared lost (gap, LDP expiry or high-water discovery)
// and false when it arrived. Burst-aware policies fit their loss model
// from this stream; the static policy ignores it.
//
// ObserveZLC absorbs one end-of-group zone loss count measurement (the
// §4 sample taken 2.5 RTTs after a group ends). Predict exposes the
// current predicted ZLC for a zone (0 before any sample), and Decide
// turns the prediction into a concrete injection size given the group
// size k and the repair shares already heard for the group.
type Controller interface {
	ObservePacket(lost bool)
	ObserveZLC(z scoping.ZoneID, sample float64)
	Predict(z scoping.ZoneID) float64
	Decide(z scoping.ZoneID, k, repairsHeard int) Decision
}

// staticController is the paper's §4 predictor: per-zone EWMA over ZLC
// samples, injection sized by rounding the prediction, net of repairs
// already heard. It consumes no randomness and ignores the packet
// stream, so attaching it (or swapping it for the pre-refactor inline
// code) cannot perturb a seeded run.
type staticController struct {
	pred map[scoping.ZoneID]float64 // nil until the first sample
}

func (c *staticController) ObservePacket(lost bool) {}

func (c *staticController) ObserveZLC(z scoping.ZoneID, sample float64) {
	if c.pred == nil {
		c.pred = make(map[scoping.ZoneID]float64)
	}
	c.pred[z] = EWMAOld*c.pred[z] + EWMANew*sample
}

func (c *staticController) Predict(z scoping.ZoneID) float64 { return c.pred[z] }

func (c *staticController) Decide(z scoping.ZoneID, k, repairsHeard int) Decision {
	p := c.pred[z]
	return Decision{K: k, H: int(p+0.5) - repairsHeard, Pred: p}
}
