package ratecontrol

import (
	"math"

	"sharqfec/internal/core"
	"sharqfec/internal/scoping"
)

// maxLossProb caps the per-packet loss probability the optimizer
// models: beyond it the DP saturates (every affordable h fails) and
// the clamp keeps the Gilbert calibration pGB = p·pBG/(1-p) finite.
const maxLossProb = 0.95

// DefaultBudget is the Budget the zero Config picks: at most half a
// group of extra repairs.
const DefaultBudget = 0.5

const (
	// injectCost is the cost of one preemptive repair share, the unit
	// the ARQ penalty is measured against.
	injectCost = 1
	// minObservations is how many packets the loss estimator must see
	// before its burst model is trusted; below it the controller
	// assumes independent losses at the predicted mean.
	minObservations = 64
)

// Config tunes the adaptive controller. The zero value picks the
// documented defaults.
type Config struct {
	// Budget caps injected redundancy per group as a fraction of the
	// group size k: a decision never owes more than ceil(Budget·k)
	// shares. Default DefaultBudget.
	Budget float64
	// ArqPenalty is the relative cost of one loss left uncovered by
	// preemptive redundancy (it must be repaired through a NACK round:
	// a request timer plus a full RTT, hundreds of milliseconds on the
	// Figure-10 topology) versus sending one more preemptive repair
	// share (~5 ms of pacing plus its bandwidth). Default 12, the knee
	// of the latency/overhead curve on the Figure-10 burst-loss
	// ensemble (see EXPERIMENTS.md E18); raising it buys lower tail
	// latency with more repair traffic, up to the Budget cap.
	ArqPenalty float64
	// Window is the estimator's sliding observation window in packets
	// (0 = never forget). Default 4096.
	Window int
}

func (cfg Config) withDefaults() Config {
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.ArqPenalty <= 0 {
		cfg.ArqPenalty = 12
	}
	if cfg.Window == 0 {
		cfg.Window = 4096
	}
	return cfg
}

// Controller is the adaptive policy: it keeps the static policy's
// per-zone EWMA loss-magnitude predictor, fits a Gilbert–Elliott burst
// model to the agent's own reception sequence, and sizes each group's
// redundancy h by minimizing the expected recovery cost
//
//	cost(h) = E[max(L(k+h) − h, 0)]·ArqPenalty + h·injectCost
//
// over h in [0, ceil(Budget·k)], where L(n) is the loss count among n
// transmissions of the fitted chain. The first term is the expected
// number of shares the group will still be short — each one costs a
// NACK round trip — so partial coverage of a long burst still pays,
// and the optimizer buys shares until the marginal share no longer
// removes ArqPenalty-weighted expected shortfall. The distribution of
// L is computed exactly by dynamic programming from the chain's
// stationary state, so burstiness (not just the mean) shapes the
// decision: at equal mean loss, longer bursts fatten the loss-count
// tail and buy more protection.
//
// Decide is allocation-free in steady state: the DP scratch buffers
// are preallocated and reused.
type Controller struct {
	cfg  Config
	est  *Estimator
	pred map[scoping.ZoneID]float64

	// DP scratch: probability of (state, losses-so-far) by loss count,
	// double-buffered.
	pg, pb, qg, qb []float64
}

// New returns an adaptive controller. Each agent needs its own (the
// estimator follows that agent's reception sequence).
func New(cfg Config) *Controller {
	return &Controller{
		cfg:  cfg.withDefaults(),
		est:  NewEstimator(cfg.withDefaults().Window),
		pred: make(map[scoping.ZoneID]float64),
	}
}

// Estimator exposes the controller's loss-model fit (for reports and
// tests).
func (c *Controller) Estimator() *Estimator { return c.est }

// ObservePacket implements core.Controller: the agent's reception
// sequence feeds the burst-model fit.
func (c *Controller) ObservePacket(lost bool) { c.est.Observe(lost) }

// ObserveZLC implements core.Controller with the paper's EWMA filter and
// core's weights — magnitude tracking is identical to the static policy
// by design, so the two policies differ only in how they turn the
// prediction into redundancy.
func (c *Controller) ObserveZLC(z scoping.ZoneID, sample float64) {
	c.pred[z] = core.EWMAOld*c.pred[z] + core.EWMANew*sample
}

// Predict implements core.Controller.
func (c *Controller) Predict(z scoping.ZoneID) float64 { return c.pred[z] }

// MaxH returns the redundancy cap the budget allows for group size k.
func (c *Controller) MaxH(k int) int {
	return int(math.Ceil(c.cfg.Budget * float64(k)))
}

// Decide implements core.Controller.
func (c *Controller) Decide(z scoping.ZoneID, k, repairsHeard int) core.Decision {
	pred := c.pred[z]
	h := c.optimalH(pred, k)
	return core.Decision{K: k, H: h - repairsHeard, Pred: pred}
}

// optimalH minimizes cost(h) over the budgeted range for a zone whose
// predicted per-group loss count is pred.
func (c *Controller) optimalH(pred float64, k int) int {
	if pred <= 0 || k <= 0 {
		return 0
	}
	p := pred / float64(k)
	if p > maxLossProb {
		p = maxLossProb
	}
	// Fit the chain: burst length from the estimator once it has seen
	// enough traffic, independent losses otherwise. The mean is always
	// the zone predictor's — the estimator watches this agent's inbound
	// link mix, but injection must cover the whole zone's loss (the
	// ZLC), so only the correlation structure is taken from it.
	pBG := 1 - p // i.i.d.: mean burst 1/(1-p)
	if c.est.Observations() >= minObservations {
		if b := c.est.MeanBurstLen(); b > 1 {
			pBG = 1 / b
		}
	}
	pGB := p * pBG / (1 - p)
	if pGB > 1 {
		pGB = 1
	}

	hMax := c.MaxH(k)
	n := k + hMax
	c.ensureScratch(n + 2)
	pg, pb := c.pg[:n+2], c.pb[:n+2]
	qg, qb := c.qg[:n+2], c.qb[:n+2]
	for i := range pg {
		pg[i], pb[i] = 0, 0
	}
	// Start from the stationary distribution of the fitted chain.
	stat := pGB / (pGB + pBG)
	pg[0], pb[0] = 1-stat, stat

	// advance one transmission: a packet is lost iff the chain is in
	// the Bad state (classic Gilbert), then the state steps.
	advance := func(steps int) {
		for i := 0; i <= steps+1; i++ {
			qg[i], qb[i] = 0, 0
		}
		for l := 0; l <= steps; l++ {
			if g := pg[l]; g > 0 {
				qg[l] += g * (1 - pGB)
				qb[l] += g * pGB
			}
			if b := pb[l]; b > 0 {
				qg[l+1] += b * pBG
				qb[l+1] += b * (1 - pBG)
			}
		}
		copy(pg[:steps+2], qg[:steps+2])
		copy(pb[:steps+2], qb[:steps+2])
	}

	steps := 0
	for ; steps < k; steps++ {
		advance(steps)
	}
	bestH, bestCost := 0, math.Inf(1)
	for h := 0; h <= hMax; h++ {
		if h > 0 {
			// Repairs ride the same lossy links: extend the chain by
			// one transmission per extra share.
			advance(steps)
			steps++
		}
		// Expected shortfall: losses beyond the h shares in hand each
		// need an ARQ round. Max losses after k+h steps is k+h.
		short := 0.0
		for l := h + 1; l <= steps; l++ {
			short += float64(l-h) * (pg[l] + pb[l])
		}
		cost := short*c.cfg.ArqPenalty + float64(h)*injectCost
		if cost < bestCost {
			bestCost, bestH = cost, h
		}
	}
	return bestH
}

func (c *Controller) ensureScratch(n int) {
	if cap(c.pg) >= n {
		return
	}
	c.pg = make([]float64, n)
	c.pb = make([]float64, n)
	c.qg = make([]float64, n)
	c.qb = make([]float64, n)
}
