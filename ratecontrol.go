package sharqfec

import (
	"fmt"
	"math"

	"sharqfec/internal/analysis"
	"sharqfec/internal/core"
	"sharqfec/internal/ratecontrol"
	"sharqfec/internal/telemetry/spans"
)

// RateControlMode selects how preemptive FEC injection is sized.
type RateControlMode string

const (
	// RateControlStatic is the paper's static EWMA policy, core's
	// built-in controller. It is also what the empty mode and a nil
	// *RateControlConfig mean: the same decisions by construction, which
	// the fixed-seed digest tests pin.
	RateControlStatic RateControlMode = "static"
	// RateControlAdaptive attaches the burst-aware optimizer
	// (internal/ratecontrol): per-zone redundancy sized by expected
	// recovery cost under a fitted Gilbert–Elliott loss model, subject
	// to a per-group repair budget.
	RateControlAdaptive RateControlMode = "adaptive"
)

// ParseRateControlMode resolves a -ratecontrol flag value.
func ParseRateControlMode(s string) (RateControlMode, error) {
	switch RateControlMode(s) {
	case RateControlStatic, RateControlAdaptive:
		return RateControlMode(s), nil
	}
	return "", fmt.Errorf("sharqfec: unknown rate-control mode %q (static|adaptive)", s)
}

// RateControlConfig selects and tunes the rate-control policy for a
// data run. The zero value (and a nil *RateControlConfig) means static.
type RateControlConfig struct {
	Mode RateControlMode
	// Budget caps adaptive injection per group as a fraction of the
	// group size (default 0.5). Ignored by static.
	Budget float64
}

// validate rejects non-finite or out-of-range tuning values before a
// run starts. The defaulting in budget() treats Budget <= 0 as "use
// the default", and NaN fails that comparison too — so without this
// check a NaN budget would flow into the controller as a real bound.
// Comparisons are written so NaN fails them.
func (c *RateControlConfig) validate() error {
	if c == nil {
		return nil
	}
	switch c.Mode {
	case "", RateControlStatic, RateControlAdaptive:
	default:
		return fmt.Errorf("sharqfec: unknown rate-control mode %q (static|adaptive)", c.Mode)
	}
	if c.Budget != 0 && !(isFinite64(c.Budget) && c.Budget > 0 && c.Budget <= 1) {
		return fmt.Errorf("sharqfec: rate-control budget %g must be a finite fraction in (0,1]", c.Budget)
	}
	return nil
}

// isFinite64 reports whether f is neither NaN nor ±Inf.
func isFinite64(f float64) bool {
	return f == f && f <= math.MaxFloat64 && f >= -math.MaxFloat64
}

// budget returns the configured budget with the package default
// applied, for reports.
func (c *RateControlConfig) budget() float64 {
	if c == nil || c.Budget <= 0 {
		return ratecontrol.DefaultBudget
	}
	return c.Budget
}

// factory maps the config to a core controller constructor; nil — for
// static, however spelled — keeps core's built-in static EWMA
// controller.
func (c *RateControlConfig) factory() func() core.Controller {
	if c == nil || c.Mode != RateControlAdaptive {
		return nil
	}
	rcfg := ratecontrol.Config{Budget: c.Budget}
	return func() core.Controller { return ratecontrol.New(rcfg) }
}

// ControllerComparisonConfig parameterizes RunControllerComparison.
type ControllerComparisonConfig struct {
	// Base is the experiment both policies run under — topology, seed,
	// fault plan, durations. Its RateControl and Telemetry fields are
	// overridden per policy run (span tracing is forced on; an Events
	// writer, if set, is dropped to keep the two runs independent).
	Base DataConfig
	// Budget configures the adaptive policy (default 0.5).
	Budget float64
	// Seeds, when non-empty, runs each policy once per seed (overriding
	// Base.Seed) and pools the spans and repair totals into one outcome
	// per policy. Single runs are noisy — the per-link burst chains
	// advance once per crossing packet, so any policy-induced traffic
	// difference diverges the whole loss realization — and the ensemble
	// averages that divergence out.
	Seeds []uint64
}

// RunControllerComparison runs the same experiment(s) twice — once
// under the static policy, once under the adaptive policy — and
// compares span recovery latency against repair overhead. The static
// runs are byte-identical to uncontrolled runs at the same seeds, so
// the comparison isolates the policy change.
func RunControllerComparison(cfg ControllerComparisonConfig) (*analysis.ControllerReport, error) {
	if err := (&RateControlConfig{Mode: RateControlAdaptive, Budget: cfg.Budget}).validate(); err != nil {
		return nil, err
	}
	defaulted := cfg.Base
	defaulted.applyDefaults()
	groupK := defaulted.GroupK
	if groupK == 0 {
		groupK = core.DefaultConfig().GroupK
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{cfg.Base.Seed}
	}
	run := func(mode RateControlMode) (analysis.PolicyOutcome, error) {
		var (
			pool                 []spans.Span
			sent, injected, maxH int64
		)
		for _, seed := range seeds {
			res, err := runPolicy(cfg, mode, seed)
			if err != nil {
				return analysis.PolicyOutcome{}, err
			}
			pool = append(pool, res.Telemetry.Spans()...)
			sent += int64(res.RepairsSent)
			injected += int64(res.RepairsInjected)
			if h := res.Telemetry.ControllerMaxH; h > maxH {
				maxH = h
			}
		}
		return analysis.SummarizePolicy(string(mode), pool, sent, injected, len(seeds)*defaulted.NumPackets, maxH), nil
	}
	static, err := run(RateControlStatic)
	if err != nil {
		return nil, err
	}
	adaptive, err := run(RateControlAdaptive)
	if err != nil {
		return nil, err
	}
	rc := &RateControlConfig{Mode: RateControlAdaptive, Budget: cfg.Budget}
	return &analysis.ControllerReport{
		Static:   static,
		Adaptive: adaptive,
		Budget:   rc.budget(),
		GroupK:   groupK,
	}, nil
}

// runPolicy executes cfg.Base under one rate-control mode at one seed
// with span tracing forced on.
func runPolicy(cfg ControllerComparisonConfig, mode RateControlMode, seed uint64) (*DataResult, error) {
	base := cfg.Base
	base.Seed = seed
	base.RateControl = &RateControlConfig{Mode: mode, Budget: cfg.Budget}
	tcfg := TelemetryConfig{Spans: true}
	if base.Telemetry != nil {
		tcfg = *base.Telemetry
		tcfg.Spans = true
		tcfg.Events = nil
	}
	base.Telemetry = &tcfg
	return RunData(base)
}
