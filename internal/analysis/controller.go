package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sharqfec/internal/telemetry/spans"
)

// PolicyOutcome summarizes one rate-control policy's run: session-wide
// recovery-latency percentiles over its recovery spans plus the repair
// spending that bought them.
type PolicyOutcome struct {
	// Policy names the controller ("static" or "adaptive").
	Policy string

	// Spans / Recovered / Unrecovered count the run's recovery spans.
	Spans       int
	Recovered   int
	Unrecovered int

	// P50/P95/P99/Mean are nearest-rank percentiles and mean of
	// end-to-end recovery latency (seconds) over ALL spans. An
	// unrecovered span enters at its censored latency — loss detection
	// to the session-end unrecovered declaration — so a policy cannot
	// improve its percentiles by abandoning hard losses (the censored
	// value is a lower bound on the true recovery latency).
	P50, P95, P99, Mean float64

	// RepairsSent counts every repair transmission; RepairsInjected the
	// preemptively injected subset. NumPackets is the original stream
	// length, the denominator of the overhead ratios.
	RepairsSent     int64
	RepairsInjected int64
	NumPackets      int

	// MaxH is the largest per-group injection any controller decision
	// owed — the witness against the per-group budget cap.
	MaxH int64
}

// RepairOverhead returns repairs sent per original packet.
func (o PolicyOutcome) RepairOverhead() float64 {
	if o.NumPackets == 0 {
		return 0
	}
	return float64(o.RepairsSent) / float64(o.NumPackets)
}

// InjectedOverhead returns preemptively injected repairs per original
// packet.
func (o PolicyOutcome) InjectedOverhead() float64 {
	if o.NumPackets == 0 {
		return 0
	}
	return float64(o.RepairsInjected) / float64(o.NumPackets)
}

// SummarizePolicy builds a PolicyOutcome from a run's recovery spans
// and repair totals. Latency percentiles are session-wide (across all
// zones), nearest-rank like the per-zone RecoveryReport rows, with
// unrecovered spans included at their censored latencies.
func SummarizePolicy(policy string, sps []spans.Span, repairsSent, repairsInjected int64,
	numPackets int, maxH int64) PolicyOutcome {

	o := PolicyOutcome{
		Policy:          policy,
		Spans:           len(sps),
		RepairsSent:     repairsSent,
		RepairsInjected: repairsInjected,
		NumPackets:      numPackets,
		MaxH:            maxH,
	}
	lats := make([]float64, 0, len(sps))
	for i := range sps {
		if sps[i].Recovered {
			o.Recovered++
		} else {
			o.Unrecovered++
		}
		lats = append(lats, sps[i].Latency())
	}
	if len(lats) == 0 {
		return o
	}
	sort.Float64s(lats)
	sum := 0.0
	for _, l := range lats {
		sum += l
	}
	o.Mean = sum / float64(len(lats))
	o.P50 = percentile(lats, 0.50)
	o.P95 = percentile(lats, 0.95)
	o.P99 = percentile(lats, 0.99)
	return o
}

// ControllerReport compares the static and adaptive rate-control
// policies on identically-seeded runs: recovery-latency percentiles
// versus repair overhead, with the budget-compliance witness the
// acceptance criterion needs (adaptive must improve tail latency
// without exceeding the configured repair-overhead budget).
type ControllerReport struct {
	Static   PolicyOutcome
	Adaptive PolicyOutcome

	// Budget is the adaptive policy's per-group redundancy cap as a
	// fraction of the group size GroupK.
	Budget float64
	GroupK int
}

// BudgetH returns the per-group injection cap, ceil(Budget·GroupK).
func (r *ControllerReport) BudgetH() int64 {
	return int64(math.Ceil(r.Budget * float64(r.GroupK)))
}

// WithinBudget reports whether every adaptive decision respected the
// per-group cap.
func (r *ControllerReport) WithinBudget() bool {
	return r.Adaptive.MaxH <= r.BudgetH()
}

// P95Improvement returns the relative p95 recovery-latency improvement
// of adaptive over static (positive = adaptive faster).
func (r *ControllerReport) P95Improvement() float64 {
	if r.Static.P95 == 0 {
		return 0
	}
	return (r.Static.P95 - r.Adaptive.P95) / r.Static.P95
}

// OverheadDelta returns the repair-overhead difference, adaptive minus
// static, in repairs per original packet.
func (r *ControllerReport) OverheadDelta() float64 {
	return r.Adaptive.RepairOverhead() - r.Static.RepairOverhead()
}

// String renders the comparison as a fixed-width table plus the
// verdict lines, deterministically for a given pair of outcomes.
func (r *ControllerReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rate-control comparison (budget %.3g => h <= %d per group of %d):\n",
		r.Budget, r.BudgetH(), r.GroupK)
	fmt.Fprintf(&b, "  %-9s %7s %7s %9s %9s %9s %9s %9s %6s\n",
		"policy", "spans", "unrec", "p50(s)", "p95(s)", "p99(s)", "mean(s)", "rep/pkt", "maxh")
	for _, o := range []PolicyOutcome{r.Static, r.Adaptive} {
		fmt.Fprintf(&b, "  %-9s %7d %7d %9.4f %9.4f %9.4f %9.4f %9.4f %6d\n",
			o.Policy, o.Spans, o.Unrecovered, o.P50, o.P95, o.P99, o.Mean,
			o.RepairOverhead(), o.MaxH)
	}
	fmt.Fprintf(&b, "  p95 improvement:  %+.1f%%\n", 100*r.P95Improvement())
	fmt.Fprintf(&b, "  overhead delta:   %+.4f repairs/pkt (injected %.4f -> %.4f)\n",
		r.OverheadDelta(), r.Static.InjectedOverhead(), r.Adaptive.InjectedOverhead())
	fmt.Fprintf(&b, "  within budget:    %v\n", r.WithinBudget())
	return b.String()
}
