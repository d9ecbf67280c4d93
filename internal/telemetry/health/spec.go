package health

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Metric names one health signal the engine can watch.
type Metric uint8

const (
	// MetricRecoveryLatency: seconds from the first loss_detected of a
	// (receiver, group) to its group_decoded; a loss_unrecovered
	// terminal observes into the overflow bucket ("worse than every
	// bound"), so a zone where nothing recovers still breaches.
	// Quantile metric, objective is an upper bound.
	MetricRecoveryLatency Metric = iota
	// MetricSuppressionRatio: suppressed/(suppressed+sent) NACKs,
	// windowed, attributed to the observing node's leaf zone. Ratio
	// metric, objective is a lower bound.
	MetricSuppressionRatio
	// MetricRepairLocality: fraction of repair deliveries under a
	// non-root scope, windowed, attributed to the receiving node's leaf
	// zone. Ratio metric, objective is a lower bound.
	MetricRepairLocality
	// MetricBudgetBurn: per controller decision, owed repair shares
	// over group size (h/k, clamped at 0), attributed to the decision's
	// target zone. Quantile metric, objective is an upper bound.
	MetricBudgetBurn

	numMetrics
)

var metricNames = [numMetrics]string{
	MetricRecoveryLatency:  "recovery_latency",
	MetricSuppressionRatio: "suppression_ratio",
	MetricRepairLocality:   "repair_locality",
	MetricBudgetBurn:       "budget_burn",
}

func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return fmt.Sprintf("metric(%d)", int(m))
}

// quantile reports whether the metric is summarized by a windowed
// quantile sketch (upper-bound objective) rather than a windowed ratio
// (lower-bound objective).
func (m Metric) quantile() bool {
	return m == MetricRecoveryLatency || m == MetricBudgetBurn
}

// Objective is one SLO line: a metric, the value it must stay on the
// healthy side of, and the multi-window burn-rate configuration. An
// objective is in violation only while BOTH the long window and the
// fast window breach — the SRE-style multi-window rule: the long window
// keeps one bad sample from paging, the fast window clears quickly once
// the signal recovers.
type Objective struct {
	Metric Metric
	// Quantile (0 < q ≤ 1) selects the sketch quantile for quantile
	// metrics; ignored for ratio metrics.
	Quantile float64
	// Value is the objective: quantile metrics must stay ≤ Value, ratio
	// metrics ≥ Value.
	Value float64
	// Window / Fast are the long and fast evaluation windows (seconds).
	Window, Fast float64
	// MinSamples is the long-window sample floor below which the
	// objective is never judged (insufficient evidence ≠ violation).
	MinSamples int64
}

// String renders the objective in canonical spec-line form.
func (o Objective) String() string {
	s := o.Metric.String()
	if o.Metric.quantile() {
		s += fmt.Sprintf(" p%g", o.Quantile*100)
	}
	op := ">="
	if o.Metric.quantile() {
		op = "<="
	}
	s += fmt.Sprintf(" %s %g window=%g fast=%g min=%d", op, o.Value, o.Window, o.Fast, o.MinSamples)
	return s
}

// breaching applies the multi-window rule to one measurement pair.
func (o Objective) breaching(long float64, nLong int64, fast float64, nFast int64) bool {
	if nLong < o.MinSamples || nFast < 1 {
		return false
	}
	if o.Metric.quantile() {
		return long > o.Value && fast > o.Value
	}
	return long < o.Value && fast < o.Value
}

// MinInterval is the shortest evaluation tick a spec may set, in
// seconds. The engine evaluates every objective in every zone once per
// tick, so a busy run costs time in proportion to 1/Interval; without a
// floor, "interval 1e-9" would make one simulated second take 10⁹ ticks.
// The specs in this repository use 0.5 s and the default 1 s. It is also
// the shortest window: a window's epochs are window/8 long, and far
// shorter ones overflow the int64 epoch index of a run's timestamps.
const MinInterval = 1e-3

// Spec is a declarative SLO: the objectives to evaluate and the
// evaluation tick. The zero Interval means 1 s; any other must be finite
// and at least MinInterval.
type Spec struct {
	Objectives []Objective
	Interval   float64
}

// String renders the objectives in canonical spec-line form, one per
// line — parseable back by ParseSpec.
func (s *Spec) String() string {
	var b strings.Builder
	if s.Interval > 0 {
		fmt.Fprintf(&b, "interval %g\n", s.Interval)
	}
	for _, o := range s.Objectives {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks a programmatically constructed spec the way
// ParseSpec checks the text form: finite bounds everywhere (NaN slips
// past ordinary comparisons, so each check is written to fail on it),
// an interval of zero or at least MinInterval, quantiles in (0,1], ratio
// objectives in [0,1], windows of at least MinInterval (a zero fast
// window is allowed) with fast ≤ long, and at least one objective.
// Specs from ParseSpec always pass.
func (s *Spec) Validate() error {
	if len(s.Objectives) == 0 {
		return fmt.Errorf("health: spec declares no objectives")
	}
	if s.Interval != 0 && !(isFinite(s.Interval) && s.Interval >= MinInterval) {
		return fmt.Errorf("health: interval %g must be finite and >= %g", s.Interval, MinInterval)
	}
	for i, o := range s.Objectives {
		if int(o.Metric) >= int(numMetrics) {
			return fmt.Errorf("health: objective %d: unknown metric %d", i, int(o.Metric))
		}
		if o.Metric.quantile() && !(isFinite(o.Quantile) && o.Quantile > 0 && o.Quantile <= 1) {
			return fmt.Errorf("health: objective %d (%s): quantile %g outside (0,1]", i, o.Metric, o.Quantile)
		}
		if !(isFinite(o.Value) && o.Value >= 0) {
			return fmt.Errorf("health: objective %d (%s): value %g must be finite and >= 0", i, o.Metric, o.Value)
		}
		if !o.Metric.quantile() && o.Value > 1 {
			return fmt.Errorf("health: objective %d (%s): %s is a fraction, objective %g > 1", i, o.Metric, o.Metric, o.Value)
		}
		if !(isFinite(o.Window) && o.Window >= MinInterval) {
			return fmt.Errorf("health: objective %d (%s): window %g must be finite and >= %g", i, o.Metric, o.Window, MinInterval)
		}
		if o.Fast != 0 && !(isFinite(o.Fast) && o.Fast >= MinInterval) {
			return fmt.Errorf("health: objective %d (%s): fast window %g must be finite and >= %g", i, o.Metric, o.Fast, MinInterval)
		}
		if o.Fast > o.Window {
			return fmt.Errorf("health: objective %d (%s): fast window %g exceeds long window %g", i, o.Metric, o.Fast, o.Window)
		}
		if o.MinSamples < 0 {
			return fmt.Errorf("health: objective %d (%s): negative min samples %d", i, o.Metric, o.MinSamples)
		}
	}
	return nil
}

// interval returns the effective evaluation tick.
func (s *Spec) interval() float64 {
	if s.Interval > 0 {
		return s.Interval
	}
	return 1
}

// ParseSpec reads the SLO spec format: one objective per line,
//
//	<metric> [pNN] <=|>= <value> [window=W] [fast=F] [min=N]
//
// plus an optional "interval <seconds>" directive (at least MinInterval)
// and '#' comments.
// Metrics: recovery_latency, budget_burn (quantile, "<="),
// suppression_ratio, repair_locality (ratio, ">="). Defaults:
// window=10, fast=window/4 (but not below MinInterval), min=1, p95 for
// quantile metrics. Windows, like the interval, are at least MinInterval.
func ParseSpec(r io.Reader) (*Spec, error) {
	spec := &Spec{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "interval" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("slo line %d: interval takes one value", lineNo)
			}
			iv, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || !isFinite(iv) || iv < MinInterval {
				return nil, fmt.Errorf("slo line %d: bad interval %q (want a finite number of seconds >= %g)", lineNo, fields[1], MinInterval)
			}
			spec.Interval = iv
			continue
		}
		o, err := parseObjective(fields)
		if err != nil {
			return nil, fmt.Errorf("slo line %d: %w", lineNo, err)
		}
		spec.Objectives = append(spec.Objectives, o)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(spec.Objectives) == 0 {
		return nil, fmt.Errorf("slo spec declares no objectives")
	}
	return spec, nil
}

func parseObjective(fields []string) (Objective, error) {
	var o Objective
	m, ok := metricByName(fields[0])
	if !ok {
		return o, fmt.Errorf("unknown metric %q", fields[0])
	}
	o.Metric = m
	o.Quantile = 0.95
	o.Window = 10
	o.MinSamples = 1
	rest := fields[1:]
	if m.quantile() && len(rest) > 0 && strings.HasPrefix(rest[0], "p") {
		pct, err := strconv.ParseFloat(rest[0][1:], 64)
		// pct/100 > 0 refuses a tiny percentage whose quantile underflows.
		if err != nil || !(pct/100 > 0 && pct <= 100) {
			return o, fmt.Errorf("bad quantile %q (want p50..p100)", rest[0])
		}
		o.Quantile = pct / 100
		rest = rest[1:]
	}
	if len(rest) < 2 {
		return o, fmt.Errorf("missing <op> <value>")
	}
	wantOp := ">="
	if m.quantile() {
		wantOp = "<="
	}
	if rest[0] != wantOp {
		return o, fmt.Errorf("%s takes %q objectives, got %q", m, wantOp, rest[0])
	}
	v, err := strconv.ParseFloat(rest[1], 64)
	if err != nil || !isFinite(v) || v < 0 {
		return o, fmt.Errorf("bad objective value %q", rest[1])
	}
	if !m.quantile() && v > 1 {
		return o, fmt.Errorf("%s is a fraction, objective %g > 1", m, v)
	}
	o.Value = v
	fastSet := false
	for _, f := range rest[2:] {
		k, val, ok := strings.Cut(f, "=")
		if !ok {
			return o, fmt.Errorf("bad attribute %q (want key=value)", f)
		}
		switch k {
		case "window", "fast":
			w, err := strconv.ParseFloat(val, 64)
			if err != nil || !isFinite(w) || w < MinInterval {
				return o, fmt.Errorf("bad %s %q (want a finite number of seconds >= %g)", k, val, MinInterval)
			}
			if k == "window" {
				o.Window = w
			} else {
				o.Fast = w
				fastSet = true
			}
		case "min":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return o, fmt.Errorf("bad min %q", val)
			}
			o.MinSamples = n
		default:
			return o, fmt.Errorf("unknown attribute %q", k)
		}
	}
	if !fastSet {
		o.Fast = max(o.Window/4, MinInterval)
	}
	if o.Fast > o.Window {
		return o, fmt.Errorf("fast window %g exceeds long window %g", o.Fast, o.Window)
	}
	return o, nil
}

func metricByName(name string) (Metric, bool) {
	for m, n := range metricNames {
		if n == name {
			return Metric(m), true
		}
	}
	return 0, false
}
