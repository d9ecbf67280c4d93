package health

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

func TestWindowSketchQuantileInterpolation(t *testing.T) {
	s := NewWindowSketch([]float64{1, 2, 4}, 8)
	// 4 samples in the (1,2] bucket at t=1.
	for i := 0; i < 4; i++ {
		s.Observe(1, 1.5)
	}
	v, n := s.Summary(1, 0.5)
	if n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
	// rank 2 of 4, all in (1,2]: 1 + 1*(2/4) = 1.5
	if v != 1.5 {
		t.Fatalf("p50 = %g, want 1.5", v)
	}
	// p100 lands at the bucket's upper bound.
	if v, _ := s.Summary(1, 1); v != 2 {
		t.Fatalf("p100 = %g, want 2", v)
	}
}

func TestWindowSketchOverflowReportsHighestBound(t *testing.T) {
	s := NewWindowSketch([]float64{1, 2, 4}, 8)
	s.Observe(1, math.Inf(1))
	s.Observe(1, 100)
	if v, n := s.Summary(1, 0.95); v != 4 || n != 2 {
		t.Fatalf("overflow summary = (%g, %d), want (4, 2)", v, n)
	}
}

func TestWindowSketchExpiry(t *testing.T) {
	s := NewWindowSketch([]float64{1}, 8) // epoch = 1s, 8 epochs
	s.Observe(0.5, 0.5)
	if _, n := s.Summary(7.9, 0.5); n != 1 {
		t.Fatalf("sample should still be in window at t=7.9, n=%d", n)
	}
	// At t=8 the epoch containing t=0.5 (epoch 0) is outside [1, 8].
	if _, n := s.Summary(8, 0.5); n != 0 {
		t.Fatalf("sample should have expired at t=8, n=%d", n)
	}
	// Ring reuse: a new sample 8 epochs later overwrites the stale slot.
	s.Observe(8.5, 0.5)
	if _, n := s.Summary(8.5, 0.5); n != 1 {
		t.Fatalf("ring slot not reused, n=%d", n)
	}
}

func TestWindowCounterExpiry(t *testing.T) {
	c := NewWindowCounter(8)
	c.Add(0.5, 3)
	c.Add(4, 2)
	if got := c.Sum(7.9); got != 5 {
		t.Fatalf("Sum(7.9) = %d, want 5", got)
	}
	if got := c.Sum(8); got != 2 {
		t.Fatalf("Sum(8) = %d, want 2 (first epoch expired)", got)
	}
	if got := c.Sum(50); got != 0 {
		t.Fatalf("Sum(50) = %d, want 0", got)
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`
# comment
interval 0.5
recovery_latency p99 <= 0.25 window=20 fast=5 min=10
suppression_ratio >= 0.7
budget_burn <= 0.5
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Interval != 0.5 || len(spec.Objectives) != 3 {
		t.Fatalf("parsed %+v", spec)
	}
	o := spec.Objectives[0]
	if o.Metric != MetricRecoveryLatency || o.Quantile != 0.99 || o.Value != 0.25 ||
		o.Window != 20 || o.Fast != 5 || o.MinSamples != 10 {
		t.Fatalf("objective 0 = %+v", o)
	}
	// Defaults: window 10, fast = window/4, min 1, p95.
	o = spec.Objectives[1]
	if o.Window != 10 || o.Fast != 2.5 || o.MinSamples != 1 {
		t.Fatalf("objective 1 defaults = %+v", o)
	}
	if spec.Objectives[2].Quantile != 0.95 {
		t.Fatalf("objective 2 quantile = %g", spec.Objectives[2].Quantile)
	}
	// Canonical String round-trips through the parser.
	spec2, err := ParseSpec(strings.NewReader(spec.String()))
	if err != nil {
		t.Fatalf("reparsing canonical form: %v", err)
	}
	if !reflect.DeepEqual(spec, spec2) {
		t.Fatalf("canonical round trip drifted:\n%+v\n%+v", spec, spec2)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",                                       // no objectives
		"bogus_metric <= 1",                      // unknown metric
		"recovery_latency >= 1",                  // wrong direction
		"suppression_ratio <= 0.5",               // wrong direction
		"suppression_ratio >= 1.5",               // ratio > 1
		"recovery_latency p0 <= 1",               // bad quantile
		"recovery_latency <= NaN",                // non-finite value
		"recovery_latency <= 1 window=-1",        // bad window
		"recovery_latency <= 1 fast=20",          // fast > window (default 10)
		"recovery_latency <= 1 bogus=1",          // unknown attribute
		"interval 0\nrecovery_latency <= 1",      // bad interval
		"interval\nrecovery_latency <= 1",        // malformed interval
		"interval 1e-9\nrecovery_latency <= 1",   // below MinInterval
		"interval 0.0009\nrecovery_latency <= 1", // below MinInterval
		"recovery_latency <= 1 min=0",            // bad min
		"recovery_latency p1e-322 <= 1",          // quantile underflows to 0
		"recovery_latency <= 1 window=1e-323",    // window below MinInterval
		"recovery_latency <= 1 fast=1e-4",        // fast window below MinInterval
	} {
		if _, err := ParseSpec(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestParseSpecFloors pins MinInterval: the floor itself is accepted for
// the interval and the windows, and a defaulted fast window (window/4)
// is raised to it rather than falling below it.
func TestParseSpecFloors(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader("interval 0.001\nrecovery_latency <= 1 window=0.002\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Interval != MinInterval || spec.Objectives[0].Fast != MinInterval {
		t.Fatalf("parsed %+v, want interval and fast window at MinInterval", spec)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec at the floors rejected: %v", err)
	}
}

// TestSpecValidate exercises the programmatic-construction path: specs
// built in code bypass ParseSpec, so Validate must apply the same
// bounds, including the NaN cases ordinary comparisons wave through.
func TestSpecValidate(t *testing.T) {
	good := func() *Spec {
		return &Spec{Objectives: []Objective{{
			Metric: MetricRecoveryLatency, Quantile: 0.95, Value: 0.5,
			Window: 10, Fast: 2.5, MinSamples: 1,
		}}}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"no objectives", func(s *Spec) { s.Objectives = nil }, "no objectives"},
		{"NaN interval", func(s *Spec) { s.Interval = math.NaN() }, "interval"},
		{"Inf interval", func(s *Spec) { s.Interval = math.Inf(1) }, "interval"},
		{"negative interval", func(s *Spec) { s.Interval = -1 }, "interval"},
		{"interval below floor", func(s *Spec) { s.Interval = 1e-9 }, "interval"},
		{"interval just below floor", func(s *Spec) { s.Interval = MinInterval / 2 }, "interval"},
		{"unknown metric", func(s *Spec) { s.Objectives[0].Metric = numMetrics }, "unknown metric"},
		{"NaN quantile", func(s *Spec) { s.Objectives[0].Quantile = math.NaN() }, "quantile"},
		{"quantile > 1", func(s *Spec) { s.Objectives[0].Quantile = 1.5 }, "quantile"},
		{"NaN value", func(s *Spec) { s.Objectives[0].Value = math.NaN() }, "value"},
		{"Inf value", func(s *Spec) { s.Objectives[0].Value = math.Inf(1) }, "value"},
		{"negative value", func(s *Spec) { s.Objectives[0].Value = -0.5 }, "value"},
		{"ratio > 1", func(s *Spec) {
			s.Objectives[0] = Objective{Metric: MetricSuppressionRatio, Value: 1.5, Window: 10}
		}, "fraction"},
		{"NaN window", func(s *Spec) { s.Objectives[0].Window = math.NaN() }, "window"},
		{"zero window", func(s *Spec) { s.Objectives[0].Window = 0 }, "window"},
		{"window below floor", func(s *Spec) { s.Objectives[0].Window = 1e-300 }, "window"},
		{"fast below floor", func(s *Spec) { s.Objectives[0].Fast = 1e-4 }, "fast window"},
		{"NaN fast", func(s *Spec) { s.Objectives[0].Fast = math.NaN() }, "fast window"},
		{"fast > window", func(s *Spec) { s.Objectives[0].Fast = 20 }, "fast window"},
		{"negative min", func(s *Spec) { s.Objectives[0].MinSamples = -1 }, "min samples"},
	}
	for _, c := range cases {
		s := good()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, s)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantSub)
		}
	}
	// Everything ParseSpec emits must pass Validate.
	if err := testSpec(t).Validate(); err != nil {
		t.Errorf("parsed spec failed Validate: %v", err)
	}
}

// feedScenario drives a synthetic event stream that breaches a 1s-window
// latency objective between t≈2 and t≈5, then recovers.
func feedScenario(sink telemetry.Sink) {
	emit := func(t float64, kind telemetry.Kind, node topology.NodeID, group int64) {
		sink(telemetry.Event{T: t, Kind: kind, Node: node, Zone: scoping.NoZone,
			Group: group, Origin: topology.NoNode})
	}
	// Preamble: one zone (level 1), node 1 is its member.
	sink(telemetry.Event{Kind: telemetry.KindZoneInfo, Node: topology.NoNode,
		Zone: 0, Group: -1, A: -1, B: 0})
	sink(telemetry.Event{Kind: telemetry.KindZoneInfo, Node: topology.NoNode,
		Zone: 1, Group: -1, A: 0, B: 1})
	sink(telemetry.Event{Kind: telemetry.KindZoneMember, Node: 1, Zone: 1, Group: -1})
	g := int64(0)
	fastLoss := func(t float64) { // recovers in 50ms
		emit(t, telemetry.KindLossDetected, 1, g)
		emit(t+0.05, telemetry.KindGroupDecoded, 1, g)
		g++
	}
	slowLoss := func(t float64) { // recovers in 900ms
		emit(t, telemetry.KindLossDetected, 1, g)
		emit(t+0.9, telemetry.KindGroupDecoded, 1, g)
		g++
	}
	for t := 0.1; t < 2; t += 0.2 {
		fastLoss(t)
	}
	for t := 2.0; t < 4; t += 0.2 {
		slowLoss(t)
	}
	for t := 5.0; t < 9; t += 0.2 {
		fastLoss(t)
	}
}

func testSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := ParseSpec(strings.NewReader(
		"recovery_latency p95 <= 0.5 window=2 fast=1 min=2\n"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestEngineAlertLifecycle(t *testing.T) {
	bus := telemetry.NewBus()
	eng := NewEngine(testSpec(t), bus)
	var seen []telemetry.Event
	bus.Attach(func(e telemetry.Event) {
		if e.Kind == telemetry.KindHealthAlert || e.Kind == telemetry.KindHealthClear {
			seen = append(seen, e)
		}
	})
	bus.Attach(eng.Sink())
	feedScenario(eng.Sink())
	eng.Finish(10)

	em := eng.Emitted()
	if len(em) == 0 {
		t.Fatal("no health events emitted")
	}
	if len(em) != len(seen) {
		t.Fatalf("bus saw %d health events, engine emitted %d", len(seen), len(em))
	}
	// Alert then clear, for both the aggregate (zone -1) and zone 1.
	var kinds []telemetry.Kind
	for _, e := range em {
		kinds = append(kinds, e.Kind)
		if e.A != 0 {
			t.Fatalf("objective index = %d, want 0", e.A)
		}
	}
	alerts, clears := 0, 0
	for _, k := range kinds {
		if k == telemetry.KindHealthAlert {
			alerts++
		} else {
			clears++
		}
	}
	if alerts != 2 || clears != 2 {
		t.Fatalf("got %d alerts, %d clears (events %v), want 2 and 2", alerts, clears, em)
	}

	rep := eng.Report()
	if rep.Passed() {
		t.Fatal("report passed despite violations")
	}
	if rep.Violations() != 2 {
		t.Fatalf("violations = %d, want 2 (aggregate + zone 1)", rep.Violations())
	}
	for _, row := range rep.Rows {
		if row.Active {
			t.Fatalf("row %+v still active after recovery", row)
		}
		for _, v := range row.Violations {
			if v.Start < 2 || v.End > 6 {
				t.Fatalf("violation window [%g, %g] outside breach period", v.Start, v.End)
			}
			if v.Witness <= 0.5 {
				t.Fatalf("witness %g does not exceed the objective", v.Witness)
			}
		}
	}
	if s := rep.String(); !strings.Contains(s, "FAIL") {
		t.Fatalf("report string lacks FAIL verdict:\n%s", s)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() (*Report, []telemetry.Event) {
		eng := NewEngine(testSpec(t), nil)
		feedScenario(eng.Sink())
		eng.Finish(10)
		return eng.Report(), eng.Emitted()
	}
	r1, e1 := run()
	r2, e2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reports differ:\n%+v\n%+v", r1, r2)
	}
	if !slices.Equal(e1, e2) {
		t.Fatalf("event sequences differ:\n%v\n%v", e1, e2)
	}
}

func TestEngineIgnoresOwnAlerts(t *testing.T) {
	// An engine fed its own health events must not recurse or change
	// state: handle() drops them before locking.
	eng := NewEngine(testSpec(t), nil)
	sink := eng.Sink()
	sink(telemetry.Event{T: 1, Kind: telemetry.KindHealthAlert, Node: topology.NoNode,
		Zone: scoping.NoZone, Group: -1})
	sink(telemetry.Event{T: 2, Kind: telemetry.KindHealthClear, Node: topology.NoNode,
		Zone: scoping.NoZone, Group: -1})
	eng.Finish(3)
	if n := len(eng.Emitted()); n != 0 {
		t.Fatalf("engine emitted %d events from ingesting health events", n)
	}
}

func TestEngineActiveLines(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(
		"suppression_ratio >= 0.9 window=4 fast=1 min=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(spec, nil)
	sink := eng.Sink()
	for i := 0; i < 8; i++ {
		sink(telemetry.Event{T: 0.2 + 0.1*float64(i), Kind: telemetry.KindNACKSent,
			Node: 1, Zone: scoping.NoZone, Group: int64(i), Origin: topology.NoNode})
	}
	// This event's arrival runs the t=1 tick, which sees 8 unsuppressed
	// NACKs in both windows and raises the alert.
	sink(telemetry.Event{T: 1.01, Kind: telemetry.KindNACKSent, Node: 1,
		Zone: scoping.NoZone, Group: 99, Origin: topology.NoNode})
	if got := eng.ActiveAlerts(); got != 1 {
		t.Fatalf("ActiveAlerts = %d, want 1 (session aggregate)", got)
	}
	lines := eng.ActiveLines()
	if len(lines) != 1 || !strings.Contains(lines[0], "suppression_ratio") {
		t.Fatalf("ActiveLines = %q", lines)
	}
}

func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(
		"recovery_latency p95 <= 0.5 window=2 fast=1\n" +
			"suppression_ratio >= 0.5 window=2 fast=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(spec, nil)
	sink := eng.Sink()
	feedScenario(sink) // warm up: zones grown, loss map sized
	now := 10.0
	g := int64(10_000)
	allocs := testing.AllocsPerRun(1000, func() {
		sink(telemetry.Event{T: now, Kind: telemetry.KindNACKSuppressed, Node: 1,
			Zone: scoping.NoZone, Group: g, Origin: topology.NoNode})
		sink(telemetry.Event{T: now + 0.01, Kind: telemetry.KindLossDetected, Node: 1,
			Zone: scoping.NoZone, Group: g, A: 1, Origin: topology.NoNode})
		sink(telemetry.Event{T: now + 0.05, Kind: telemetry.KindGroupDecoded, Node: 1,
			Zone: scoping.NoZone, Group: g, Origin: topology.NoNode})
		now += 0.1
		g++
	})
	if allocs != 0 {
		t.Fatalf("steady-state sink allocates %.1f allocs/op, want 0", allocs)
	}
}

// FuzzParseSpec feeds arbitrary text to ParseSpec: it must never panic,
// every spec it accepts must pass Validate, and the spec's canonical
// String form must parse back to an equal Spec.
func FuzzParseSpec(f *testing.F) {
	f.Add("# comment\ninterval 0.5\nrecovery_latency p99 <= 0.25 window=20 fast=5 min=10\n")
	f.Add("suppression_ratio >= 0.7\nrepair_locality >= 0.1 window=3\n")
	f.Add("budget_burn p57 <= 0.5 fast=1\ninterval 1e-3\n")
	f.Add("recovery_latency <= 1 window=0.002\n")
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec Validate refuses: %v\n%q", err, text)
		}
		again, err := ParseSpec(strings.NewReader(spec.String()))
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%q", err, spec.String())
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("canonical round trip drifted:\n%+v\n%+v", spec, again)
		}
	})
}
