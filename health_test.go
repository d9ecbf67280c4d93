package sharqfec

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/health"
)

// tightSLO is aggressive enough that the burst-loss scenario below is
// guaranteed to produce alerts — the replay and forensics tests need a
// non-trivial verdict sequence to compare.
const tightSLO = `
recovery_latency p95 <= 0.1 window=5 fast=1.25 min=2
suppression_ratio >= 0.5 window=10 min=8
repair_locality >= 0.6 window=10 min=8
budget_burn <= 0.5 window=10 min=4
`

func parseTestSLO(t *testing.T) *SLOSpec {
	t.Helper()
	spec, err := ParseSLOSpec(strings.NewReader(tightSLO))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestTelemetryRejectsNonFiniteMetricsInterval(t *testing.T) {
	for _, iv := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DataConfig{Protocol: SHARQFEC, NumPackets: 16,
			Telemetry: &TelemetryConfig{MetricsInterval: iv}}
		if _, err := RunData(cfg); err == nil {
			t.Errorf("RunData accepted MetricsInterval = %v", iv)
		} else if !strings.Contains(err.Error(), "MetricsInterval") {
			t.Errorf("RunData(%v) error does not name the field: %v", iv, err)
		}
		ccfg := ChaosConfig{Seed: 1, NumPackets: 16,
			Telemetry: &TelemetryConfig{MetricsInterval: iv}}
		if _, err := RunChaos(ccfg); err == nil {
			t.Errorf("RunChaos accepted MetricsInterval = %v", iv)
		}
	}
}

// TestTelemetryRejectsInvalidSLOSpec covers the programmatic path
// around ParseSLOSpec: a spec assembled in code with a non-finite
// objective must be rejected up front, not silently judge nothing.
func TestTelemetryRejectsInvalidSLOSpec(t *testing.T) {
	for name, spec := range map[string]*health.Spec{
		"empty":      {},
		"NaN value":  {Objectives: []health.Objective{{Metric: 0, Quantile: 0.95, Value: math.NaN(), Window: 10}}},
		"Inf window": {Objectives: []health.Objective{{Metric: 0, Quantile: 0.95, Value: 0.5, Window: math.Inf(1)}}},
	} {
		cfg := DataConfig{Protocol: SHARQFEC, NumPackets: 16,
			Telemetry: &TelemetryConfig{SLO: &SLOSpec{spec: spec}}}
		if _, err := RunData(cfg); err == nil {
			t.Errorf("RunData accepted SLO spec %q", name)
		}
	}
}

// TestRateControlRejectsNonFinite: budget() treats Budget <= 0 as "use
// the default" and NaN fails that comparison too, so without explicit
// validation a NaN budget would reach the controller as a live bound.
func TestRateControlRejectsNonFinite(t *testing.T) {
	bad := []*RateControlConfig{
		{Mode: RateControlAdaptive, Budget: math.NaN()},
		{Mode: RateControlAdaptive, Budget: math.Inf(1)},
		{Mode: RateControlAdaptive, Budget: -0.5},
		{Mode: RateControlAdaptive, Budget: 1.5},
		{Mode: "turbo"},
	}
	for _, rc := range bad {
		cfg := DataConfig{Protocol: SHARQFEC, NumPackets: 16, RateControl: rc}
		if _, err := RunData(cfg); err == nil {
			t.Errorf("RunData accepted rate-control config %+v", *rc)
		}
	}
	if _, err := RunControllerComparison(ControllerComparisonConfig{
		Base:   DataConfig{Protocol: SHARQFEC, NumPackets: 16},
		Budget: math.NaN(),
	}); err == nil {
		t.Error("RunControllerComparison accepted NaN budget")
	}
	ok := DataConfig{Protocol: SHARQFEC, NumPackets: 16,
		RateControl: &RateControlConfig{Mode: RateControlAdaptive, Budget: 0.5}}
	if _, err := RunData(ok); err != nil {
		t.Errorf("valid rate-control config rejected: %v", err)
	}
}

// TestHealthReplayReproducesVerdicts is the offline-replay gate from the
// other side: a live run under an SLO writes its JSONL trace; replaying
// that trace through a fresh engine must reproduce the exact alert
// sequence and verdict table.
func TestHealthReplayReproducesVerdicts(t *testing.T) {
	spec := parseTestSLO(t)
	var trace bytes.Buffer
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       5,
		NumPackets: 256,
		Until:      30,
		Faults:     BurstLossPlan(8),
		Telemetry:  &TelemetryConfig{Events: &trace, SLO: spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	live := res.Telemetry.HealthReport()
	if live == nil {
		t.Fatal("no health report despite SLO config")
	}
	if live.Passed() {
		t.Fatal("tight SLO unexpectedly passed; the replay test needs violations")
	}

	eng := health.NewEngine(spec.spec, nil)
	var recorded []telemetry.Event
	until, err := telemetry.Replay(bytes.NewReader(trace.Bytes()), eng.Sink(), func(e telemetry.Event) {
		if e.Kind == telemetry.KindHealthAlert || e.Kind == telemetry.KindHealthClear {
			recorded = append(recorded, e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Finish(until)
	if len(recorded) == 0 {
		t.Fatal("trace recorded no health events")
	}
	if derived := eng.Emitted(); !slices.Equal(derived, recorded) {
		t.Fatalf("replay drift: %d recorded vs %d derived health events",
			len(recorded), len(derived))
	}
	if got, want := eng.Report().String(), live.String(); got != want {
		t.Fatalf("replayed report differs from live:\n--- live ---\n%s--- replay ---\n%s", want, got)
	}
}

func TestChaosSLOVerdict(t *testing.T) {
	res, err := RunChaos(ChaosConfig{
		Seed:       5,
		NumPackets: 256,
		Until:      30,
		Faults:     BurstLossPlan(8),
		Telemetry:  &TelemetryConfig{SLO: parseTestSLO(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Health == nil {
		t.Fatal("ChaosResult.Health nil despite SLO config")
	}
	if res.Health.Passed() {
		t.Fatal("tight SLO unexpectedly passed under burst loss")
	}
	if s := res.String(); !strings.Contains(s, "SLO FAIL") {
		t.Fatalf("chaos verdict line lacks SLO FAIL: %q", s)
	}
	// Without an SLO the same run carries no health verdict.
	res, err = RunChaos(ChaosConfig{Seed: 5, NumPackets: 256, Until: 30,
		Faults: BurstLossPlan(8)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Health != nil {
		t.Fatal("ChaosResult.Health non-nil without SLO config")
	}
	if strings.Contains(res.String(), "SLO") {
		t.Fatalf("SLO text in verdict line without SLO config: %q", res.String())
	}
}

// TestDumpTriggerOnRunData checks satellite forensics: a plain RunData
// session with a flight recorder gets alert-triggered dumps through the
// same bus-driven path RunChaos uses.
func TestDumpTriggerOnRunData(t *testing.T) {
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       5,
		NumPackets: 256,
		Until:      30,
		Faults:     BurstLossPlan(8),
		Telemetry:  &TelemetryConfig{FlightRecorder: 128, SLO: parseTestSLO(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	dumps := res.Telemetry.TriggeredDumps()
	if len(dumps) == 0 {
		t.Fatal("no triggered dumps despite violations and a recorder")
	}
	if len(dumps) > telemetry.MaxAutoDumps {
		t.Fatalf("%d auto dumps exceed the cap %d", len(dumps), telemetry.MaxAutoDumps)
	}
	first := dumps[0]
	if !strings.Contains(first.Reason, "health_alert") {
		t.Fatalf("dump reason %q does not name the alert", first.Reason)
	}
	if len(first.Events) == 0 {
		t.Fatal("triggered dump carries no events")
	}
	// The dump's last line is the alert that fired it (trigger attaches
	// after the recorder).
	last := first.Events[len(first.Events)-1]
	if !strings.Contains(last, "health_alert") {
		t.Fatalf("dump tail %q is not the triggering alert", last)
	}
}

// TestTriggeredDumpsNilWhenNothingFired: TriggeredDumps is nil both
// without a recorder and with one armed but no alert to fire it, while
// the armed recorder's own flight record is there.
func TestTriggeredDumpsNilWhenNothingFired(t *testing.T) {
	for _, rec := range []int{0, 64} {
		res, err := RunData(DataConfig{
			Protocol:   SHARQFEC,
			Topology:   ChainTopology(4, 0.08),
			Seed:       1,
			NumPackets: 64,
			Until:      30,
			Telemetry:  &TelemetryConfig{FlightRecorder: rec},
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Telemetry.TriggeredDumps(); d != nil {
			t.Errorf("recorder %d: TriggeredDumps = %v, want nil", rec, d)
		}
		if fr := res.Telemetry.FlightRecord(); (rec > 0) != (len(fr) > 0) {
			t.Errorf("recorder %d: flight record holds %d lines", rec, len(fr))
		}
	}
}

// TestHealthEventsRoundTrip pushes the engine's real emissions through
// the JSONL writer and ParseEventLine: every health event must survive
// byte-exactly, which is what the offline replay gate stands on.
func TestHealthEventsRoundTrip(t *testing.T) {
	spec := parseTestSLO(t)
	var trace bytes.Buffer
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       5,
		NumPackets: 256,
		Until:      30,
		Faults:     BurstLossPlan(8),
		Telemetry:  &TelemetryConfig{Events: &trace, SLO: spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.HealthReport().Passed() {
		t.Fatal("need violations for a meaningful round trip")
	}
	found := 0
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		e, err := telemetry.ParseEventLine([]byte(line))
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if e.Kind != telemetry.KindHealthAlert && e.Kind != telemetry.KindHealthClear {
			continue
		}
		found++
		var out bytes.Buffer
		w := telemetry.NewEventWriter(&out)
		w.Sink()(e)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(out.String()); got != line {
			t.Fatalf("health event did not round-trip:\n in: %s\nout: %s", line, got)
		}
	}
	if found == 0 {
		t.Fatal("trace contains no health events")
	}
}

// TestSpansTaggedByAlerts: recoveries in flight while an alert fires
// carry the alert count.
func TestSpansTaggedByAlerts(t *testing.T) {
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       5,
		NumPackets: 256,
		Until:      30,
		Faults:     BurstLossPlan(8),
		Telemetry:  &TelemetryConfig{Spans: true, SLO: parseTestSLO(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for _, sp := range res.Telemetry.Spans() {
		if sp.Alerts > 0 {
			tagged++
			if !strings.Contains(sp.Format(), "alerts=") {
				t.Fatalf("tagged span line lacks alerts field: %s", sp.Format())
			}
		}
	}
	if tagged == 0 {
		t.Fatal("no spans tagged by alerts despite violations under burst loss")
	}
}

// TestHealthPassiveOnProtocol: attaching the health engine must not
// perturb the protocol execution — same seed, same results, with and
// without an SLO.
func TestHealthPassiveOnProtocol(t *testing.T) {
	run := func(slo *SLOSpec) *DataResult {
		res, err := RunData(DataConfig{
			Protocol:   SHARQFEC,
			Seed:       5,
			NumPackets: 256,
			Until:      30,
			Faults:     BurstLossPlan(8),
			Telemetry:  &TelemetryConfig{SLO: slo},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	with := run(parseTestSLO(t))
	if base.CompletionRate != with.CompletionRate ||
		base.NACKsSent != with.NACKsSent ||
		base.RepairsSent != with.RepairsSent ||
		base.Telemetry.SuppressionRatio != with.Telemetry.SuppressionRatio {
		t.Fatalf("SLO engine perturbed the protocol:\nwithout: %+v\nwith:    %+v",
			base, with)
	}
}
