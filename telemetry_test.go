package sharqfec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"

	"sharqfec/internal/analysis"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/spans"
)

// telemetryRunConfig is the shared scenario for the facade tests: short
// Figure-10 run with every exporter on.
func telemetryRunConfig(events *bytes.Buffer) DataConfig {
	return DataConfig{
		Protocol:   SHARQFEC,
		Seed:       11,
		NumPackets: 128,
		Until:      20,
		Telemetry: &TelemetryConfig{
			Events:          events,
			MetricsInterval: 1,
			FlightRecorder:  64,
		},
	}
}

// TestTelemetryDeterminism: two runs at the same seed must export
// byte-identical JSONL event traces and CSV time series.
func TestTelemetryDeterminism(t *testing.T) {
	var ev1, ev2, csv1, csv2 bytes.Buffer
	res1, err := RunData(telemetryRunConfig(&ev1))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunData(telemetryRunConfig(&ev2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ev1.Bytes(), ev2.Bytes()) {
		t.Error("JSONL event traces differ across identical seeds")
	}
	if err := res1.Telemetry.WriteMetricsCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := res2.Telemetry.WriteMetricsCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Error("metrics CSV differs across identical seeds")
	}
	if res1.Telemetry.EventsEmitted == 0 || res1.Telemetry.EventsWritten == 0 {
		t.Fatalf("no events flowed: %+v", res1.Telemetry)
	}
}

// TestTelemetryPassive: attaching the full observability stack must not
// change the protocol run. A packet trace rides the telemetry bus, so
// the trace of a minimal telemetry run (the packet trace alone) must
// equal the trace of a full-stack run, and both runs' results must
// equal those of a run with telemetry off at the same seed.
func TestTelemetryPassive(t *testing.T) {
	off := telemetryRunConfig(nil)
	off.Telemetry = nil
	resOff, err := RunData(off)
	if err != nil {
		t.Fatal(err)
	}
	if resOff.Telemetry != nil {
		t.Error("telemetry report present on a disabled run")
	}

	var traceMin, traceFull, ev bytes.Buffer
	minimal := telemetryRunConfig(nil)
	minimal.Telemetry = &TelemetryConfig{PacketTrace: &traceMin}
	resMin, err := RunData(minimal)
	if err != nil {
		t.Fatal(err)
	}
	full := telemetryRunConfig(&ev)
	full.Telemetry.PacketTrace = &traceFull
	full.Telemetry.Spans = true
	full.Telemetry.Census = true
	full.Telemetry.SLO = parseTestSLO(t)
	resFull, err := RunData(full)
	if err != nil {
		t.Fatal(err)
	}
	if traceMin.Len() == 0 || !bytes.Equal(traceMin.Bytes(), traceFull.Bytes()) {
		t.Errorf("the full stack perturbed the packet trace (%d vs %d bytes)", traceMin.Len(), traceFull.Len())
	}
	want := dataDigest(resOff)
	for name, res := range map[string]*DataResult{"minimal": resMin, "full": resFull} {
		if got := dataDigest(res); got != want {
			t.Errorf("%s telemetry perturbed the results: digest %s, want %s", name, got, want)
		}
	}
	if len(resFull.Telemetry.Spans()) == 0 {
		t.Error("spans enabled but none assembled")
	}
}

// TestTelemetryConsistentWithReport: the final aggregate row of the
// time series must agree with the end-of-run report totals, and the
// JSONL trace must parse line by line.
func TestTelemetryConsistentWithReport(t *testing.T) {
	var ev bytes.Buffer
	res, err := RunData(telemetryRunConfig(&ev))
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	checkRegistryEqualsReport(t, res)

	// A restarted member's predecessor sent NACKs and repairs too: the
	// report counts every agent the run spawned, as the registry does.
	restarted, err := RunData(DataConfig{
		Protocol: SHARQFEC, Seed: 31, NumPackets: 512, Until: 90,
		Faults:    NewFaultPlan().Crash(8, 3).Restart(9, 3),
		Telemetry: &TelemetryConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRegistryEqualsReport(t, restarted)

	var csv bytes.Buffer
	if err := tel.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	last := strings.Split(lines[len(lines)-1], ",")
	header := strings.Split(lines[0], ",")
	if len(last) != len(header) {
		t.Fatalf("ragged CSV: %d columns vs %d header fields", len(last), len(header))
	}
	col := func(name string) string {
		for i, h := range header {
			if h == name {
				return last[i]
			}
		}
		t.Fatalf("no column %q", name)
		return ""
	}
	if col("zone") != "-1" {
		t.Fatalf("final row is not the aggregate: zone=%s", col("zone"))
	}
	if got := col("nacks_sent"); got != itoa(res.NACKsSent) {
		t.Errorf("CSV nacks_sent %s != report %d", got, res.NACKsSent)
	}
	if got := col("repairs_sent"); got != itoa(res.RepairsSent) {
		t.Errorf("CSV repairs_sent %s != report %d", got, res.RepairsSent)
	}
	if got := col("session_pkts"); got != itoa(res.SessionPackets) {
		t.Errorf("CSV session_pkts %s != report %d", got, res.SessionPackets)
	}
	if tel.SuppressionRatio <= 0 || tel.SuppressionRatio >= 1 {
		t.Errorf("implausible suppression ratio %g", tel.SuppressionRatio)
	}
	if tel.LocalRepairFrac <= 0 {
		t.Errorf("no repair localization measured: %g", tel.LocalRepairFrac)
	}

	sc := bufio.NewScanner(&ev)
	n := 0
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("bad JSONL line %d: %v\n%s", n+1, err, sc.Text())
		}
		for _, field := range []string{"t", "ev", "node"} {
			if _, ok := obj[field]; !ok {
				t.Fatalf("line %d missing %q: %s", n+1, field, sc.Text())
			}
		}
		n++
	}
	if uint64(n) != tel.EventsWritten {
		t.Fatalf("trace has %d lines, writer reports %d", n, tel.EventsWritten)
	}
}

// checkRegistryEqualsReport requires the NACK and repair totals of the
// final aggregate metrics row, which the registry counts from events, to
// equal the run's report, which the agents count.
func checkRegistryEqualsReport(t *testing.T, res *DataResult) {
	t.Helper()
	rows := res.Telemetry.rows
	if agg := rows[len(rows)-1]; agg.Zone != -1 || agg.NACKsSent != int64(res.NACKsSent) || agg.RepairsSent != int64(res.RepairsSent) {
		t.Errorf("final aggregate row (zone %d) totals %d/%d != report %d/%d",
			agg.Zone, agg.NACKsSent, agg.RepairsSent, res.NACKsSent, res.RepairsSent)
	}
}

// TestChaosRegistryBackedCounters: RunChaos's result counters now come
// from the telemetry registry; a nominal run must still report sane
// totals and keep the flight record empty.
func TestChaosRegistryBackedCounters(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Seed: 5, NumPackets: 64, Until: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.NACKsSent <= 0 || res.RepairsSent <= 0 {
		t.Fatalf("registry counters empty: %d NACKs, %d repairs", res.NACKsSent, res.RepairsSent)
	}
	if res.LocalRepairFrac <= 0 || res.LocalRepairFrac > 1 {
		t.Fatalf("localization out of range: %g", res.LocalRepairFrac)
	}
	if res.Telemetry == nil || res.Telemetry.EventsEmitted == 0 {
		t.Fatal("chaos run carried no telemetry")
	}
	if res.CompletionRate == 1 && res.Verified && res.FlightRecord != nil {
		t.Fatal("flight record dumped on a nominal run")
	}
}

// TestChaosFlightRecorderDumpsOnAnomaly: crashing the source
// mid-stream strands the untransmitted groups, so the surviving
// receivers cannot complete and the flight recorder must dump.
func TestChaosFlightRecorderDumpsOnAnomaly(t *testing.T) {
	res, err := RunChaos(ChaosConfig{
		Seed:       5,
		NumPackets: 64,
		Until:      30,
		Faults:     NewFaultPlan().Crash(6.2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate >= 1 {
		t.Skipf("partition did not prevent completion (%.3f); scenario lost its teeth", res.CompletionRate)
	}
	if len(res.FlightRecord) == 0 {
		t.Fatal("anomalous run dumped no flight record")
	}
	for _, line := range res.FlightRecord {
		if strings.TrimSpace(line) == "" {
			t.Fatal("empty flight-record line")
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestSpanAccountingUnderChaos is the span-tracing acceptance check on
// a seeded Figure-10 chaos run (ZCR crash): every loss_detected event
// resolves into exactly one span terminated by a decode or an explicit
// loss_unrecovered marker — none left open, duplicates folded.
func TestSpanAccountingUnderChaos(t *testing.T) {
	var ev bytes.Buffer
	res, err := RunChaos(ChaosConfig{
		Seed:       5,
		NumPackets: 128,
		Until:      60,
		Telemetry:  &TelemetryConfig{Events: &ev},
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	if tel.OpenSpans() != 0 {
		t.Fatalf("%d spans never saw a terminal event", tel.OpenSpans())
	}
	sps := tel.Spans()
	rep := tel.RecoveryReport()
	if len(sps) == 0 || rep.LossEvents == 0 {
		t.Fatal("chaos run assembled no spans")
	}
	accounted := uint64(0)
	for _, s := range sps {
		accounted += uint64(1 + s.DupLoss)
	}
	if accounted != rep.LossEvents {
		t.Fatalf("spans account for %d loss events, assembler consumed %d",
			accounted, rep.LossEvents)
	}
	if rep.Recovered+rep.Unrecovered != rep.Spans {
		t.Fatalf("recovered %d + unrecovered %d != %d spans",
			rep.Recovered, rep.Unrecovered, rep.Spans)
	}

	// Offline replay of the JSONL trace must reproduce the identical
	// report — byte for byte — from the trace alone.
	replayed := spans.NewAssembler()
	if _, err := telemetry.Replay(&ev, replayed.Sink()); err != nil {
		t.Fatal(err)
	}
	if live, offline := rep.String(), analysis.BuildRecoveryReport(replayed).String(); live != offline {
		t.Fatalf("offline replay diverges from live assembly:\n--- live ---\n%s--- replay ---\n%s", live, offline)
	}
}

// TestSpanReplayMatchesLiveRun: the trace of a plain Figure-10 run (the
// simulator's defaults: seed 1, 8 % loss, spans on) replays to the live
// run's recovery report, byte for byte. With trace times rounded to the
// microsecond the replayed z9/l1 p95 read 1.3921 s against 1.3922 s live.
func TestSpanReplayMatchesLiveRun(t *testing.T) {
	top, err := ParseTopology("figure10", 0.08)
	if err != nil {
		t.Fatal(err)
	}
	var ev bytes.Buffer
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Topology:   top,
		Seed:       1,
		NumPackets: 128,
		Until:      20,
		Telemetry:  &TelemetryConfig{Events: &ev, Spans: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	replayed := spans.NewAssembler()
	if _, err := telemetry.Replay(&ev, replayed.Sink()); err != nil {
		t.Fatal(err)
	}
	if live, offline := res.Telemetry.RecoveryReport().String(), analysis.BuildRecoveryReport(replayed).String(); live != offline {
		t.Fatalf("offline replay diverges from the live run:\n--- live ---\n%s--- replay ---\n%s", live, offline)
	}
}

// TestChaosAnomalyIncludesSpanSummary: an anomalous chaos dump now
// leads with the span ledger before the raw event tail.
func TestChaosAnomalyIncludesSpanSummary(t *testing.T) {
	res, err := RunChaos(ChaosConfig{
		Seed:       5,
		NumPackets: 64,
		Until:      30,
		Faults:     NewFaultPlan().Crash(6.2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate >= 1 {
		t.Skipf("crash did not prevent completion (%.3f); scenario lost its teeth", res.CompletionRate)
	}
	if len(res.FlightRecord) == 0 || !strings.HasPrefix(res.FlightRecord[0], "recovery spans:") {
		t.Fatalf("flight record does not lead with the span ledger: %q", res.FlightRecord[:1])
	}
}

// TestFlightRecorderClamp: the configurable ring size respects its
// documented floor and cap, and off stays off.
func TestFlightRecorderClamp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 0},
		{-7, -7}, // "off" passes through untouched
		{1, MinFlightRecorder},
		{MinFlightRecorder, MinFlightRecorder},
		{500, 500},
		{MaxFlightRecorder, MaxFlightRecorder},
		{MaxFlightRecorder + 1, MaxFlightRecorder},
		{1 << 30, MaxFlightRecorder},
	} {
		if got := clampFlightRecorder(tc.in); got != tc.want {
			t.Errorf("clampFlightRecorder(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}

	// End to end: a below-floor config still yields a working recorder.
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       11,
		NumPackets: 64,
		Until:      20,
		Telemetry:  &TelemetryConfig{FlightRecorder: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Telemetry.FlightRecord())
	if n == 0 || n > MinFlightRecorder {
		t.Fatalf("flight record holds %d lines, want 1..%d (clamped floor)", n, MinFlightRecorder)
	}
}

// TestPerfettoExport: the facade's exporter produces valid trace-event
// JSON whose slice count matches the span count.
func TestPerfettoExport(t *testing.T) {
	cfg := telemetryRunConfig(nil)
	cfg.Telemetry.Events = nil
	cfg.Telemetry.Spans = true
	res, err := RunData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Telemetry.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	slices := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if want := len(res.Telemetry.Spans()); slices != want {
		t.Fatalf("perfetto has %d slices, run closed %d spans", slices, want)
	}

	// Spans off: the exporter refuses rather than writing an empty file.
	plain, err := RunData(telemetryRunConfig(&bytes.Buffer{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Telemetry.WritePerfetto(io.Discard); err == nil {
		t.Fatal("WritePerfetto succeeded without span tracing")
	}
}
