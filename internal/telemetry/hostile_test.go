package telemetry_test

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"sharqfec/internal/analysis"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/health"
	"sharqfec/internal/telemetry/spans"
	"sharqfec/internal/topology"
)

// hostileSLO arms an objective on every metric the traces below touch,
// so the health replay ticks and grows its tables the way `-slo` does.
const hostileSLO = `
recovery_latency p95 <= 1
suppression_ratio >= 0.5
repair_locality >= 0.5
`

// replayBoth feeds one user-supplied trace in one pass through a span
// assembler and an SLO engine, closes the engine at the run's end, and
// reports the replay's error; it must return well inside the deadline.
func replayBoth(t *testing.T, trace string) error {
	t.Helper()
	spec, err := health.ParseSpec(strings.NewReader(hostileSLO))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng := health.NewEngine(spec, nil)
		var until float64
		until, err = telemetry.Replay(strings.NewReader(trace), spans.NewAssembler().Sink(), eng.Sink())
		eng.Finish(until)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("replay did not return within 5 s")
	}
	return err
}

// wantLineError checks a replay refused the trace at the given line.
func wantLineError(t *testing.T, err error, line string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "trace line "+line+":") {
		t.Errorf("error %v, want one naming trace line %s", err, line)
	}
}

// TestReplayHostileFarFutureEvent: one event a trillion seconds after a
// 30 s run used to spin the SLO replay through one evaluation tick per
// second up to it.
func TestReplayHostileFarFutureEvent(t *testing.T) {
	wantLineError(t, replayBoth(t, farFutureTrace), "3")
}

const farFutureTrace = `{"t":0.000000,"ev":"run_info","node":-1,"f":30}
{"t":0.000000,"ev":"zone_info","node":-1,"zone":0,"a":-1}
{"t":1e12,"ev":"nack_sent","node":1,"zone":0}
`

// TestReplayIdleTicksStepped: the latest time a trace may carry, with no
// run_info preamble, makes the SLO replay judge up to a billion seconds;
// the idle stretch must cost one tick, not one per second.
func TestReplayIdleTicksStepped(t *testing.T) {
	err := replayBoth(t, `{"t":0.000000,"ev":"zone_info","node":-1,"zone":0,"a":-1}
{"t":0.000000,"ev":"zone_member","node":1,"zone":0}
{"t":1.000000,"ev":"nack_sent","node":1,"zone":0}
{"t":1000000000.000000,"ev":"nack_suppressed","node":1,"zone":0}
`)
	if err != nil {
		t.Fatalf("replay refused a well-formed trace: %v", err)
	}
}

// TestReplayHostileNodeID: a zone_member line naming node 3·10⁹ used to
// grow the SLO engine's node table to that many entries.
func TestReplayHostileNodeID(t *testing.T) {
	wantLineError(t, replayBoth(t, hostileNodeTrace), "1")
}

const hostileNodeTrace = `{"t":0,"ev":"zone_member","node":3000000000,"zone":0}
`

// TestReplayHostileZoneID: a zone_info line naming zone 3·10⁹ used to
// grow the span replay's zone view (and the SLO engine's zone tables)
// to that many entries.
func TestReplayHostileZoneID(t *testing.T) {
	wantLineError(t, replayBoth(t, hostileZoneTrace), "1")
}

const hostileZoneTrace = `{"t":0,"ev":"zone_info","node":-1,"zone":3000000000,"a":-1}
`

// FuzzReplay: any bytes replayed into a span assembler and an SLO engine,
// then through every consumer of the two, give a report or an error,
// never a panic.
func FuzzReplay(f *testing.F) {
	for _, trace := range []string{farFutureTrace, hostileNodeTrace, hostileZoneTrace} {
		f.Add([]byte(trace))
	}
	f.Add(realPreamble(f))
	spec, err := health.ParseSpec(strings.NewReader(hostileSLO))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(_ *testing.T, trace []byte) {
		asm, eng := spans.NewAssembler(), health.NewEngine(spec, nil)
		until, err := telemetry.Replay(bytes.NewReader(trace), asm.Sink(), eng.Sink())
		if err != nil {
			return
		}
		eng.Finish(until)
		_ = eng.Report().String()
		_ = analysis.BuildRecoveryReport(asm).String()
		_ = spans.WritePerfetto(io.Discard, asm.Spans(), asm.View(), nil)
	})
}

// realPreamble is the head of a trace as a run writes it: run_info, the
// zone preamble of a four-node chain, and one loss the run recovers.
func realPreamble(f *testing.F) []byte {
	var buf bytes.Buffer
	w := telemetry.NewEventWriter(&buf)
	bus := telemetry.NewBus()
	bus.Attach(w.Sink())
	bus.Emit(telemetry.Event{Kind: telemetry.KindRunInfo, Node: topology.NoNode, Zone: scoping.NoZone, Group: -1, F: 10})
	telemetry.EmitZones(bus, scoping.MustBuild(topology.ScopedChain(4, 0).Zones))
	bus.Emit(telemetry.Event{T: 1, Kind: telemetry.KindLossDetected, Node: 2, Zone: scoping.NoZone, Group: 0, A: 3})
	bus.Emit(telemetry.Event{T: 1.2, Kind: telemetry.KindNACKSent, Node: 2, Zone: 1, Group: 0, A: 1, B: 1})
	bus.Emit(telemetry.Event{T: 1.3, Kind: telemetry.KindGroupDecoded, Node: 2, Zone: scoping.NoZone, Group: 0, A: 1})
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
