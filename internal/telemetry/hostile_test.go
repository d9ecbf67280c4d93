package telemetry_test

import (
	"strings"
	"testing"
	"time"

	"sharqfec/internal/telemetry/health"
	"sharqfec/internal/telemetry/spans"
)

// hostileSLO arms an objective on every metric the traces below touch,
// so the health replay ticks and grows its tables the way `-slo` does.
const hostileSLO = `
recovery_latency p95 <= 1
suppression_ratio >= 0.5
repair_locality >= 0.5
`

// replayBoth feeds one user-supplied trace through the span replay and
// the SLO replay, each of which must return — a report or an error —
// well inside the deadline, and reports the two errors.
func replayBoth(t *testing.T, trace string) (spanErr, healthErr error) {
	t.Helper()
	spec, err := health.ParseSpec(strings.NewReader(hostileSLO))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, spanErr = spans.Replay(strings.NewReader(trace))
		_, _, healthErr = health.Replay(strings.NewReader(trace), spec)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("replay did not return within 5 s")
	}
	return spanErr, healthErr
}

// wantLineError checks a replay refused the trace at the given line.
func wantLineError(t *testing.T, who string, err error, line string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "trace line "+line+":") {
		t.Errorf("%s: error %v, want one naming trace line %s", who, err, line)
	}
}

// TestReplayHostileFarFutureEvent: one event a trillion seconds after a
// 30 s run used to spin the SLO replay through one evaluation tick per
// second up to it.
func TestReplayHostileFarFutureEvent(t *testing.T) {
	spanErr, healthErr := replayBoth(t, `{"t":0.000000,"ev":"run_info","node":-1,"f":30}
{"t":0.000000,"ev":"zone_info","node":-1,"zone":0,"a":-1}
{"t":1e12,"ev":"nack_sent","node":1,"zone":0}
`)
	wantLineError(t, "spans", spanErr, "3")
	wantLineError(t, "health", healthErr, "3")
}

// TestReplayIdleTicksStepped: the latest time a trace may carry, with no
// run_info preamble, makes the SLO replay judge up to a billion seconds;
// the idle stretch must cost one tick, not one per second.
func TestReplayIdleTicksStepped(t *testing.T) {
	spanErr, healthErr := replayBoth(t, `{"t":0.000000,"ev":"zone_info","node":-1,"zone":0,"a":-1}
{"t":0.000000,"ev":"zone_member","node":1,"zone":0}
{"t":1.000000,"ev":"nack_sent","node":1,"zone":0}
{"t":1000000000.000000,"ev":"nack_suppressed","node":1,"zone":0}
`)
	if spanErr != nil || healthErr != nil {
		t.Fatalf("replays refused a well-formed trace: spans %v, health %v", spanErr, healthErr)
	}
}

// TestReplayHostileNodeID: a zone_member line naming node 3·10⁹ used to
// grow the SLO engine's node table to that many entries.
func TestReplayHostileNodeID(t *testing.T) {
	spanErr, healthErr := replayBoth(t, `{"t":0,"ev":"zone_member","node":3000000000,"zone":0}
`)
	wantLineError(t, "spans", spanErr, "1")
	wantLineError(t, "health", healthErr, "1")
}

// TestReplayHostileZoneID: a zone_info line naming zone 3·10⁹ used to
// grow the span replay's zone view (and the SLO engine's zone tables)
// to that many entries.
func TestReplayHostileZoneID(t *testing.T) {
	spanErr, healthErr := replayBoth(t, `{"t":0,"ev":"zone_info","node":-1,"zone":3000000000,"a":-1}
`)
	wantLineError(t, "spans", spanErr, "1")
	wantLineError(t, "health", healthErr, "1")
}
