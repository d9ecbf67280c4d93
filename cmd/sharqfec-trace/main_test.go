package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sharqfec"
)

// writeSpec writes an SLO spec to a file for -slo and parses it for a
// live run.
func writeSpec(t *testing.T, text string) (string, *sharqfec.SLOSpec) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "slo.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := sharqfec.ParseSLOSpec(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return path, spec
}

// liveTrace runs a short burst-loss scenario under the SLO with spans on
// and returns its JSONL trace with the live run's telemetry report.
func liveTrace(t *testing.T, spec *sharqfec.SLOSpec) ([]byte, *sharqfec.TelemetryReport) {
	t.Helper()
	var trace bytes.Buffer
	res, err := sharqfec.RunData(sharqfec.DataConfig{
		Protocol:   sharqfec.SHARQFEC,
		Seed:       5,
		NumPackets: 64,
		Until:      20,
		Faults:     sharqfec.BurstLossPlan(8),
		Telemetry:  &sharqfec.TelemetryConfig{Events: &trace, Spans: true, SLO: spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace.Bytes(), res.Telemetry
}

// TestReplayMatchesLiveRun: a trace the simulator wrote replays, from
// stdin, into the live run's recovery report, one line per span under
// -spans, and the live run's health table under -slo.
func TestReplayMatchesLiveRun(t *testing.T) {
	path, spec := writeSpec(t, "recovery_latency p95 <= 30\n")
	trace, live := liveTrace(t, spec)
	report := live.RecoveryReport()
	var out, errb bytes.Buffer
	if err := run([]string{"-spans", "-"}, bytes.NewReader(trace), &out, &errb); err != nil {
		t.Fatalf("run -spans: %v (stderr %q)", err, errb.String())
	}
	got, want := out.String(), report.String()
	if !strings.HasPrefix(got, want+"\n") {
		t.Fatalf("replayed report differs from live:\n--- live ---\n%s--- replay ---\n%s", want, got)
	}
	if n := strings.Count(got[len(want)+1:], "\n"); n != report.Spans || n == 0 {
		t.Errorf("-spans listed %d lines, live run closed %d spans", n, report.Spans)
	}

	out.Reset()
	if err := run([]string{"-slo", path, "-"}, bytes.NewReader(trace), &out, &errb); err != nil {
		t.Fatalf("run -slo: %v (stderr %q)", err, errb.String())
	}
	if hr := live.HealthReport().String(); out.String() != want+"\n"+hr {
		t.Errorf("replayed health table differs from live:\n--- live ---\n%s--- replay ---\n%s", hr, out.String())
	}
}

// TestSLOFailIsAnError: a tight SLO the run violates reproduces the
// recorded alerts exactly and still makes the exit status non-zero.
func TestSLOFailIsAnError(t *testing.T) {
	path, spec := writeSpec(t, "recovery_latency p95 <= 0.1 window=5 fast=1.25 min=2\n")
	trace, _ := liveTrace(t, spec)
	var out bytes.Buffer
	err := run([]string{"-slo", path, "-"}, bytes.NewReader(trace), &out, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "SLO FAIL") {
		t.Fatalf("run: error %v, want an SLO FAIL", err)
	}
	if !strings.Contains(out.String(), "recorded health events reproduced exactly") {
		t.Errorf("no replay-gate line in:\n%s", out.String())
	}
}

// TestHostileTracesRefused: the hostile traces of the telemetry package's
// replay tests — an event a trillion seconds out, a node ID of 3·10⁹, a
// zone ID of 3·10⁹ — each come back as an error naming the line, quickly,
// through both the span replay and the -slo health replay.
func TestHostileTracesRefused(t *testing.T) {
	path, _ := writeSpec(t, "recovery_latency p95 <= 1\nsuppression_ratio >= 0.5\nrepair_locality >= 0.5\n")
	for name, c := range map[string]struct{ trace, line string }{
		"far-future event": {`{"t":0.000000,"ev":"run_info","node":-1,"f":30}
{"t":0.000000,"ev":"zone_info","node":-1,"zone":0,"a":-1}
{"t":1e12,"ev":"nack_sent","node":1,"zone":0}
`, "3"},
		"node ID": {`{"t":0,"ev":"zone_member","node":3000000000,"zone":0}
`, "1"},
		"zone ID": {`{"t":0,"ev":"zone_info","node":-1,"zone":3000000000,"a":-1}
`, "1"},
	} {
		for _, args := range [][]string{{"-"}, {"-slo", path, "-"}} {
			done := make(chan error, 1)
			go func() {
				done <- run(args, strings.NewReader(c.trace), &bytes.Buffer{}, &bytes.Buffer{})
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "trace line "+c.line+":") {
					t.Errorf("%s %v: error %v, want one naming trace line %s", name, args, err, c.line)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s %v: no answer within 5 s", name, args)
			}
		}
	}
}

// TestUsage: anything but exactly one trace argument is an error.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"a", "b"}} {
		if err := run(args, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "usage") {
			t.Errorf("args %q: error %v, want the usage line", args, err)
		}
	}
}
