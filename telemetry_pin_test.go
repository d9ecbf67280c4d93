package sharqfec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// telemetryExportsDigest is the SHA-256 of every exporter's output for
// the fixed-seed run below. The telemetry layer is passive and its
// exports are a stable surface: a change that only restructures the
// layer must leave this digest as it is.
const telemetryExportsDigest = "5c92133051e2cafbd7c0dba427ce3d550408f3bd07a74b686d7cd3db6bad30d1"

// TestTelemetryExportsPinned pins the bytes of every exported telemetry
// surface of one fixed-seed Figure-10 run under burst loss with the
// whole stack armed: the metrics CSV and JSON, the Perfetto trace, the
// census summary, the recovery and health reports, and the flight
// recorder tail.
func TestTelemetryExportsPinned(t *testing.T) {
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       7,
		NumPackets: 256,
		Faults:     BurstLossPlan(4),
		Telemetry: &TelemetryConfig{
			Census:          true,
			Spans:           true,
			FlightRecorder:  64,
			MetricsInterval: 1,
			SLO:             parseTestSLO(t),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	h := sha256.New()
	section := func(name string, body []byte) {
		h.Write([]byte("== " + name + "\n"))
		h.Write(body)
	}
	var buf bytes.Buffer
	if err := tel.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	section("metrics.csv", buf.Bytes())
	buf.Reset()
	if err := tel.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	section("metrics.json", buf.Bytes())
	buf.Reset()
	if err := tel.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	section("perfetto.json", buf.Bytes())
	sum, err := json.Marshal(tel.CensusSummary())
	if err != nil {
		t.Fatal(err)
	}
	section("census", sum)
	section("recovery", []byte(tel.RecoveryReport().String()))
	section("health", []byte(tel.HealthReport().String()))
	section("flight", []byte(strings.Join(tel.FlightRecord(), "\n")))

	if got := hex.EncodeToString(h.Sum(nil)); got != telemetryExportsDigest {
		t.Fatalf("telemetry exports digest = %s, want %s", got, telemetryExportsDigest)
	}
}
