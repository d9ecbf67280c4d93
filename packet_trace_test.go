package sharqfec

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chain3Trace runs the golden scenario: a 3-node chain, 16 packets,
// fixed seed, full packet trace.
func chain3Trace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	_, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Topology:   ChainTopology(3, 0.1),
		Seed:       42,
		NumPackets: 16,
		Until:      12,
		Telemetry:  &TelemetryConfig{PacketTrace: &buf},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPacketTraceGoldenChain3 pins the trace format and the determinism
// of a seeded run against a committed golden file. Regenerate with
// UPDATE_GOLDEN=1 after an intentional format or protocol change.
func TestPacketTraceGoldenChain3(t *testing.T) {
	got := chain3Trace(t)
	golden := filepath.Join("testdata", "chain3.trace")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(got, want) {
		gl := strings.Split(string(got), "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace diverges from golden at line %d:\ngot:  %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length changed: %d lines vs golden %d", len(gl), len(wl))
	}
	// Structural sanity independent of the exact bytes.
	for i, line := range strings.Split(strings.TrimSpace(string(got)), "\n") {
		if !strings.HasPrefix(line, "+ ") && !strings.HasPrefix(line, "r ") {
			t.Fatalf("line %d has unknown record type: %q", i+1, line)
		}
	}
}
