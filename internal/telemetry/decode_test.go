package telemetry

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// randomEvent draws an event over the writer's full representable range:
// every kind, sentinel and non-sentinel values for each omittable field,
// and Origin coupled to Hops the way emitters produce them.
func randomEvent(rng *rand.Rand) Event {
	e := Event{
		T:     float64(rng.Intn(100_000_000)) / 1e3, // [0, 1e5), 6 decimals exact
		Kind:  Kind(rng.Intn(int(numKinds))),
		Node:  topology.NodeID(rng.Intn(64) - 1), // includes NoNode
		Zone:  scoping.NoZone,
		Group: -1,
	}
	if rng.Intn(2) == 0 {
		e.Zone = scoping.ZoneID(rng.Intn(32))
	}
	if rng.Intn(2) == 0 {
		e.Group = int64(rng.Intn(256))
	}
	if rng.Intn(2) == 0 {
		e.Hops = int64(1 + rng.Intn(8))
		e.Origin = topology.NodeID(rng.Intn(64))
	}
	if rng.Intn(2) == 0 {
		e.A = int64(rng.Intn(1 << 20))
	}
	if rng.Intn(2) == 0 {
		e.B = int64(rng.Intn(64))
	}
	if rng.Intn(2) == 0 {
		e.F = float64(rng.Intn(1_000_000)) / 1e4
	}
	return e
}

// TestEventLineRoundTrip is the replay fidelity property: for random
// events, encode → ParseEventLine → re-encode reproduces the original
// JSONL bytes exactly, so offline span assembly sees what live assembly
// saw.
func TestEventLineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var first, second bytes.Buffer
	w1 := NewEventWriter(&first)
	sink1 := w1.Sink()

	events := make([]Event, 500)
	for i := range events {
		events[i] = randomEvent(rng)
		sink1(events[i])
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}

	w2 := NewEventWriter(&second)
	sink2 := w2.Sink()
	lines := bytes.Split(bytes.TrimSuffix(first.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(events) {
		t.Fatalf("wrote %d lines, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		e, err := ParseEventLine(line)
		if err != nil {
			t.Fatalf("line %d: %v (%s)", i, err, line)
		}
		if e.Kind != events[i].Kind || e.Node != events[i].Node {
			t.Fatalf("line %d decoded to kind=%v node=%v, want kind=%v node=%v",
				i, e.Kind, e.Node, events[i].Kind, events[i].Node)
		}
		sink2(e)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		a := bytes.Split(first.Bytes(), []byte("\n"))
		b := bytes.Split(second.Bytes(), []byte("\n"))
		for i := range a {
			if i >= len(b) || !bytes.Equal(a[i], b[i]) {
				t.Fatalf("re-encoded trace diverges at line %d:\n  first:  %s\n  second: %s", i, a[i], b[i])
			}
		}
		t.Fatal("re-encoded trace diverges")
	}
}

func TestParseEventLineRestoresSentinels(t *testing.T) {
	e, err := ParseEventLine([]byte(`{"t":1.5,"ev":"nack_sent","node":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Zone != scoping.NoZone || e.Group != -1 || e.Origin != topology.NoNode || e.Hops != 0 {
		t.Fatalf("sentinels not restored: %+v", e)
	}
	if e.T != 1.5 || e.Kind != KindNACKSent || e.Node != 3 {
		t.Fatalf("fields wrong: %+v", e)
	}
}

func TestParseEventLineErrors(t *testing.T) {
	for _, bad := range []string{
		`{"ev":"nack_sent","node":3}`,                                 // missing t
		`{"t":1,"node":3}`,                                            // missing ev
		`{"t":1,"ev":"nack_sent"}`,                                    // missing node
		`{"t":1,"ev":"warp_drive","node":3}`,                          // unknown kind
		`{"t":1,`,                                                     // malformed JSON
		`{"t":-1,"ev":"nack_sent","node":3}`,                          // time before the run
		`{"t":1e12,"ev":"nack_sent","node":3}`,                        // time past MaxTime
		`{"t":0,"ev":"zone_member","node":3000000000,"zone":0}`,       // node past MaxID
		`{"t":0,"ev":"zone_info","node":-1,"zone":3000000000,"a":-1}`, // zone past MaxID
		`{"t":0,"ev":"nack_sent","node":-2}`,                          // below the sentinel
		`{"t":0,"ev":"packet_delivered","node":1,"origin":4194304,"hops":1}`,
	} {
		if _, err := ParseEventLine([]byte(bad)); err == nil {
			t.Errorf("ParseEventLine(%s) accepted, want error", bad)
		}
	}
}

func TestKindByName(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Error("KindByName accepted an unknown name")
	}
}

// FuzzParseEventLine holds the decoder to two properties on arbitrary
// bytes: it never panics, and an accepted line reaches a fixed point
// after one EventWriter write and re-parse — writing the re-parsed
// event reproduces the written bytes.
func FuzzParseEventLine(f *testing.F) {
	for _, seed := range []string{
		`{"t":6.012300,"ev":"nack_sent","node":14,"zone":2,"group":3,"a":1,"b":2,"f":0.01}`,
		`{"t":0.000000,"ev":"zone_info","node":-1,"zone":0,"a":-1}`,
		`{"t":0.000000,"ev":"run_info","node":-1,"f":30}`,
		`{"t":7.5,"ev":"packet_delivered","node":9,"zone":1,"origin":0,"hops":3,"a":2}`,
		`{"t":1e9,"ev":"group_decoded","node":4194303,"group":-7,"hops":-1,"f":-0}`,
		`{"t":1e12,"ev":"nack_sent","node":1,"zone":0}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := ParseEventLine(line)
		if err != nil {
			return
		}
		first := writeLine(t, e)
		again, err := ParseEventLine(bytes.TrimSuffix(first, []byte("\n")))
		if err != nil {
			t.Fatalf("written line %q does not parse: %v", first, err)
		}
		if second := writeLine(t, again); !bytes.Equal(first, second) {
			t.Fatalf("no fixed point for %q:\n  first:  %s  second: %s", line, first, second)
		}
	})
}

// writeLine renders one event through EventWriter.
func writeLine(t *testing.T, e Event) []byte {
	var buf bytes.Buffer
	w := NewEventWriter(&buf)
	w.Sink()(e)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplay: one pass feeds every sink every event in order and
// returns the run's end — run_info's time, else the last event's, 0 for
// an empty trace — and a parse error names the line.
func TestReplay(t *testing.T) {
	for _, c := range []struct {
		name, trace string
		until       float64
		events      int
	}{
		{"run_info", `{"t":0.000000,"ev":"run_info","node":-1,"f":30}
{"t":2.500000,"ev":"nack_sent","node":1,"zone":0}
{"t":40.000000,"ev":"nack_sent","node":1,"zone":0}
`, 30, 3},
		{"last event", `{"t":0.000000,"ev":"zone_info","node":-1,"zone":0,"a":-1}

{"t":7.250000,"ev":"nack_sent","node":1,"zone":0}
{"t":3.000000,"ev":"nack_sent","node":1,"zone":0}
`, 7.25, 3},
		{"empty", "", 0, 0},
	} {
		var a, b []Event
		until, err := Replay(strings.NewReader(c.trace),
			func(e Event) { a = append(a, e) }, func(e Event) { b = append(b, e) })
		if err != nil || until != c.until {
			t.Errorf("%s: Replay = %g, %v; want %g, nil", c.name, until, err, c.until)
		}
		if len(a) != c.events || !slices.Equal(a, b) {
			t.Errorf("%s: sinks saw %d and %d events, want %d each, the same", c.name, len(a), len(b), c.events)
		}
	}
	_, err := Replay(strings.NewReader(`{"t":0.000000,"ev":"run_info","node":-1,"f":30}

not json
`))
	if err == nil || !strings.HasPrefix(err.Error(), "trace line 3:") {
		t.Errorf("garbage: error %v, want one naming trace line 3", err)
	}
}
