package spans

import (
	"bytes"
	"encoding/json"
	"testing"

	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// preamble feeds the assembler a three-level hierarchy: root z0 {1,2,3},
// child z1 (level 1), grandchild z2 (level 2) holding nodes 1 and 2.
func preamble(sink telemetry.Sink) {
	sink(telemetry.Event{Kind: telemetry.KindZoneInfo, Node: topology.NoNode, Zone: 0, Group: -1, A: -1, B: 0})
	sink(telemetry.Event{Kind: telemetry.KindZoneInfo, Node: topology.NoNode, Zone: 1, Group: -1, A: 0, B: 1})
	sink(telemetry.Event{Kind: telemetry.KindZoneInfo, Node: topology.NoNode, Zone: 2, Group: -1, A: 1, B: 2})
	for _, n := range []topology.NodeID{1, 2} {
		sink(telemetry.Event{Kind: telemetry.KindZoneMember, Node: n, Zone: 2, Group: -1})
	}
	sink(telemetry.Event{Kind: telemetry.KindZoneMember, Node: 3, Zone: 0, Group: -1})
}

func repairDelivered(t float64, node topology.NodeID, group int64, zone scoping.ZoneID,
	origin topology.NodeID, hops int64) telemetry.Event {
	return telemetry.Event{
		T: t, Kind: telemetry.KindPacketDelivered, Node: node, Zone: zone, Group: group,
		A: int64(packet.TypeRepair), Origin: origin, Hops: hops,
	}
}

// TestZoneViewFromPreamble: the assembler folds the preamble into its
// view and opens no span for it.
func TestZoneViewFromPreamble(t *testing.T) {
	a := NewAssembler()
	preamble(a.Sink())
	v := a.View()
	if v.Level(2) != 2 || v.LeafZone(1) != 2 || v.LeafZone(3) != 0 {
		t.Fatalf("view: level(2) = %d, leaf(1) = %d, leaf(3) = %d", v.Level(2), v.LeafZone(1), v.LeafZone(3))
	}
	if a.Open() != 0 || a.LossEvents() != 0 || len(a.Spans()) != 0 {
		t.Fatal("the preamble opened spans")
	}
}

// TestSpanARQ walks the full ARQ trajectory: loss → suppressed NACK with
// back-off → sent NACK → repair delivery → decode.
func TestSpanARQ(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)

	sink(telemetry.Event{T: 1.0, Kind: telemetry.KindLossDetected, Node: 1, Group: 0, A: 5})
	if a.Open() != 1 {
		t.Fatalf("Open = %d, want 1", a.Open())
	}
	sink(telemetry.Event{T: 1.1, Kind: telemetry.KindNACKSuppressed, Node: 1, Group: 0, B: 2})
	sink(telemetry.Event{T: 1.2, Kind: telemetry.KindNACKSent, Node: 1, Group: 0})
	sink(telemetry.Event{T: 1.3, Kind: telemetry.KindScopeEscalated, Node: 1, Group: 0})
	sink(repairDelivered(1.4, 1, 0, 2, 2, 3))
	sink(telemetry.Event{T: 1.5, Kind: telemetry.KindGroupDecoded, Node: 1, Group: 0})

	if a.Open() != 0 || a.LossEvents() != 1 {
		t.Fatalf("Open = %d, LossEvents = %d", a.Open(), a.LossEvents())
	}
	sps := a.Spans()
	if len(sps) != 1 {
		t.Fatalf("got %d spans", len(sps))
	}
	s := sps[0]
	if !s.Recovered || s.Mechanism != MechARQ {
		t.Fatalf("mechanism = %v (recovered %v), want arq", s.Mechanism, s.Recovered)
	}
	if s.Node != 1 || s.Group != 0 || s.Seq != 5 || s.Start != 1.0 || s.End != 1.5 {
		t.Fatalf("span identity wrong: %+v", s)
	}
	if s.Latency() != 0.5 {
		t.Fatalf("latency = %v, want 0.5", s.Latency())
	}
	if s.BlameZone != 2 || s.BlameLevel != 2 || s.Repairer != 2 || s.Hops != 3 {
		t.Fatalf("blame wrong: %+v", s)
	}
	if s.NACKsSent != 1 || s.NACKsSuppressed != 1 || s.MaxBackoff != 2 || s.Escalations != 1 || s.RepairsHeard != 1 {
		t.Fatalf("tallies wrong: %+v", s)
	}
}

// TestSpanPreemptiveFEC: a repair lands before the loss is even declared
// and no NACK ever goes out — the span must classify as preemptive FEC
// and still carry the repair's blame zone.
func TestSpanPreemptiveFEC(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)

	sink(repairDelivered(1.9, 1, 1, 1, 3, 2))
	sink(telemetry.Event{T: 2.0, Kind: telemetry.KindLossDetected, Node: 1, Group: 1, A: 17})
	sink(telemetry.Event{T: 2.3, Kind: telemetry.KindGroupDecoded, Node: 1, Group: 1})

	s := a.Spans()[0]
	if s.Mechanism != MechFEC {
		t.Fatalf("mechanism = %v, want preemptive-fec", s.Mechanism)
	}
	if s.BlameZone != 1 || s.BlameLevel != 1 || s.Repairer != 3 || s.Hops != 2 {
		t.Fatalf("blame wrong: %+v", s)
	}
}

// TestSpanCrossGroup: decode with zero repairs heard is a cross-group /
// late-data resolution and must carry no blame.
func TestSpanCrossGroup(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)

	sink(telemetry.Event{T: 3.0, Kind: telemetry.KindLossDetected, Node: 2, Group: 2, A: 33})
	sink(telemetry.Event{T: 3.4, Kind: telemetry.KindGroupDecoded, Node: 2, Group: 2})

	s := a.Spans()[0]
	if s.Mechanism != MechData {
		t.Fatalf("mechanism = %v, want cross-group", s.Mechanism)
	}
	if s.BlameZone != scoping.NoZone || s.BlameLevel != -1 || s.Repairer != topology.NoNode || s.Hops != 0 {
		t.Fatalf("cross-group span must carry no blame: %+v", s)
	}
}

// TestBlameDeepestZone: with repairs heard under both a level-1 and a
// level-2 scope, blame goes to the deepest (smallest) one regardless of
// arrival order.
func TestBlameDeepestZone(t *testing.T) {
	for _, deepFirst := range []bool{true, false} {
		a := NewAssembler()
		sink := a.Sink()
		preamble(sink)

		sink(telemetry.Event{T: 1.0, Kind: telemetry.KindLossDetected, Node: 1, Group: 0, A: 1})
		deep := repairDelivered(1.1, 1, 0, 2, 2, 1)
		wide := repairDelivered(1.2, 1, 0, 1, 3, 4)
		if deepFirst {
			sink(deep)
			sink(wide)
		} else {
			sink(wide)
			sink(deep)
		}
		sink(telemetry.Event{T: 1.5, Kind: telemetry.KindGroupDecoded, Node: 1, Group: 0})

		s := a.Spans()[0]
		if s.BlameZone != 2 || s.BlameLevel != 2 || s.Repairer != 2 {
			t.Fatalf("deepFirst=%v: blame = z%d/l%d via n%d, want z2/l2 via n2",
				deepFirst, s.BlameZone, s.BlameLevel, s.Repairer)
		}
		if s.RepairsHeard != 2 {
			t.Fatalf("repairs heard = %d, want 2", s.RepairsHeard)
		}
	}
}

// TestMootLossAfterDecode: a loss declared after its group already
// decoded closes instantly as a recovered late-data span.
func TestMootLossAfterDecode(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)

	sink(telemetry.Event{T: 4.0, Kind: telemetry.KindGroupDecoded, Node: 1, Group: 7})
	sink(telemetry.Event{T: 4.2, Kind: telemetry.KindLossDetected, Node: 1, Group: 7, A: 112})

	if a.Open() != 0 {
		t.Fatalf("Open = %d, want 0", a.Open())
	}
	s := a.Spans()[0]
	if !s.Recovered || !s.LateData || s.Latency() != 0 {
		t.Fatalf("moot loss span = %+v, want instant recovered late-data", s)
	}
}

// TestUnrecoveredTerminal: the explicit session-end marker closes the
// span unrecovered; a duplicate marker (crashed agent + restarted agent)
// is a no-op.
func TestUnrecoveredTerminal(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)

	sink(telemetry.Event{T: 5.0, Kind: telemetry.KindLossDetected, Node: 2, Group: 3, A: 50})
	term := telemetry.Event{T: 9.0, Kind: telemetry.KindLossUnrecovered, Node: 2, Group: 3, A: 50, B: 1}
	sink(term)
	sink(term) // duplicate: idempotent

	if a.Open() != 0 {
		t.Fatalf("Open = %d, want 0", a.Open())
	}
	sps := a.Spans()
	if len(sps) != 1 {
		t.Fatalf("got %d spans, want 1", len(sps))
	}
	s := sps[0]
	if s.Recovered || !s.LateData || s.Mechanism != MechNone || s.End != 9.0 {
		t.Fatalf("unrecovered span = %+v", s)
	}
	// A terminal for a (node, group) never seen at all is also a no-op.
	sink(telemetry.Event{T: 9.0, Kind: telemetry.KindLossUnrecovered, Node: 3, Group: 99, A: 7})
	if len(a.Spans()) != 1 {
		t.Fatal("orphan terminal created a span")
	}
}

// TestDuplicateLossFolds: re-detection of the same (node, group, seq) —
// the agent-restart case — folds into the existing span.
func TestDuplicateLossFolds(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)

	sink(telemetry.Event{T: 1.0, Kind: telemetry.KindLossDetected, Node: 1, Group: 0, A: 5})
	sink(telemetry.Event{T: 1.4, Kind: telemetry.KindLossDetected, Node: 1, Group: 0, A: 5})
	if a.LossEvents() != 2 || a.Open() != 1 {
		t.Fatalf("LossEvents = %d, Open = %d, want 2, 1", a.LossEvents(), a.Open())
	}
	sink(telemetry.Event{T: 2.0, Kind: telemetry.KindGroupDecoded, Node: 1, Group: 0})
	sps := a.Spans()
	if len(sps) != 1 || sps[0].DupLoss != 1 || sps[0].Start != 1.0 {
		t.Fatalf("spans = %+v, want one span from t=1.0 with DupLoss=1", sps)
	}
}

// TestCatchUpNACKsIgnored: NACK/suppression traffic for a (node, group)
// with no tracked state — a late joiner's catch-up requests — must not
// allocate state or leak into later spans.
func TestCatchUpNACKsIgnored(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)

	sink(telemetry.Event{T: 0.5, Kind: telemetry.KindNACKSent, Node: 1, Group: 9})
	sink(telemetry.Event{T: 0.6, Kind: telemetry.KindNACKSuppressed, Node: 1, Group: 9, B: 4})
	if len(a.groups) != 0 {
		t.Fatalf("catch-up NACKs allocated %d group states", len(a.groups))
	}
	// Data-packet deliveries are ignored outright.
	sink(telemetry.Event{T: 0.7, Kind: telemetry.KindPacketDelivered, Node: 1, Group: 9,
		A: int64(packet.TypeData), Origin: 0, Hops: 2})
	if len(a.groups) != 0 {
		t.Fatal("data delivery allocated group state")
	}
}

// TestSinkSteadyStateAllocs: on the hot path — data deliveries and
// events against already-tracked groups — the assembler must not
// allocate at all.
func TestSinkSteadyStateAllocs(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)
	sink(telemetry.Event{T: 1.0, Kind: telemetry.KindLossDetected, Node: 1, Group: 0, A: 5})
	sink(repairDelivered(1.1, 1, 0, 2, 2, 1))

	data := telemetry.Event{T: 2, Kind: telemetry.KindPacketDelivered, Node: 1, Group: 0,
		A: int64(packet.TypeData), Origin: 0, Hops: 2}
	repair := repairDelivered(2.1, 1, 0, 2, 2, 1)
	nack := telemetry.Event{T: 2.2, Kind: telemetry.KindNACKSent, Node: 1, Group: 0}
	supp := telemetry.Event{T: 2.3, Kind: telemetry.KindNACKSuppressed, Node: 1, Group: 0, B: 1}
	if n := testing.AllocsPerRun(200, func() {
		sink(data)
		sink(repair)
		sink(nack)
		sink(supp)
	}); n != 0 {
		t.Fatalf("steady-state sink allocates %.1f per 4 events, want 0", n)
	}

	// A loss → decode cycle on a fresh group: four losses open and four
	// spans close with no allocation of their own. Only the group's map
	// entry and, now and then, a new block of group states or spans
	// allocate, under one per cycle on average, which AllocsPerRun's
	// whole-number average reads as 0.
	g := int64(100)
	if n := testing.AllocsPerRun(1000, func() {
		g++
		for seq := int64(0); seq < 4; seq++ {
			sink(telemetry.Event{T: 3, Kind: telemetry.KindLossDetected, Node: 2, Group: g, A: g*16 + seq})
		}
		sink(telemetry.Event{T: 3.5, Kind: telemetry.KindGroupDecoded, Node: 2, Group: g})
	}); n != 0 {
		t.Fatalf("a 4-loss cycle on a fresh group allocates %.0f times, want 0 amortized", n)
	}
	if a.Open() != 1 || len(a.Spans()) != 4*1001 {
		t.Fatalf("open %d, closed %d after the cycles", a.Open(), len(a.Spans()))
	}
}

// TestPerfettoShape: the exporter emits valid Chrome trace-event JSON
// with one complete slice per span and metadata naming each track.
func TestPerfettoShape(t *testing.T) {
	a := NewAssembler()
	sink := a.Sink()
	preamble(sink)
	sink(telemetry.Event{T: 1.0, Kind: telemetry.KindLossDetected, Node: 1, Group: 0, A: 5})
	sink(repairDelivered(1.4, 1, 0, 2, 2, 3))
	sink(telemetry.Event{T: 1.5, Kind: telemetry.KindGroupDecoded, Node: 1, Group: 0})
	sink(telemetry.Event{T: 5.0, Kind: telemetry.KindLossDetected, Node: 3, Group: 1, A: 20})
	sink(telemetry.Event{T: 9.0, Kind: telemetry.KindLossUnrecovered, Node: 3, Group: 1, A: 20})

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, a.Spans(), a.View(), nil); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int64          `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	slices, meta := 0, 0
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur == nil {
				t.Fatalf("slice %q has no dur", ev.Name)
			}
			if ev.Args["mechanism"] == nil {
				t.Fatalf("slice %q missing mechanism arg", ev.Name)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if slices != 2 {
		t.Fatalf("got %d slices, want 2", slices)
	}
	if meta == 0 {
		t.Fatal("no track-naming metadata events")
	}
	// The ARQ slice: ts in microseconds from a 1.0 s start, 0.5 s long.
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Ts == 1.0*1e6 {
			if *ev.Dur != 0.5*1e6 {
				t.Fatalf("dur = %v µs, want 5e5", *ev.Dur)
			}
			if ev.Pid != 2+1 || ev.Tid != 1 {
				t.Fatalf("slice track = pid %d tid %d, want pid 3 (zone 2) tid 1", ev.Pid, ev.Tid)
			}
		}
	}
}

// TestReplayMatchesLive: the same event sequence fed live and through
// the JSONL encode/decode path must produce identical span sets.
func TestReplayMatchesLive(t *testing.T) {
	events := []telemetry.Event{
		{Kind: telemetry.KindZoneInfo, Node: topology.NoNode, Zone: 0, Group: -1, A: -1, B: 0},
		{Kind: telemetry.KindZoneInfo, Node: topology.NoNode, Zone: 1, Group: -1, A: 0, B: 1},
		{Kind: telemetry.KindZoneMember, Node: 1, Zone: 1, Group: -1},
		{T: 1.0, Kind: telemetry.KindLossDetected, Node: 1, Group: 0, A: 5},
		{T: 1.25, Kind: telemetry.KindNACKSent, Node: 1, Group: 0},
		repairDelivered(1.5, 1, 0, 1, 0, 2),
		{T: 1.75, Kind: telemetry.KindGroupDecoded, Node: 1, Group: 0},
		{T: 2.0, Kind: telemetry.KindLossDetected, Node: 1, Group: 1, A: 21},
		{T: 8.0, Kind: telemetry.KindLossUnrecovered, Node: 1, Group: 1, A: 21},
	}
	live := NewAssembler()
	var buf bytes.Buffer
	w := telemetry.NewEventWriter(&buf)
	for _, e := range events {
		live.Sink()(e)
		w.Sink()(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed := NewAssembler()
	if _, err := telemetry.Replay(&buf, replayed.Sink()); err != nil {
		t.Fatal(err)
	}
	a, b := live.Spans(), replayed.Spans()
	if len(a) != len(b) {
		t.Fatalf("live %d spans, replay %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d diverges:\n live:   %+v\n replay: %+v", i, a[i], b[i])
		}
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := telemetry.Replay(bytes.NewReader([]byte("not json\n")), NewAssembler().Sink()); err == nil {
		t.Fatal("Replay accepted garbage")
	}
}

func TestMechanismString(t *testing.T) {
	want := map[Mechanism]string{MechNone: "none", MechARQ: "arq", MechFEC: "preemptive-fec", MechData: "cross-group"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if Mechanism(9).String() != "mechanism(9)" {
		t.Error("out-of-range mechanism string")
	}
}
