package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// testHierarchy builds root zone 0 holding nodes {0,1,2} with child
// zone 1 holding {1,2}.
func testHierarchy(t *testing.T) *scoping.Hierarchy {
	t.Helper()
	h, err := scoping.Build([]topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNilBusIsDisabled(t *testing.T) {
	var b *Bus
	if b.On() {
		t.Fatal("nil bus reports On")
	}
	b.Emit(Event{Kind: KindNACKSent}) // must not panic
	if b.Count() != 0 {
		t.Fatalf("nil bus count = %d", b.Count())
	}
	empty := NewBus()
	if empty.On() {
		t.Fatal("sink-less bus reports On")
	}
}

func TestBusFanout(t *testing.T) {
	b := NewBus()
	var got []Kind
	b.Attach(func(e Event) { got = append(got, e.Kind) })
	b.Attach(func(e Event) { got = append(got, e.Kind) })
	if !b.On() {
		t.Fatal("bus with sinks reports off")
	}
	b.Emit(Event{Kind: KindRepairSent})
	if len(got) != 2 || got[0] != KindRepairSent || got[1] != KindRepairSent {
		t.Fatalf("fanout got %v", got)
	}
	if b.Count() != 1 {
		t.Fatalf("count = %d, want 1", b.Count())
	}
}

// TestBusFillsACacheLine: a Bus is exactly one 64-byte line, so two
// shards' buses never share the line their Emit counts write.
func TestBusFillsACacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Bus{}); got != 64 {
		t.Fatalf("sizeof(Bus) = %d, want 64", got)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestRecorderRingAndFilter(t *testing.T) {
	r := NewRecorder(3, ControlPlaneOnly)
	sink := r.Sink()
	for i := 0; i < 5; i++ {
		sink(Event{Kind: KindNACKSent, Group: int64(i)})
	}
	sink(Event{Kind: KindPacketDelivered}) // filtered out
	if r.Len() != 3 {
		t.Fatalf("ring holds %d, want 3", r.Len())
	}
	evs := r.Events()
	for i, want := range []int64{2, 3, 4} {
		if evs[i].Group != want {
			t.Fatalf("ring order %v", evs)
		}
	}
	if lines := FormatEvents(evs); len(lines) != 3 {
		t.Fatalf("dump lines = %d", len(lines))
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestEventWriterStickyError(t *testing.T) {
	ew := NewEventWriter(&failAfter{n: 0})
	sink := ew.Sink()
	// Fill past bufio's buffer so the underlying writer is hit.
	for i := 0; i < 5000; i++ {
		sink(Event{T: 1, Kind: KindNACKSent, Node: 1, Zone: scoping.NoZone, Group: -1})
	}
	if err := ew.Flush(); err == nil {
		t.Fatal("Flush returned nil after write failure")
	}
	if ew.Err() == nil {
		t.Fatal("Err returned nil after write failure")
	}
	n := ew.Count()
	sink(Event{T: 2, Kind: KindNACKSent, Node: 1, Zone: scoping.NoZone, Group: -1})
	if ew.Count() != n {
		t.Fatal("writer kept counting after sticky error")
	}
}

func TestEventWriterLineShape(t *testing.T) {
	var buf bytes.Buffer
	ew := NewEventWriter(&buf)
	ew.Sink()(Event{T: 6.0123, Kind: KindNACKSent, Node: 14, Zone: 2, Group: 3, A: 1, B: 2, F: 0.01})
	ew.Sink()(Event{T: 1, Kind: KindRTTSample, Node: 0, Zone: scoping.NoZone, Group: -1, A: 5, F: 0.02})
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || ew.Count() != 2 {
		t.Fatalf("lines = %d, count = %d", len(lines), ew.Count())
	}
	var first struct {
		T     float64 `json:"t"`
		Ev    string  `json:"ev"`
		Node  int     `json:"node"`
		Zone  int     `json:"zone"`
		Group int     `json:"group"`
		A, B  int64
		F     float64
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v\n%s", err, lines[0])
	}
	if first.Ev != "nack_sent" || first.Node != 14 || first.Zone != 2 || first.Group != 3 {
		t.Fatalf("line 1 fields: %+v", first)
	}
	// Sentinel fields must be omitted.
	if strings.Contains(lines[1], "zone") || strings.Contains(lines[1], "group") {
		t.Fatalf("sentinels not omitted: %s", lines[1])
	}
}

// TestPacketTraceWriterFormat: the packet-trace renderer writes "+" for
// packet_sent and "r" (with the sender) for packet_delivered, as %.4f
// times and packet-type names, and skips every other kind.
func TestPacketTraceWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	ew := NewPacketTraceWriter(&buf)
	sink := ew.Sink()
	data := int64(packet.TypeData)
	sink(Event{T: 6, Kind: KindPacketSent, Node: 0, Zone: 0, Group: 0, A: data, B: 1000})
	sink(Event{T: 6.03114, Kind: KindNACKSent, Node: 14, Zone: 2, Group: 0})
	sink(Event{T: 6.03114, Kind: KindPacketLost, Node: 14, Zone: 0, Group: 0, A: data, B: 1000})
	sink(Event{T: 6.03114, Kind: KindPacketDelivered, Node: 14, Zone: 0, Group: 0, A: data, B: 1000, Origin: 0, Hops: 3})
	sink(Event{T: 7.5, Kind: KindPacketDelivered, Node: 3, Zone: 1, Group: -1, A: int64(packet.TypeSession), B: 64, Origin: 9, Hops: 1})
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+ 6.0000 n0 z0 DATA 1000\n" +
		"r 6.0311 n14 from=n0 z0 DATA 1000\n" +
		"r 7.5000 n3 from=n9 z1 SESSION 64\n"
	if got := buf.String(); got != want || ew.Count() != 3 {
		t.Fatalf("trace (%d lines counted):\n%swant:\n%s", ew.Count(), got, want)
	}
}

// TestEventWritersAllocateNothing: both renderers write a line without
// allocating once the writer exists.
func TestEventWritersAllocateNothing(t *testing.T) {
	e := Event{T: 6.0311, Kind: KindPacketDelivered, Node: 14, Zone: 0, Group: 3,
		A: int64(packet.TypeRepair), B: 1000, Origin: 2, Hops: 3}
	for name, ew := range map[string]*EventWriter{
		"jsonl":  NewEventWriter(io.Discard),
		"packet": NewPacketTraceWriter(io.Discard),
	} {
		sink := ew.Sink()
		if allocs := testing.AllocsPerRun(1000, func() { sink(e) }); allocs != 0 {
			t.Errorf("%s writer allocates %.1f per line", name, allocs)
		}
	}
}

// TestEventWriterTimeReuse: the JSONL writer renders a time only when
// its bits change, and every line equals the one a fresh
// AppendFloat(T, 'g', -1, 64) gives, across signed zeros, repeats,
// subnormals, large exponents, infinity and alternation.
func TestEventWriterTimeReuse(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	for name, ts := range map[string][]float64{
		"zero-first":    {0, 0, negZero, negZero, 0},
		"negzero-first": {negZero, 0, negZero},
		"repeats":       {1.5, 1.5, 1.5, 6.0311, 6.0311, 1.5},
		"subnormal":     {sub, sub, 2 * sub, sub, 0},
		"large":         {1e21, 1e21, 1e20, 1e21, 123456789012345678},
		"inf":           {math.Inf(1), math.Inf(1), 7, math.Inf(1)},
		"alternating":   {2, 3, 2, 3, 2, 3, 0.1, 0.2, 0.1},
	} {
		var buf bytes.Buffer
		ew := NewEventWriter(&buf)
		sink := ew.Sink()
		var want strings.Builder
		for _, ts := range ts {
			sink(Event{T: ts, Kind: KindNACKSent, Node: 1, Zone: scoping.NoZone, Group: -1})
			want.WriteString(`{"t":` + strconv.FormatFloat(ts, 'g', -1, 64) + `,"ev":"nack_sent","node":1}` + "\n")
		}
		if err := ew.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want.String() {
			t.Errorf("%s:\n%swant:\n%s", name, got, want.String())
		}
	}
}

// TestDumpKeepsEventsRendersOnRead: a dump on a full 512-event ring
// copies the ring (one allocation, plus the amortized list growth) and
// renders nothing; reading it gives Event.Format over the ring, oldest
// first.
func TestDumpKeepsEventsRendersOnRead(t *testing.T) {
	rec := NewRecorder(512, nil)
	sink := rec.Sink()
	for i := 0; i < 700; i++ {
		sink(Event{T: float64(i) / 8, Kind: KindNACKSent, Node: topology.NodeID(i % 7),
			Zone: scoping.ZoneID(i % 3), Group: int64(i), A: int64(i % 5), F: 0.25})
	}
	d := NewDumpTrigger(rec)
	if got := d.Snapshots(); got != nil {
		t.Fatalf("snapshots before any fire = %v, want nil", got)
	}
	if n := testing.AllocsPerRun(100, func() { d.Fire(99, "anomaly") }); n > 2 {
		t.Fatalf("a dump of a full ring allocates %.1f times, want <= 2", n)
	}
	evs := rec.Events()
	if len(evs) != 512 || evs[0].Group != 700-512 {
		t.Fatalf("ring holds %d events starting at group %d", len(evs), evs[0].Group)
	}
	want := make([]string, len(evs))
	for i, e := range evs {
		want[i] = e.Format()
	}
	dumps := RenderDumps(d.Snapshots())
	if len(dumps) != 101 {
		t.Fatalf("%d dumps, want 101", len(dumps))
	}
	for _, dump := range dumps {
		if dump.T != 99 || dump.Reason != "anomaly" || !slices.Equal(dump.Events, want) {
			t.Fatalf("dump at %v (%q) renders %d lines, not the ring's %d", dump.T, dump.Reason, len(dump.Events), len(want))
		}
	}
	if RenderDumps(nil) != nil || FormatEvents(nil) != nil {
		t.Fatal("rendering nothing is not nil")
	}
}

// TestPacketTraceWriterSurfacesWriteErrors: write failures must be
// visible through Err and Flush, and must stop further output instead
// of silently truncating the trace.
func TestPacketTraceWriterSurfacesWriteErrors(t *testing.T) {
	ew := NewPacketTraceWriter(&failAfter{n: 0})
	if err := ew.Err(); err != nil {
		t.Fatalf("error before any write: %v", err)
	}
	// One line stays inside bufio; Flush hits the writer.
	ew.Sink()(Event{Kind: KindPacketSent, A: int64(packet.TypeNACK), B: 40})
	if err := ew.Flush(); err == nil {
		t.Fatal("Flush swallowed the write error")
	}
	if ew.Err() == nil {
		t.Fatal("Err nil after failed flush")
	}
	if err := ew.Flush(); err == nil {
		t.Fatal("second Flush forgot the sticky error")
	}
}

func TestRegistryCountersAndMaxGauge(t *testing.T) {
	reg := NewRegistry()
	k := Key{Name: "x", Node: topology.NoNode, Zone: 1}
	reg.Counter(k).Add(3)
	reg.Counter(k).Inc() // same instrument
	reg.Counter(Key{Name: "x", Node: topology.NoNode, Zone: 2}).Inc()
	if got := reg.SumCounters("x"); got != 5 {
		t.Fatalf("SumCounters = %d, want 5", got)
	}
	for n, v := range map[topology.NodeID]float64{1: 0.1, 2: 0.4, 3: 0.2} {
		reg.Gauge(Key{Name: "loss", Node: n, Zone: scoping.NoZone}).Set(v)
	}
	kk, v, ok := reg.MaxGauge("loss")
	if !ok || v != 0.4 || kk.Node != 2 {
		t.Fatalf("MaxGauge = %v %v %v", kk, v, ok)
	}
	if _, _, ok := reg.MaxGauge("absent"); ok {
		t.Fatal("MaxGauge found a gauge that does not exist")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 2, 3} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5.55 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
	if m := h.Mean(); m < 1.38 || m > 1.39 {
		t.Fatalf("mean = %g", m)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Key{Name: "nacks_sent", Node: topology.NoNode, Zone: 1}).Add(7)
	reg.Gauge(Key{Name: "raw_loss_fraction", Node: 3, Zone: scoping.NoZone}).Set(0.25)
	reg.Histogram(Key{Name: "lat", Node: topology.NoNode, Zone: scoping.NoZone},
		[]float64{0.1}).Observe(0.05)
	reg.Counter(Key{Name: "delivered_pkts", Node: topology.NoNode, Zone: 0,
		Pkt: packet.TypeData}).Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheusMeta(&buf, map[string]string{"lat": "test latency"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sharqfec_nacks_sent_total counter\n",
		"# HELP sharqfec_lat test latency\n# TYPE sharqfec_lat histogram\n",
		`sharqfec_nacks_sent_total{zone="1"} 7`,
		`sharqfec_raw_loss_fraction{node="3"} 0.25`,
		`sharqfec_lat_bucket{le="0.1"} 1`,
		`sharqfec_lat_bucket{le="+Inf"} 1`,
		`sharqfec_lat_count 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `kind="DATA"`) && !strings.Contains(out, `kind=`) {
		t.Errorf("packet-kind label missing:\n%s", out)
	}
	snap := reg.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
}

func TestMetricsAttribution(t *testing.T) {
	h := testHierarchy(t)
	m := NewMetrics(nil, h, 3)
	bus := NewBus()
	bus.Attach(m.Sink())

	// Two repair deliveries in leaf zone 1, one at root.
	bus.Emit(Event{Kind: KindPacketDelivered, Zone: 1, A: int64(packet.TypeRepair), B: 100})
	bus.Emit(Event{Kind: KindPacketDelivered, Zone: 1, A: int64(packet.TypeRepair), B: 100})
	bus.Emit(Event{Kind: KindPacketDelivered, Zone: 0, A: int64(packet.TypeRepair), B: 100})
	local, global := m.RepairLocalization()
	if local != 2 || global != 1 {
		t.Fatalf("localization = %d local %d global", local, global)
	}

	// Suppression attributed to node 1's leaf zone; NACK to its scope.
	bus.Emit(Event{Kind: KindNACKSent, Node: 1, Zone: 1})
	bus.Emit(Event{Kind: KindNACKSuppressed, Node: 1, Zone: scoping.NoZone})
	bus.Emit(Event{Kind: KindNACKSuppressed, Node: 2, Zone: scoping.NoZone})
	if got := m.SuppressionRatio(); got < 0.66 || got > 0.67 {
		t.Fatalf("suppression ratio = %g", got)
	}

	// Out-of-range zones and nodes must be ignored, not panic.
	bus.Emit(Event{Kind: KindPacketDelivered, Zone: 99, A: 1, B: 1})
	bus.Emit(Event{Kind: KindGroupDecoded, Node: 99})
	bus.Emit(Event{Kind: KindFaultDrop, Node: topology.NoNode})
	s := NewSampler(m)
	s.Sample(1)
	if agg, _ := s.Last(); agg.NACKsSent != 1 || agg.FaultDrops != 1 {
		t.Fatalf("aggregate row: NACKsSent = %d, FaultDrops = %d, want 1 and 1", agg.NACKsSent, agg.FaultDrops)
	}
}

func TestSamplerAggregateRow(t *testing.T) {
	h := testHierarchy(t)
	m := NewMetrics(nil, h, 3)
	bus := NewBus()
	bus.Attach(m.Sink())
	bus.Emit(Event{Kind: KindNACKSent, Node: 1, Zone: 1})
	bus.Emit(Event{Kind: KindPacketDelivered, Zone: 1, A: int64(packet.TypeData), B: 1036})

	s := NewSampler(m)
	s.Sample(1)
	s.Sample(2)
	rows := s.Rows()
	if len(rows) != 2*(h.NumZones()+1) {
		t.Fatalf("rows = %d, want %d", len(rows), 2*(h.NumZones()+1))
	}
	agg, ok := s.Last()
	if !ok || agg.Zone != -1 || agg.T != 2 {
		t.Fatalf("Last = %+v ok=%v", agg, ok)
	}
	if agg.NACKsSent != 1 || agg.DataPkts != 1 || agg.Bytes != 1036 {
		t.Fatalf("aggregate row: %+v", agg)
	}

	var csv bytes.Buffer
	if err := WriteCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(rows) {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if got := strings.Count(lines[0], ",") + 1; got != strings.Count(lines[1], ",")+1 {
		t.Fatalf("header has %d columns, row has %d", got, strings.Count(lines[1], ",")+1)
	}
	var js bytes.Buffer
	if err := WriteJSON(&js, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []ZoneSample
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rows) {
		t.Fatalf("json rows = %d", len(decoded))
	}
}

// TestEmitNoAlloc pins the acceptance criterion: the delivery-path
// emission (build an Event, fan out to the metrics sink) allocates
// nothing, and the disabled path (nil bus) is free.
func TestEmitNoAlloc(t *testing.T) {
	h := testHierarchy(t)
	m := NewMetrics(nil, h, 3)
	bus := NewBus()
	bus.Attach(m.Sink())
	allocs := testing.AllocsPerRun(1000, func() {
		bus.Emit(Event{T: 1, Kind: KindPacketDelivered, Node: 1, Zone: 1,
			Group: -1, A: int64(packet.TypeData), B: 1036})
	})
	if allocs != 0 {
		t.Fatalf("enabled emit allocates %.1f/op", allocs)
	}
	var off *Bus
	allocs = testing.AllocsPerRun(1000, func() {
		if off.On() {
			off.Emit(Event{Kind: KindPacketDelivered})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled emit allocates %.1f/op", allocs)
	}
}

func BenchmarkEmitMetrics(b *testing.B) {
	h, err := scoping.Build([]topology.ZoneSpec{
		{ID: 0, Parent: -1, Leaves: []topology.NodeID{0}},
		{ID: 1, Parent: 0, Leaves: []topology.NodeID{1, 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	m := NewMetrics(nil, h, 3)
	bus := NewBus()
	bus.Attach(m.Sink())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(Event{T: 1, Kind: KindPacketDelivered, Node: 1, Zone: 1,
			Group: -1, A: int64(packet.TypeData), B: 1036})
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var bus *Bus
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bus.On() {
			bus.Emit(Event{Kind: KindPacketDelivered})
		}
	}
}

// TestZoneView: the view decodes what EmitZones writes: every zone's
// level and every member's leaf zone, with -1 and NoZone for ids the
// preamble never named, and it ignores negative ids and other kinds.
func TestZoneView(t *testing.T) {
	var v ZoneView
	bus := NewBus()
	bus.Attach(func(e Event) {
		if !v.Note(e) {
			t.Errorf("Note(%v) = false on a preamble event", e.Kind)
		}
	})
	EmitZones(bus, testHierarchy(t))
	if v.Level(0) != 0 || v.Level(1) != 1 {
		t.Errorf("levels = %d, %d; want 0, 1", v.Level(0), v.Level(1))
	}
	if v.LeafZone(0) != 0 || v.LeafZone(1) != 1 || v.LeafZone(2) != 1 {
		t.Errorf("leaf zones = %d, %d, %d; want 0, 1, 1", v.LeafZone(0), v.LeafZone(1), v.LeafZone(2))
	}
	if v.Level(2) != -1 || v.Level(99) != -1 || v.Level(scoping.NoZone) != -1 {
		t.Error("unknown zones must report level -1")
	}
	if v.LeafZone(3) != scoping.NoZone || v.LeafZone(99) != scoping.NoZone || v.LeafZone(topology.NoNode) != scoping.NoZone {
		t.Error("unknown nodes must report NoZone")
	}
	// Negative ids are preamble events all the same, and change nothing.
	if !v.Note(Event{Kind: KindZoneInfo, Zone: scoping.NoZone, B: 7}) ||
		!v.Note(Event{Kind: KindZoneMember, Node: topology.NoNode, Zone: 1}) {
		t.Error("Note refused a preamble event with a negative id")
	}
	if v.Note(Event{Kind: KindNACKSent, Node: 5, Zone: 1}) {
		t.Error("Note took a nack_sent event")
	}
	if v.LeafZone(topology.NoNode) != scoping.NoZone || v.LeafZone(5) != scoping.NoZone || v.Level(scoping.NoZone) != -1 {
		t.Error("a negative id or a non-preamble event changed the view")
	}
}
