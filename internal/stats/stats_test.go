package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

func TestSeriesBinning(t *testing.T) {
	s := NewSeries(0, 0.1)
	s.Add(0.05, 1)
	s.Add(0.09, 1)
	s.Add(0.10, 1)
	s.Add(0.55, 2)
	if got, want := s.Values(), []float64{2, 1, 0, 0, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("bins = %v, want %v", got, want)
	}
}

func TestSeriesIgnoresBeforeStart(t *testing.T) {
	s := NewSeries(5, 1)
	s.Add(4.9, 1)
	if len(s.Values()) != 0 {
		t.Fatal("pre-start sample recorded")
	}
	s.Add(5.0, 1)
	if got := s.Values(); !slices.Equal(got, []float64{1}) {
		t.Fatalf("at-start sample missed: bins = %v", got)
	}
}

func TestSeriesSumScaled(t *testing.T) {
	s := NewSeries(0, 1)
	s.Add(0.5, 3)
	s.Add(1.5, 7)
	s.Add(2.5, 5)
	if s.Sum() != 15 {
		t.Fatalf("sum = %v", s.Sum())
	}
	if got, want := s.Scaled(0.5).Values(), []float64{1.5, 3.5, 2.5}; !slices.Equal(got, want) {
		t.Fatalf("scaled bins = %v, want %v", got, want)
	}
	if got := s.Values(); !slices.Equal(got, []float64{3, 7, 5}) {
		t.Fatalf("Scaled mutated the original: bins = %v", got)
	}
}

func TestSeriesValuesCopy(t *testing.T) {
	s := NewSeries(0, 1)
	s.Add(0, 1)
	v := s.Values()
	v[0] = 99
	if s.Values()[0] != 1 {
		t.Fatal("Values returned a live reference")
	}
}

func TestNewSeriesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bin width accepted")
		}
	}()
	NewSeries(0, 0)
}

func TestCollectorRouting(t *testing.T) {
	c := NewCollector(0, 4, 0.1)
	tap := c.Tap()
	mk := func(at int, pkt packet.Packet, when float64) {
		tap(eventq.Time(when), topology.NodeID(at), fabric.Delivery{Pkt: pkt})
	}
	mk(1, &packet.Data{}, 0.05)
	mk(2, &packet.Repair{}, 0.05)
	mk(0, &packet.Data{}, 0.05) // at source
	mk(3, &packet.NACK{}, 0.15)
	mk(0, &packet.NACK{}, 0.15) // at source
	mk(1, &packet.Session{}, 0.25)

	if c.DataRepair.Sum() != 2 {
		t.Fatalf("receiver data+repair = %v", c.DataRepair.Sum())
	}
	if c.SourceDataRepair.Sum() != 1 {
		t.Fatalf("source data+repair = %v", c.SourceDataRepair.Sum())
	}
	if c.NACKs.Sum() != 1 || c.SourceNACKs.Sum() != 1 {
		t.Fatal("NACK routing wrong")
	}
	if c.Session.Sum() != 1 {
		t.Fatal("session routing wrong")
	}
	if got, want := c.AvgDataRepair().Values(), []float64{0.5}; !slices.Equal(got, want) {
		t.Fatalf("avg data+repair bins = %v, want %v", got, want)
	}
	if got, want := c.AvgNACKs().Values(), []float64{0, 0.25}; !slices.Equal(got, want) {
		t.Fatalf("avg NACK bins = %v, want %v", got, want)
	}
}

// TestSinkMatchesTap: the bus sink and the Tap adapter fill identical
// series from the same deliveries, and the sink adds the source's own
// data, repair and NACK transmissions, but no other node's and no
// session message, to the source-visible series.
func TestSinkMatchesTap(t *testing.T) {
	pkts := []packet.Packet{&packet.Data{}, &packet.Repair{}, &packet.NACK{}, &packet.Session{}, &packet.ZCRChallenge{}}
	viaTap, viaSink := NewCollector(0, 4, 0.1), NewCollector(0, 4, 0.1)
	tap, sink := viaTap.Tap(), viaSink.Sink()
	for i := range 200 {
		now, at, pkt := eventq.Time(0.013*float64(i)), topology.NodeID(i%3), pkts[i%len(pkts)]
		tap(now, at, fabric.Delivery{From: 1, Scope: 0, Pkt: pkt})
		sink(telemetry.Event{
			T: now.Seconds(), Kind: telemetry.KindPacketDelivered, Node: at, Zone: 0,
			Group: -1, A: int64(pkt.Kind()), B: int64(pkt.WireSize()), Origin: 1, Hops: 1,
		})
	}
	for _, s := range []struct {
		name     string
		tap, bus *Series
	}{
		{"DataRepair", viaTap.DataRepair, viaSink.DataRepair},
		{"NACKs", viaTap.NACKs, viaSink.NACKs},
		{"Session", viaTap.Session, viaSink.Session},
		{"SourceDataRepair", viaTap.SourceDataRepair, viaSink.SourceDataRepair},
		{"SourceNACKs", viaTap.SourceNACKs, viaSink.SourceNACKs},
	} {
		if s.bus.Sum() == 0 || !slices.Equal(s.tap.Values(), s.bus.Values()) {
			t.Errorf("%s: sink bins %v, tap bins %v", s.name, s.bus.Values(), s.tap.Values())
		}
	}

	sent := func(from topology.NodeID, pkt packet.Packet) {
		sink(telemetry.Event{
			T: 0.05, Kind: telemetry.KindPacketSent, Node: from, Zone: scoping.ZoneID(0),
			Group: -1, A: int64(pkt.Kind()), B: int64(pkt.WireSize()),
		})
	}
	c := NewCollector(0, 4, 0.1)
	sink = c.Sink()
	for _, pkt := range pkts {
		sent(0, pkt)
		sent(2, pkt)
	}
	if c.SourceDataRepair.Sum() != 2 || c.SourceNACKs.Sum() != 1 {
		t.Errorf("source sends: data+repair %v, NACKs %v; want 2 and 1",
			c.SourceDataRepair.Sum(), c.SourceNACKs.Sum())
	}
	if c.DataRepair.Sum()+c.NACKs.Sum()+c.Session.Sum() != 0 {
		t.Error("a transmission was counted as a delivery")
	}
}

// Property: for any sample set, Sum equals the sum of added values (for
// non-negative times).
func TestPropertySeriesSum(t *testing.T) {
	f := func(samples []float64) bool {
		s := NewSeries(0, 0.5)
		want := 0.0
		for i, v := range samples {
			tm := float64(i%100) * 0.3
			vv := math.Abs(v)
			if math.IsInf(vv, 0) || math.IsNaN(vv) || vv > 1e12 {
				continue
			}
			s.Add(tm, vv)
			want += vv
		}
		return math.Abs(s.Sum()-want) <= 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
