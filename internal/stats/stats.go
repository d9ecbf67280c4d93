// Package stats collects the measurements the paper's figures plot:
// data+repair and NACK traffic per session member, bucketed into 0.1 s
// intervals (§6.2 measurement methodology). The ns-style packet trace
// is a telemetry exporter (telemetry.NewPacketTraceWriter).
package stats

import (
	"fmt"

	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// Series is a time series of per-bin values starting at time Start with
// fixed-width bins.
type Series struct {
	Start    float64
	BinWidth float64
	bins     []float64
}

// NewSeries creates an empty series.
func NewSeries(start, binWidth float64) *Series {
	if binWidth <= 0 {
		panic("stats: non-positive bin width")
	}
	return &Series{Start: start, BinWidth: binWidth}
}

// Add accumulates v into the bin containing time t. Times before Start
// are ignored.
func (s *Series) Add(t, v float64) {
	if t < s.Start {
		return
	}
	i := int((t - s.Start) / s.BinWidth)
	for len(s.bins) <= i {
		s.bins = append(s.bins, 0)
	}
	s.bins[i] += v
}

// Values returns a copy of all bins.
func (s *Series) Values() []float64 {
	return append([]float64(nil), s.bins...)
}

// Scaled returns a copy of the series with every bin multiplied by f.
func (s *Series) Scaled(f float64) *Series {
	out := NewSeries(s.Start, s.BinWidth)
	out.bins = make([]float64, len(s.bins))
	for i, v := range s.bins {
		out.bins[i] = v * f
	}
	return out
}

// Merge accumulates o into s bin-by-bin. The series must share their
// origin and bin width (they do by construction: per-shard collectors
// are built from one config). Bin values are integer packet counts, so
// float64 accumulation is exact and merge order cannot matter.
func (s *Series) Merge(o *Series) {
	if o == nil || len(o.bins) == 0 {
		return
	}
	if o.Start != s.Start || o.BinWidth != s.BinWidth {
		panic(fmt.Sprintf("stats: merging series with mismatched layout (%g/%g vs %g/%g)",
			o.Start, o.BinWidth, s.Start, s.BinWidth))
	}
	for len(s.bins) < len(o.bins) {
		s.bins = append(s.bins, 0)
	}
	for i, v := range o.bins {
		s.bins[i] += v
	}
}

// Sum returns the total over all bins.
func (s *Series) Sum() float64 {
	t := 0.0
	for _, v := range s.bins {
		t += v
	}
	return t
}

// Collector taps a network and aggregates the paper's measurements.
type Collector struct {
	source    topology.NodeID
	receivers int

	// Summed over all receivers (divide by receiver count for the
	// "average seen by each receiver" the figures plot).
	DataRepair *Series
	NACKs      *Series
	Session    *Series

	// As seen at the source (Figures 20–21).
	SourceDataRepair *Series
	SourceNACKs      *Series
}

// NewCollector builds a collector for a session with the given source
// and receiver count; bins are binWidth seconds wide starting at 0.
func NewCollector(source topology.NodeID, receivers int, binWidth float64) *Collector {
	return &Collector{
		source:           source,
		receivers:        receivers,
		DataRepair:       NewSeries(0, binWidth),
		NACKs:            NewSeries(0, binWidth),
		Session:          NewSeries(0, binWidth),
		SourceDataRepair: NewSeries(0, binWidth),
		SourceNACKs:      NewSeries(0, binWidth),
	}
}

// SendTap returns a netsim.SendTap that counts the source's own
// transmissions into the source-visible series: "traffic seen by the
// source" (Figures 20–21) includes the original transmissions.
func (c *Collector) SendTap() netsim.SendTap {
	return func(now eventq.Time, from topology.NodeID, _ scoping.ZoneID, pkt packet.Packet) {
		if from != c.source {
			return
		}
		t := now.Seconds()
		switch pkt.Kind() {
		case packet.TypeData, packet.TypeRepair:
			c.SourceDataRepair.Add(t, 1)
		case packet.TypeNACK:
			c.SourceNACKs.Add(t, 1)
		}
	}
}

// Tap returns the netsim.Tap that feeds this collector.
func (c *Collector) Tap() netsim.Tap {
	return func(now eventq.Time, at topology.NodeID, d netsim.Delivery) {
		t := now.Seconds()
		atSource := at == c.source
		switch d.Pkt.Kind() {
		case packet.TypeData, packet.TypeRepair:
			if atSource {
				c.SourceDataRepair.Add(t, 1)
			} else {
				c.DataRepair.Add(t, 1)
			}
		case packet.TypeNACK:
			if atSource {
				c.SourceNACKs.Add(t, 1)
			} else {
				c.NACKs.Add(t, 1)
			}
		case packet.TypeSession:
			c.Session.Add(t, 1)
		}
	}
}

// Merge folds another collector's measurements into c — the reduction
// step for zone-sharded runs, where each shard tallies its own nodes'
// deliveries and the shards' series are summed afterwards. All series
// hold integer counts, so the merged result is exact and independent
// of merge order.
func (c *Collector) Merge(o *Collector) {
	c.DataRepair.Merge(o.DataRepair)
	c.NACKs.Merge(o.NACKs)
	c.Session.Merge(o.Session)
	c.SourceDataRepair.Merge(o.SourceDataRepair)
	c.SourceNACKs.Merge(o.SourceNACKs)
}

// AvgDataRepair returns data+repair packets per receiver per bin — the
// quantity Figures 14, 16, 17 and 18 plot.
func (c *Collector) AvgDataRepair() *Series {
	return c.DataRepair.Scaled(1 / float64(c.receivers))
}

// AvgNACKs returns NACKs per receiver per bin (Figures 15 and 19).
func (c *Collector) AvgNACKs() *Series {
	return c.NACKs.Scaled(1 / float64(c.receivers))
}
