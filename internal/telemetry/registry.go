package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// Key identifies one instrument in the registry: a metric name plus the
// (node, zone, packet kind) dimensions the SHARQFEC experiments slice
// by. Unused dimensions take their sentinels (NoNode, NoZone,
// packet.TypeInvalid), so the same name can exist at several
// granularities.
type Key struct {
	Name string
	Node topology.NodeID
	Zone scoping.ZoneID
	Pkt  packet.Type
}

func (k Key) labels() string {
	s := ""
	sep := ""
	if k.Node != topology.NoNode {
		s += fmt.Sprintf("%snode=%q", sep, strconv.Itoa(int(k.Node)))
		sep = ","
	}
	if k.Zone != scoping.NoZone {
		s += fmt.Sprintf("%szone=%q", sep, strconv.Itoa(int(k.Zone)))
		sep = ","
	}
	if k.Pkt != packet.TypeInvalid {
		s += fmt.Sprintf("%skind=%q", sep, k.Pkt.String())
	}
	if s == "" {
		return ""
	}
	return "{" + s + "}"
}

// Counter is a monotonically increasing integer, safe for concurrent
// update (the udpmesh runner drives one agent per goroutine).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a concurrently-settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates float64 observations into fixed buckets
// (cumulative counts are computed at export, Prometheus-style).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket implicit
	counts []atomic.Int64
	sum    Gauge // running sum (single-writer in the simulator; racy sums are tolerable on live endpoints)
	n      atomic.Int64
}

// NewHistogram returns a histogram with the given ascending upper
// bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.Set(h.sum.Value() + v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.n.Load(); n > 0 {
		return h.sum.Value() / float64(n)
	}
	return 0
}

// Registry holds instruments by Key. Lookups take a mutex; hot paths
// should cache the returned pointers (Metrics does) so steady-state
// updates are lock-free atomic adds.
type Registry struct {
	mu       sync.Mutex
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram

	// The unused cells of the newest counter and gauge blocks. A new
	// instrument is cut from them, so a registry of many instruments
	// allocates once per cellBlock of them; a block never moves, so a
	// returned pointer stays valid.
	counterCells []Counter
	gaugeCells   []Gauge
}

// cellBlock is the number of counters (or gauges) in one block.
const cellBlock = 64

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter),
		gauges:   make(map[Key]*Gauge),
		hists:    make(map[Key]*Histogram),
	}
}

// Reserve sizes the counter and gauge maps for that many instruments,
// so a caller that knows how many it will register grows neither map one
// key at a time. Only an empty map is sized: a map cannot grow in place,
// and copying one already in use would cost what the reservation saves.
func (r *Registry) Reserve(counters, gauges int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) == 0 {
		r.counters = make(map[Key]*Counter, counters)
	}
	if len(r.gauges) == 0 {
		r.gauges = make(map[Key]*Gauge, gauges)
	}
}

// Counter returns (creating if needed) the counter for k.
func (r *Registry) Counter(k Key) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[k]
	if c == nil {
		if len(r.counterCells) == 0 {
			r.counterCells = make([]Counter, cellBlock)
		}
		c, r.counterCells = &r.counterCells[0], r.counterCells[1:]
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for k.
func (r *Registry) Gauge(k Key) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[k]
	if g == nil {
		if len(r.gaugeCells) == 0 {
			r.gaugeCells = make([]Gauge, cellBlock)
		}
		g, r.gaugeCells = &r.gaugeCells[0], r.gaugeCells[1:]
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram for k, using
// bounds only on creation.
func (r *Registry) Histogram(k Key, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[k]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// SumCounters returns the sum of every counter named name, across all
// dimension values.
func (r *Registry) SumCounters(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t int64
	for k, c := range r.counters {
		if k.Name == name {
			t += c.Value()
		}
	}
	return t
}

// MaxGauge returns the maximum value among gauges named name and the
// key that holds it (ok=false when none exist).
func (r *Registry) MaxGauge(name string) (Key, float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var (
		best  Key
		bestV float64
		found bool
	)
	for k, g := range r.gauges {
		if k.Name != name {
			continue
		}
		v := g.Value()
		if !found || v > bestV || (v == bestV && keyLess(k, best)) {
			best, bestV, found = k, v, true
		}
	}
	return best, bestV, found
}

func (r *Registry) sortedCounterKeys() []Key {
	keys := make([]Key, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

func (r *Registry) sortedGaugeKeys() []Key {
	keys := make([]Key, 0, len(r.gauges))
	for k := range r.gauges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

func (r *Registry) sortedHistKeys() []Key {
	keys := make([]Key, 0, len(r.hists))
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

func keyLess(a, b Key) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Zone != b.Zone {
		return a.Zone < b.Zone
	}
	return a.Pkt < b.Pkt
}

// writeMeta emits the HELP/TYPE header the first time a family appears.
func writeMeta(w io.Writer, last *string, name, exposed, typ string, help map[string]string) error {
	if exposed == *last {
		return nil
	}
	*last = exposed
	if h, ok := help[name]; ok {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", exposed, h); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", exposed, typ)
	return err
}

// WritePrometheusMeta renders the registry in Prometheus text
// exposition format, keys sorted, every metric prefixed "sharqfec_",
// with a "# TYPE" line per metric family, plus a "# HELP" line for
// families present in help (keyed by the bare metric name, without
// prefix or _total suffix).
func (r *Registry) WritePrometheusMeta(w io.Writer, help map[string]string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := ""
	for _, k := range r.sortedCounterKeys() {
		if err := writeMeta(w, &last, k.Name, "sharqfec_"+k.Name+"_total", "counter", help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "sharqfec_%s_total%s %d\n", k.Name, k.labels(), r.counters[k].Value()); err != nil {
			return err
		}
	}
	for _, k := range r.sortedGaugeKeys() {
		if err := writeMeta(w, &last, k.Name, "sharqfec_"+k.Name, "gauge", help); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "sharqfec_%s%s %g\n", k.Name, k.labels(), r.gauges[k].Value()); err != nil {
			return err
		}
	}
	for _, k := range r.sortedHistKeys() {
		if err := writeMeta(w, &last, k.Name, "sharqfec_"+k.Name, "histogram", help); err != nil {
			return err
		}
		h := r.hists[k]
		cum := int64(0)
		for i, ub := range h.bounds {
			cum += h.counts[i].Load()
			lbl := k.labels()
			le := strconv.FormatFloat(ub, 'g', -1, 64)
			if lbl == "" {
				lbl = fmt.Sprintf("{le=%q}", le)
			} else {
				lbl = lbl[:len(lbl)-1] + fmt.Sprintf(",le=%q}", le)
			}
			if _, err := fmt.Fprintf(w, "sharqfec_%s_bucket%s %d\n", k.Name, lbl, cum); err != nil {
				return err
			}
		}
		lbl := k.labels()
		if lbl == "" {
			lbl = `{le="+Inf"}`
		} else {
			lbl = lbl[:len(lbl)-1] + `,le="+Inf"}`
		}
		if _, err := fmt.Fprintf(w, "sharqfec_%s_bucket%s %d\n", k.Name, lbl, h.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "sharqfec_%s_sum%s %g\n", k.Name, k.labels(), h.Sum()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "sharqfec_%s_count%s %d\n", k.Name, k.labels(), h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// PromHelp is the curated HELP text for the families a live node
// exposes, keyed by bare metric name (WritePrometheusMeta adds the
// prefix and counter suffix).
var PromHelp = map[string]string{
	"nacks_sent":           "NACK transmissions, by addressed scope zone",
	"nacks_suppressed":     "NACKs cancelled by suppression, by observer leaf zone",
	"repairs_sent":         "repair-share transmissions, by addressed scope zone",
	"repairs_injected":     "preemptively injected repair shares, by scope zone",
	"losses_detected":      "data packets declared lost, by observer leaf zone",
	"groups_decoded":       "FEC groups fully reconstructed, by observer leaf zone",
	"losses_unrecovered":   "losses never recovered by session end",
	"scope_escalations":    "NACK scope widenings, by observer leaf zone",
	"zcr_elections":        "ZCR belief changes, by zone",
	"delivered_pkts":       "packet deliveries, by scope zone and packet kind",
	"delivered_bytes":      "delivered wire bytes, by scope zone and packet kind",
	"sent_pkts":            "packet transmissions, by scope zone and packet kind",
	"loss_drops":           "loss-model packet drops",
	"tail_drops":           "transmit-queue overflow drops",
	"fault_drops":          "drops on administratively-down links",
	"fault_events":         "scripted fault activations",
	"decode_latency_s":     "FEC decode latency: first share seen to reconstruction",
	"rtt_sample_s":         "echo-based RTT samples",
	"pred_zlc":             "rate-control predicted zone loss count",
	"ctrl_h":               "rate-control decided per-group repair injection",
	"controller_decisions": "rate-control decisions, one per group completion per deciding agent",
	"health_alerts":        "SLO objectives entering violation (health engine)",
	"health_clears":        "SLO objectives leaving violation (health engine)",

	// Cost-census families (internal/telemetry/census). The boundary
	// packet counter splits into per-class families with a data / nack /
	// repair / fec / ctrl suffix.
	"census_boundary_pkts_data":   "data packets crossing the zone boundary (census)",
	"census_boundary_pkts_nack":   "NACKs crossing the zone boundary (census)",
	"census_boundary_pkts_repair": "repairs crossing the zone boundary (census)",
	"census_boundary_pkts_fec":    "preemptive FEC crossing the zone boundary (census)",
	"census_boundary_pkts_ctrl":   "control packets crossing the zone boundary (census)",
	"census_boundary_bytes":       "wire bytes crossing the zone boundary (census)",
	"census_fec_shares":           "preemptively injected shares, from repair_injected events (census)",
	"census_groups":               "FEC groups resident in the zone at the last epoch (census)",
	"census_timers":               "armed protocol timers in the zone at the last epoch (census)",
	"census_repair_queue":         "speculative repair backlog in the zone at the last epoch (census)",
	"census_resident_bytes":       "estimated resident protocol-state bytes in the zone (census)",
	"census_rtt_entries":          "session RTT entries maintained in the zone (census)",
	"census_mem_bytes":            "estimated memory footprint of the zone's probed members (census)",
	"census_bytes_per_rcvr":       "estimated memory footprint per probed member of the zone (census)",
}

// Snapshot returns every counter and gauge as an expvar-style flat map:
// "name{node=...,zone=...,kind=...}" → value. Histograms export their
// count, sum and mean.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+3*len(r.hists))
	for k, c := range r.counters {
		out[k.Name+k.labels()] = c.Value()
	}
	for k, g := range r.gauges {
		out[k.Name+k.labels()] = g.Value()
	}
	for k, h := range r.hists {
		out[k.Name+k.labels()+".count"] = h.Count()
		out[k.Name+k.labels()+".sum"] = h.Sum()
		out[k.Name+k.labels()+".mean"] = h.Mean()
	}
	return out
}
