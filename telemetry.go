package sharqfec

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"sharqfec/internal/analysis"
	"sharqfec/internal/eventq"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/telemetry/health"
	"sharqfec/internal/telemetry/spans"
	"sharqfec/internal/topology"
)

// SLOSpec is a parsed set of health objectives (see ParseSLOSpec).
// Wrapping the internal spec keeps the health package's types out of
// the public config surface.
type SLOSpec struct {
	spec *health.Spec
}

// ParseSLOSpec reads an SLO file: one objective per line in the form
//
//	<metric> [pNN] <= | >= <value> [window=W] [fast=F] [min=N]
//
// with metrics recovery_latency, suppression_ratio, repair_locality and
// budget_burn, plus an optional "interval <seconds>" directive setting
// the evaluation tick. '#' starts a comment.
func ParseSLOSpec(r io.Reader) (*SLOSpec, error) {
	spec, err := health.ParseSpec(r)
	if err != nil {
		return nil, err
	}
	return &SLOSpec{spec: spec}, nil
}

// String renders the spec's objectives in canonical form, one per line.
func (s *SLOSpec) String() string { return s.spec.String() }

// TelemetryConfig turns on the observability layer for a run. A nil
// *TelemetryConfig disables telemetry entirely: no bus is created, no
// snapshot events are scheduled, and the run is byte-identical to one
// on a build without the layer. A non-nil config always builds the
// metrics registry and per-zone time series; the two text traces and
// the flight recorder are opt-in on top.
type TelemetryConfig struct {
	// Events, when non-nil, receives a JSONL trace of every protocol
	// event (one object per line).
	Events io.Writer
	// PacketTrace, when non-nil, receives an ns-style packet trace of
	// the whole run: one "+" line per transmission and one "r" line per
	// delivery (see telemetry.NewPacketTraceWriter).
	PacketTrace io.Writer
	// MetricsInterval is the virtual-clock spacing of time-series
	// snapshots in seconds: 0 means the default, 1.0; any other value
	// must be at least health.MinInterval (1 ms), the floor SLO
	// evaluation ticks use. A final snapshot is always taken at the end
	// of the run.
	MetricsInterval float64
	// FlightRecorder, when > 0, keeps a ring of the last N
	// control-plane events for post-mortem dumps. Values are clamped to
	// [MinFlightRecorder, MaxFlightRecorder].
	FlightRecorder int
	// Spans enables causal recovery tracing: every loss_detected event
	// is stitched into a span ending at the group's decode (or an
	// explicit loss_unrecovered marker), tagged with the resolving
	// mechanism, blame zone, requester→repairer hop distance and
	// end-to-end latency. The spans surface through Spans,
	// RecoveryReport (per-zone / per-level latency percentiles) and
	// WritePerfetto. Like the rest of the layer it is strictly passive.
	Spans bool
	// Census arms the cost-accounting engine: per-link and
	// per-zone-boundary traffic matrices by packet class, a per-node /
	// per-zone protocol-state census sampled on the metrics epochs, and
	// the event queue's shape at each epoch. Results surface as extra
	// columns in the metrics CSV/JSON, census_* registry families,
	// Perfetto counter tracks beside the recovery spans, and the
	// report's CensusSummary and CensusEpochs. Strictly passive, like
	// the rest of the layer.
	Census bool
	// SLO, when non-nil, attaches the streaming health engine: the
	// objectives are evaluated on the virtual clock as the run executes,
	// and violations come back onto the bus as health_alert /
	// health_clear events — visible in the trace, the flight recorder,
	// open recovery spans, and the metrics registry. The engine is a
	// pure sink plus its own alert emissions; it feeds nothing into the
	// protocol, so a given seed's protocol execution is identical with
	// or without it.
	SLO *SLOSpec
}

// validate rejects configurations that would otherwise fail silently
// or flood the run. Every snapshot is registered before the run starts,
// so a MetricsInterval other than 0 (the default) must be finite and at
// least health.MinInterval: NaN or Inf would give an unbounded or empty
// schedule, and a nanosecond interval billions of tasks up front.
func (cfg *TelemetryConfig) validate() error {
	if cfg == nil {
		return nil
	}
	if iv := cfg.MetricsInterval; iv != 0 && !(isFinite64(iv) && iv >= health.MinInterval) {
		return fmt.Errorf("sharqfec: TelemetryConfig.MetricsInterval = %v; want 0 (default 1 s) or a finite interval >= %v s", iv, health.MinInterval)
	}
	// SLO specs built programmatically (not through ParseSLOSpec) get
	// the same bounds checks the parser applies — a NaN objective or
	// window would otherwise judge nothing, silently.
	if cfg.SLO != nil && cfg.SLO.spec != nil {
		if err := cfg.SLO.spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Flight-recorder ring bounds: below MinFlightRecorder a dump carries
// too little history to explain an anomaly; above MaxFlightRecorder the
// preallocated ring stops being "cheap to always keep on".
const (
	MinFlightRecorder = 16
	MaxFlightRecorder = 1 << 16
)

// clampFlightRecorder applies the documented floor and cap (0 and
// negative values mean "off" and pass through).
func clampFlightRecorder(n int) int {
	if n <= 0 {
		return n
	}
	if n < MinFlightRecorder {
		return MinFlightRecorder
	}
	if n > MaxFlightRecorder {
		return MaxFlightRecorder
	}
	return n
}

// TelemetryReport is what a telemetry-enabled run hands back: end-of-run
// totals derived from the metrics registry plus the sampled per-zone
// time series.
type TelemetryReport struct {
	// EventsEmitted counts every event the bus fanned out;
	// EventsWritten counts JSONL lines successfully written (0 when no
	// Events writer was configured).
	EventsEmitted, EventsWritten uint64
	// SuppressionRatio is suppressed/(suppressed+sent) NACKs over the
	// whole session.
	SuppressionRatio float64
	// LocalRepairFrac is the fraction of repair deliveries under a
	// non-root scope.
	LocalRepairFrac float64
	// ControllerDecisions counts rate-control decisions (one per group
	// completion per deciding agent); ControllerMaxH is the largest
	// per-group repair injection any decision owed — the witness the
	// adaptive policy's budget compliance is checked against.
	ControllerDecisions int64
	ControllerMaxH      int64

	rows         []telemetry.ZoneSample
	flight       []telemetry.Event
	asm          *spans.Assembler
	health       *health.Report
	dumps        []telemetry.Snapshot
	censusSum    *census.Summary
	censusEpochs []census.EpochRow
}

// CensusSummary returns the run-level cost-census digest (nil when
// TelemetryConfig.Census was off). Safe on a nil report.
func (r *TelemetryReport) CensusSummary() *census.Summary {
	if r == nil {
		return nil
	}
	return r.censusSum
}

// CensusEpochs returns the census epoch history — one row per metrics
// snapshot with per-zone state and the event queue's shape (nil when the
// census was off). Safe on a nil report.
func (r *TelemetryReport) CensusEpochs() []census.EpochRow {
	if r == nil {
		return nil
	}
	return r.censusEpochs
}

// HealthReport returns the per-zone SLO verdicts (nil when the run had
// no TelemetryConfig.SLO). Safe on a nil report.
func (r *TelemetryReport) HealthReport() *health.Report {
	if r == nil {
		return nil
	}
	return r.health
}

// TriggeredDumps renders every alert- or anomaly-triggered flight
// recorder snapshot, oldest first (nil when no recorder was configured
// or nothing fired). Safe on a nil report.
func (r *TelemetryReport) TriggeredDumps() []telemetry.TriggeredDump {
	if r == nil {
		return nil
	}
	return telemetry.RenderDumps(r.dumps)
}

// NumSamples returns how many time-series snapshots were taken.
func (r *TelemetryReport) NumSamples() int {
	n := 0
	for _, row := range r.rows {
		if row.Zone == -1 {
			n++
		}
	}
	return n
}

// WriteMetricsCSV renders the per-zone time series as CSV (one row per
// zone per snapshot, plus a Zone=-1 aggregate row per snapshot).
func (r *TelemetryReport) WriteMetricsCSV(w io.Writer) error {
	return telemetry.WriteCSV(w, r.rows)
}

// WriteMetricsJSON renders the same series as a JSON array.
func (r *TelemetryReport) WriteMetricsJSON(w io.Writer) error {
	return telemetry.WriteJSON(w, r.rows)
}

// FlightRecord renders the recorded control-plane tail, one
// Event.Format line per event (nil when the flight recorder was off).
func (r *TelemetryReport) FlightRecord() []string { return telemetry.FormatEvents(r.flight) }

// Spans returns every closed recovery span in canonical order (nil
// unless TelemetryConfig.Spans was set).
func (r *TelemetryReport) Spans() []spans.Span {
	if r.asm == nil {
		return nil
	}
	return r.asm.Spans()
}

// OpenSpans returns how many recovery spans never saw a terminal event
// (0 on a well-accounted run: every loss decodes or is explicitly
// marked unrecovered at session end).
func (r *TelemetryReport) OpenSpans() int {
	if r.asm == nil {
		return 0
	}
	return r.asm.Open()
}

// RecoveryReport aggregates the spans into per-zone / per-level
// recovery-latency percentiles (nil when span tracing was off).
func (r *TelemetryReport) RecoveryReport() *analysis.RecoveryReport {
	if r.asm == nil {
		return nil
	}
	return analysis.BuildRecoveryReport(r.asm)
}

// WritePerfetto renders the recovery spans as Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing. When the census was armed,
// its epoch history rides along as counter tracks (per-zone protocol
// state and the scheduler series) next to the span slices.
func (r *TelemetryReport) WritePerfetto(w io.Writer) error {
	if r.asm == nil {
		return fmt.Errorf("sharqfec: span tracing was not enabled")
	}
	return spans.WritePerfetto(w, r.asm.Spans(), r.asm.View(), censusCounters(r.censusEpochs))
}

// censusCounters flattens census epochs into Perfetto counter samples:
// one per-zone "census state" track (zones that ever held state) and a
// global "census eventq" track.
func censusCounters(epochs []census.EpochRow) []spans.CounterSample {
	if len(epochs) == 0 {
		return nil
	}
	// Emit only zones that ever report state, so idle interior zones do
	// not add empty tracks.
	live := map[scoping.ZoneID]bool{}
	for _, ep := range epochs {
		for _, zs := range ep.Zones {
			if zs.Groups != 0 || zs.Timers != 0 || zs.RepairQueue != 0 ||
				zs.ResidentBytes != 0 || zs.RTTEntries != 0 {
				live[zs.Zone] = true
			}
		}
	}
	var out []spans.CounterSample
	for _, ep := range epochs {
		for _, zs := range ep.Zones {
			if !live[zs.Zone] {
				continue
			}
			out = append(out, spans.CounterSample{
				Name: "census state", Zone: zs.Zone, T: ep.T,
				Values: map[string]float64{
					"groups":       float64(zs.Groups),
					"timers":       float64(zs.Timers),
					"repair_queue": float64(zs.RepairQueue),
					"resident_kb":  float64(zs.ResidentBytes) / 1024,
					"rtt_entries":  float64(zs.RTTEntries),
					"mem_kb":       float64(zs.MemBytes) / 1024,
					"b_per_rcvr":   zs.BytesPerReceiver(),
				},
			})
		}
		out = append(out, spans.CounterSample{
			Name: "census eventq", Zone: scoping.NoZone, T: ep.T,
			Values: map[string]float64{
				"depth":     float64(ep.Queue.Depth),
				"free":      float64(ep.Queue.Free),
				"fire_rate": ep.Queue.FireRate,
			},
		})
	}
	return out
}

// telemetryRun holds the sinks consuming a run's bus (dataRun.bus).
type telemetryRun struct {
	metrics *telemetry.Metrics
	sampler *telemetry.Sampler
	events  *telemetry.EventWriter
	packets *telemetry.EventWriter
	rec     *telemetry.Recorder
	spans   *spans.Assembler
	health  *health.Engine
	trigger *telemetry.DumpTrigger
}

// snapshot takes one epoch sample: the census first (it refreshes the
// registry gauges), then the time-series sampler, so the sampled rows
// carry fresh census columns.
func (r *dataRun) snapshot(at float64) {
	if r.census != nil {
		r.census.Snapshot(at)
	}
	r.tel.sampler.Sample(at)
}

// startTelemetry builds the run's bus, its sinks, the census when cfg
// arms it, and the snapshot schedule. Runs without a TelemetryConfig
// never call it, so they stay byte-identical. Snapshot events only
// read atomic counters, so inserting them cannot perturb
// protocol-event ordering.
func (r *dataRun) startTelemetry(cfg *TelemetryConfig, until float64) {
	h, numNodes := r.h, r.spec.Graph.NumNodes()
	r.bufferShards()
	t := &telemetryRun{metrics: telemetry.NewMetrics(nil, h, numNodes)}
	r.tel = t
	r.bus.Attach(t.metrics.Sink())
	t.sampler = telemetry.NewSampler(t.metrics)
	if cfg.Census {
		r.census = census.New(t.metrics.Reg, h, numNodes)
		r.census.BindQueue(r.grp.Queues()...)
		r.bus.Attach(r.census.Sink())
		t.sampler.Census = r.census
	}
	if cfg.Spans {
		t.spans = spans.NewAssembler()
		r.bus.Attach(t.spans.Sink())
	}
	if cfg.Events != nil {
		t.events = telemetry.NewEventWriter(cfg.Events)
		r.bus.Attach(t.events.Sink())
	}
	if cfg.PacketTrace != nil {
		t.packets = telemetry.NewPacketTraceWriter(cfg.PacketTrace)
		r.bus.Attach(t.packets.Sink())
	}
	if rec := clampFlightRecorder(cfg.FlightRecorder); rec > 0 {
		t.rec = telemetry.NewRecorder(rec, telemetry.ControlPlaneOnly)
		r.bus.Attach(t.rec.Sink())
	}
	if cfg.SLO != nil {
		// The engine attaches after the recorder so its alert emissions
		// (which fan out reentrantly) land in the ring before the dump
		// trigger below fires — a dump always shows the alert that
		// caused it.
		t.health = health.NewEngine(cfg.SLO.spec, r.bus)
		r.bus.Attach(t.health.Sink())
	}
	if t.rec != nil {
		// One bus-driven forensic path for every run with a recorder:
		// alert-triggered snapshots here, end-of-run anomaly snapshots
		// via trigger.Fire (RunChaos).
		t.trigger = telemetry.NewDumpTrigger(t.rec)
		r.bus.Attach(t.trigger.Sink())
	}
	// Self-describing preamble at T = 0: the run descriptor, then the
	// zone hierarchy rendered as events, so an exported JSONL trace
	// replays offline with identical blame attribution and identical
	// health verdicts (cmd/sharqfec-trace needs no topology input).
	r.bus.Emit(telemetry.Event{
		Kind: telemetry.KindRunInfo, Node: topology.NoNode, Zone: scoping.NoZone,
		Group: -1, F: until,
	})
	telemetry.EmitZones(r.bus, h)
	iv := cfg.MetricsInterval
	if iv == 0 {
		iv = 1.0
	}
	for k := 1; float64(k)*iv < until; k++ {
		at := float64(k) * iv
		r.at(eventq.Time(at), func(eventq.Time) { r.snapshot(at) })
	}
}

// bufferShards builds the run's bus over the shard buses, which each
// shard's view and agents emit into. One shard's bus is the run's bus.
// With more, shard i's bus also appends to buffer i, and the group's
// barrier hook merges the buffers in (T, shard, emission) order into
// the run's bus, so the unchanged sinks see one stream on one
// goroutine, and every event emitted before a sync task before that
// task runs. Events a sync task emits are buffered too and fed after
// it.
func (r *dataRun) bufferShards() {
	if len(r.buses) == 1 {
		r.bus = r.buses[0]
		return
	}
	r.bus = telemetry.NewBus()
	bufs := make([][]telemetry.Event, len(r.buses))
	var merged []telemetry.Event
	for i, b := range r.buses {
		b.Attach(func(e telemetry.Event) { bufs[i] = append(bufs[i], e) })
	}
	r.flush = func() {
		merged = merged[:0]
		for i, b := range bufs {
			merged = append(merged, b...)
			bufs[i] = b[:0]
		}
		// Each buffer is in T order, so a stable sort by T over the
		// concatenation is the (T, shard, emission) merge.
		slices.SortStableFunc(merged, func(a, b telemetry.Event) int { return cmp.Compare(a.T, b.T) })
		for _, e := range merged {
			r.bus.Emit(e)
		}
	}
	r.grp.OnBarrier(r.flush)
}

// finishTelemetry takes the final snapshot, flushes the two text
// traces, and builds the report (nil without telemetry). The returned
// error surfaces the first JSONL or packet-trace write failure.
func (r *dataRun) finishTelemetry(until float64) (*TelemetryReport, error) {
	t := r.tel
	if t == nil {
		return nil, nil
	}
	if t.health != nil {
		// Close the health engine first: its final evaluation may still
		// emit alerts/clears that the recorder, span assembler and dump
		// trigger should see before anything freezes.
		t.health.Finish(until)
	}
	r.snapshot(until)
	rep := &TelemetryReport{
		EventsEmitted:       r.bus.Count(),
		SuppressionRatio:    t.metrics.SuppressionRatio(),
		ControllerDecisions: t.metrics.ControllerDecisions(),
		ControllerMaxH:      t.metrics.ControllerMaxH(),
		rows:                t.sampler.Rows(),
	}
	if local, global := t.metrics.RepairLocalization(); local+global > 0 {
		rep.LocalRepairFrac = float64(local) / float64(local+global)
	}
	rep.asm = t.spans
	if r.census != nil {
		sum := r.census.Summarize()
		rep.censusSum = &sum
		rep.censusEpochs = r.census.Epochs()
	}
	if t.health != nil {
		rep.health = t.health.Report()
	}
	if t.rec != nil {
		rep.flight = t.rec.Events()
	}
	if t.trigger != nil {
		// The snapshots, not the trigger itself: the report must stay
		// free of func values for reflect.DeepEqual comparability, and
		// the trigger holds the recorder (whose filter is a func).
		rep.dumps = t.trigger.Snapshots()
	}
	var err error
	if t.events != nil {
		rep.EventsWritten = t.events.Count()
		if ferr := t.events.Flush(); ferr != nil {
			err = fmt.Errorf("sharqfec: telemetry event trace: %w", ferr)
		}
	}
	if t.packets != nil {
		if ferr := t.packets.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("sharqfec: packet trace: %w", ferr)
		}
	}
	return rep, err
}
