package health

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// instrument is one (objective, zone) measurement cell: a long/fast
// sketch pair for quantile metrics, or long/fast hit+total counter
// pairs for ratio metrics. ever counts lifetime samples so reports can
// skip zones a metric never touched.
type instrument struct {
	longSk, fastSk                     *WindowSketch
	longHit, longTot, fastHit, fastTot *WindowCounter
	ever                               int64
}

func newInstrument(o Objective) instrument {
	var in instrument
	if o.Metric.quantile() {
		bounds := telemetry.RecoveryLatencyBounds
		if o.Metric == MetricBudgetBurn {
			bounds = BudgetBurnBounds
		}
		in.longSk = NewWindowSketch(bounds, o.Window)
		in.fastSk = NewWindowSketch(bounds, o.Fast)
		return in
	}
	in.longHit = NewWindowCounter(o.Window)
	in.longTot = NewWindowCounter(o.Window)
	in.fastHit = NewWindowCounter(o.Fast)
	in.fastTot = NewWindowCounter(o.Fast)
	return in
}

// measure returns the long and fast window values and sample counts at
// evaluation time t.
func (in *instrument) measure(t float64, o Objective) (long float64, nLong int64, fast float64, nFast int64) {
	if o.Metric.quantile() {
		long, nLong = in.longSk.Summary(t, o.Quantile)
		fast, nFast = in.fastSk.Summary(t, o.Quantile)
		return
	}
	nLong = in.longTot.Sum(t)
	if nLong > 0 {
		long = float64(in.longHit.Sum(t)) / float64(nLong)
	}
	nFast = in.fastTot.Sum(t)
	if nFast > 0 {
		fast = float64(in.fastHit.Sum(t)) / float64(nFast)
	}
	return
}

// Violation is one closed (or still-open at end of run) breach window
// of an objective in a zone, with the witness measurement that raised
// the alert.
type Violation struct {
	Start, End float64
	// Witness is the long-window measurement at alert time; Samples its
	// sample count.
	Witness float64
	Samples int64
	// Ongoing marks a violation still active when the run ended.
	Ongoing bool
}

// sloState is the alert lifecycle state of one (objective, zone).
type sloState struct {
	active  bool
	since   float64
	witness float64
	samples int64
	viols   []Violation
}

// lossKey identifies an outstanding (receiver, group) loss for the
// recovery-latency metric.
type lossKey struct {
	node  topology.NodeID
	group int64
}

// Engine is the streaming health evaluator. Attach its Sink to the bus
// the run emits into; it ingests protocol events, evaluates every
// objective per zone (plus a session-wide aggregate) on a fixed virtual
// -clock tick, and emits health_alert / health_clear events back onto
// the bus at state transitions. All state is guarded by one mutex so
// the live udpmesh runner (one goroutine per node) can share it; in the
// simulator the lock is uncontended.
type Engine struct {
	mu   sync.Mutex
	spec *Spec
	bus  *telemetry.Bus

	nextEval float64
	end      float64
	done     bool

	byMetric [numMetrics][]int

	view telemetry.ZoneView

	// insts/states are [objective][row]; rows[i] is row i's zone index,
	// ascending, where 0 is the session aggregate and z+1 is zone z. A
	// row exists only for a zone that appeared, so memory follows the
	// event stream, not its largest zone id.
	rows   []int
	insts  [][]instrument
	states [][]sloState

	openLoss map[lossKey]float64
	emitted  []telemetry.Event
}

// NewEngine builds an engine for spec. Alert events are emitted onto
// bus (nil for collect-only use, e.g. offline replay). The spec must
// have passed ParseSpec or be equivalently well-formed.
func NewEngine(spec *Spec, bus *telemetry.Bus) *Engine {
	e := &Engine{
		spec:     spec,
		bus:      bus,
		nextEval: spec.interval(),
		openLoss: make(map[lossKey]float64),
		rows:     []int{0},
		insts:    make([][]instrument, len(spec.Objectives)),
		states:   make([][]sloState, len(spec.Objectives)),
	}
	for i, o := range spec.Objectives {
		e.byMetric[o.Metric] = append(e.byMetric[o.Metric], i)
		e.insts[i] = []instrument{newInstrument(o)} // session aggregate
		e.states[i] = []sloState{{}}
	}
	return e
}

// Sink returns the ingesting sink for Bus.Attach.
func (e *Engine) Sink() telemetry.Sink { return e.handle }

func (e *Engine) handle(ev telemetry.Event) {
	// The engine's own emissions fan back to every sink, including this
	// one; drop them before taking the lock (it is held while emitting).
	if ev.Kind == telemetry.KindHealthAlert || ev.Kind == telemetry.KindHealthClear {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Evaluate every tick boundary up to and including ev.T before
	// ingesting ev: a tick's window never sees events at or after it,
	// which makes the tick sequence a pure function of the event stream.
	e.evalTo(ev.T)
	if e.view.Note(ev) {
		return
	}
	switch ev.Kind {
	case telemetry.KindLossDetected:
		k := lossKey{ev.Node, ev.Group}
		if _, open := e.openLoss[k]; !open {
			e.openLoss[k] = ev.T
		}
	case telemetry.KindGroupDecoded:
		k := lossKey{ev.Node, ev.Group}
		if t0, open := e.openLoss[k]; open {
			delete(e.openLoss, k)
			e.observeQuantile(MetricRecoveryLatency, e.view.LeafZone(ev.Node), ev.T, ev.T-t0)
		}
	case telemetry.KindLossUnrecovered:
		k := lossKey{ev.Node, ev.Group}
		if _, open := e.openLoss[k]; open {
			delete(e.openLoss, k)
			// Never-recovered is worse than any latency bound: overflow.
			e.observeQuantile(MetricRecoveryLatency, e.view.LeafZone(ev.Node), ev.T, math.Inf(1))
		}

	case telemetry.KindNACKSent:
		e.observeRatio(MetricSuppressionRatio, e.view.LeafZone(ev.Node), ev.T, 0)
	case telemetry.KindNACKSuppressed:
		e.observeRatio(MetricSuppressionRatio, e.view.LeafZone(ev.Node), ev.T, 1)

	case telemetry.KindPacketDelivered:
		if ev.A == int64(packet.TypeRepair) {
			hit := int64(0)
			if e.view.Level(ev.Zone) > 0 {
				hit = 1
			}
			e.observeRatio(MetricRepairLocality, e.view.LeafZone(ev.Node), ev.T, hit)
		}

	case telemetry.KindControllerDecision:
		if ev.B > 0 {
			h := ev.A
			if h < 0 {
				h = 0
			}
			e.observeQuantile(MetricBudgetBurn, ev.Zone, ev.T, float64(h)/float64(ev.B))
		}
	}
}

// rowOf returns zone's row, inserting it in zone order on first sight.
func (e *Engine) rowOf(zone scoping.ZoneID) int {
	i, ok := slices.BinarySearch(e.rows, int(zone)+1)
	if !ok {
		e.rows = slices.Insert(e.rows, i, int(zone)+1)
		for o := range e.insts {
			e.insts[o] = slices.Insert(e.insts[o], i, newInstrument(e.spec.Objectives[o]))
			e.states[o] = slices.Insert(e.states[o], i, sloState{})
		}
	}
	return i
}

func (e *Engine) observeQuantile(m Metric, zone scoping.ZoneID, t, v float64) {
	for _, o := range e.byMetric[m] {
		in := &e.insts[o][0]
		in.longSk.Observe(t, v)
		in.fastSk.Observe(t, v)
		in.ever++
		if zone < 0 {
			continue
		}
		in = &e.insts[o][e.rowOf(zone)]
		in.longSk.Observe(t, v)
		in.fastSk.Observe(t, v)
		in.ever++
	}
}

func (e *Engine) observeRatio(m Metric, zone scoping.ZoneID, t float64, hit int64) {
	for _, o := range e.byMetric[m] {
		in := &e.insts[o][0]
		in.longHit.Add(t, hit)
		in.longTot.Add(t, 1)
		in.fastHit.Add(t, hit)
		in.fastTot.Add(t, 1)
		in.ever++
		if zone < 0 {
			continue
		}
		in = &e.insts[o][e.rowOf(zone)]
		in.longHit.Add(t, hit)
		in.longTot.Add(t, 1)
		in.fastHit.Add(t, hit)
		in.fastTot.Add(t, 1)
		in.ever++
	}
}

// evalTo runs every pending evaluation tick ≤ t. A tick that finds
// every window empty is judged the same at each later tick until the
// next event, so those ticks are stepped over: an idle stretch costs one
// tick, not one per interval, however far the next event lies.
func (e *Engine) evalTo(t float64) {
	iv := e.spec.interval()
	for e.nextEval <= t {
		idle := e.evaluate(e.nextEval)
		e.nextEval += iv
		if skip := (math.Floor(t/iv) + 1) * iv; idle && skip > e.nextEval {
			e.nextEval = skip
		}
	}
}

// evaluate judges every (objective, zone) at tick time t and emits
// transition events. It reports whether every window it judged was
// empty.
func (e *Engine) evaluate(t float64) (idle bool) {
	idle = true
	for o := range e.insts {
		obj := e.spec.Objectives[o]
		for i, zi := range e.rows {
			in := &e.insts[o][i]
			st := &e.states[o][i]
			if in.ever == 0 && !st.active {
				continue
			}
			long, nLong, fast, nFast := in.measure(t, obj)
			idle = idle && nLong == 0 && nFast == 0
			breach := obj.breaching(long, nLong, fast, nFast)
			switch {
			case breach && !st.active:
				st.active = true
				st.since = t
				st.witness = long
				st.samples = nLong
				e.emit(telemetry.KindHealthAlert, t, zi, o, nLong, long)
			case !breach && st.active:
				st.active = false
				st.viols = append(st.viols, Violation{
					Start: st.since, End: t, Witness: st.witness, Samples: st.samples,
				})
				e.emit(telemetry.KindHealthClear, t, zi, o, nLong, long)
			}
		}
	}
	return idle
}

func (e *Engine) emit(kind telemetry.Kind, t float64, zi, obj int, n int64, v float64) {
	zone := scoping.NoZone
	if zi > 0 {
		zone = scoping.ZoneID(zi - 1)
	}
	ev := telemetry.Event{
		T: t, Kind: kind, Node: topology.NoNode, Zone: zone, Group: -1,
		A: int64(obj), B: n, F: v,
		Origin: topology.NoNode,
	}
	e.emitted = append(e.emitted, ev)
	e.bus.Emit(ev)
}

// Finish runs the remaining ticks through the end of the run, then a
// final end-of-run evaluation at exactly t = until (so terminal events
// emitted at the last instant — unrecovered-loss markers — are judged),
// and freezes still-active violations as ongoing. Idempotent per run;
// call exactly once, after the last protocol event.
func (e *Engine) Finish(until float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return
	}
	e.evalTo(until)
	e.evaluate(until)
	for o := range e.states {
		for i := range e.rows {
			st := &e.states[o][i]
			if st.active {
				st.viols = append(st.viols, Violation{
					Start: st.since, End: until, Witness: st.witness,
					Samples: st.samples, Ongoing: true,
				})
			}
		}
	}
	e.end = until
	e.done = true
	// Drop the bus reference: nothing emits after Finish, and a
	// detached engine keeps reports reflect.DeepEqual-comparable
	// (bus sinks are func values, which never compare equal).
	e.bus = nil
}

// Emitted returns every health_alert / health_clear event the engine
// produced, in emission order (a copy).
func (e *Engine) Emitted() []telemetry.Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]telemetry.Event, len(e.emitted))
	copy(out, e.emitted)
	return out
}

// ActiveAlerts returns how many (objective, zone) states are currently
// in violation — the live /healthz signal.
func (e *Engine) ActiveAlerts() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for o := range e.states {
		for i := range e.rows {
			if e.states[o][i].active {
				n++
			}
		}
	}
	return n
}

// ActiveLines renders every currently-active violation as one line, for
// /healthz bodies and dashboards.
func (e *Engine) ActiveLines() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for o := range e.states {
		for i, zi := range e.rows {
			st := &e.states[o][i]
			if !st.active {
				continue
			}
			out = append(out, fmt.Sprintf("%s %s: %g (%d samples) since t=%gs",
				zoneLabel(zi), e.spec.Objectives[o], st.witness, st.samples, st.since))
		}
	}
	return out
}

// Verdict is one (objective, zone) row of the end-of-run report.
type Verdict struct {
	// Index is the objective's position in the spec; Objective the
	// parsed line.
	Index     int
	Objective Objective
	// Zone is the judged zone, scoping.NoZone for the session
	// aggregate.
	Zone scoping.ZoneID
	// Samples counts every observation the cell ever ingested.
	Samples int64
	// Violations lists the breach windows; Active marks a violation
	// still open at end of run.
	Violations []Violation
	Active     bool
}

// Passed reports whether the row saw no violation.
func (v Verdict) Passed() bool { return len(v.Violations) == 0 }

// BreachSeconds totals the row's time in violation.
func (v Verdict) BreachSeconds() float64 {
	var s float64
	for _, viol := range v.Violations {
		s += viol.End - viol.Start
	}
	return s
}

// Report is the end-of-run health verdict: one row per objective per
// zone that ever produced a sample (plus the session aggregate).
type Report struct {
	Interval float64
	End      float64
	Rows     []Verdict
}

// Report builds the verdict table. Call after Finish.
func (e *Engine) Report() *Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := &Report{Interval: e.spec.interval(), End: e.end}
	for o := range e.insts {
		for i, zi := range e.rows {
			in := &e.insts[o][i]
			st := &e.states[o][i]
			if in.ever == 0 && len(st.viols) == 0 {
				continue
			}
			zone := scoping.NoZone
			if zi > 0 {
				zone = scoping.ZoneID(zi - 1)
			}
			viols := make([]Violation, len(st.viols))
			copy(viols, st.viols)
			r.Rows = append(r.Rows, Verdict{
				Index: o, Objective: e.spec.Objectives[o], Zone: zone,
				Samples: in.ever, Violations: viols, Active: st.active,
			})
		}
	}
	return r
}

// Passed reports whether every row of the report is violation-free.
func (r *Report) Passed() bool {
	for _, row := range r.Rows {
		if !row.Passed() {
			return false
		}
	}
	return true
}

// Violations totals the breach windows across all rows.
func (r *Report) Violations() int {
	n := 0
	for _, row := range r.Rows {
		n += len(row.Violations)
	}
	return n
}

func zoneLabel(zi int) string {
	if zi == 0 {
		return "zone all"
	}
	return fmt.Sprintf("zone %d", zi-1)
}

// String renders the verdict table as a stable multi-line report.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "SLO verdicts to t=%gs (tick %gs): %s — %d violations\n",
		r.End, r.Interval, verdict, r.Violations())
	last := -1
	for _, row := range r.Rows {
		if row.Index != last {
			fmt.Fprintf(&b, "  [%d] %s\n", row.Index, row.Objective)
			last = row.Index
		}
		label := "zone all"
		if row.Zone != scoping.NoZone {
			label = fmt.Sprintf("zone %-3d", row.Zone)
		}
		if row.Passed() {
			fmt.Fprintf(&b, "    %s PASS (%d samples)\n", label, row.Samples)
			continue
		}
		worst := row.Violations[0]
		for _, v := range row.Violations[1:] {
			if better(worst, v, row.Objective) {
				worst = v
			}
		}
		fmt.Fprintf(&b, "    %s FAIL — %d violations, %.1fs in breach, worst %.4g (%d samples) at t=%g..%gs",
			label, len(row.Violations), row.BreachSeconds(), worst.Witness, worst.Samples, worst.Start, worst.End)
		if row.Active {
			b.WriteString(" [ongoing]")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// better reports whether candidate v is a worse breach than cur under
// the objective's direction.
func better(cur, v Violation, o Objective) bool {
	if o.Metric.quantile() {
		return v.Witness > cur.Witness
	}
	return v.Witness < cur.Witness
}
