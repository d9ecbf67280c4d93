// Package census is a streaming cost-accounting engine for SHARQFEC
// runs: it answers "where do the bytes actually flow and where does the
// protocol state actually live", the measured counterpart of the
// analytic Figure-8 model in internal/analysis.
//
// The engine keeps three kinds of series:
//
//   - traffic matrices: per-link packet/byte counts and per-zone-
//     boundary crossings broken down by packet class (data, NACK,
//     repair, preemptive FEC, session/ZLC control), fed by a netsim hop
//     tap, plus per-zone preemptive share counts from the event bus;
//   - a protocol-state census: active groups, armed timers,
//     repair-queue depth, estimated resident bytes, and session RTT
//     entries, read from per-node probes on virtual-clock epochs;
//   - scheduler shape: event-queue depth, free-list occupancy and
//     dispatch fire-rate, kept in the epoch history (EpochRow.Queue).
//
// The per-zone boundary, share and state series are census_* families
// of the shared telemetry registry, so every registry surface
// (CSV/JSON metrics, Prometheus/expvar, sharqfec-top) picks them up.
// Per-zone transport counts by packet type are not repeated here:
// telemetry.Metrics keeps them (sent_pkts, delivered_pkts).
//
// The engine is strictly passive: it consumes no randomness, mutates no
// protocol state and schedules nothing, so arming it cannot change a
// fixed-seed run's protocol results. The hot ingest paths (ObserveHop
// and the bus Sink) are allocation-free in steady state; only epoch
// snapshots append history.
package census

import (
	"slices"
	"sync"
	"sync/atomic"

	"sharqfec/internal/eventq"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// Class buckets wire traffic for the cost matrices. It is coarser than
// packet.Type: the three ZCR-election messages and session messages are
// all "control", while repairs split into reactive (NACK-triggered) and
// preemptive FEC.
type Class uint8

// Traffic classes, in display order.
const (
	ClassData Class = iota
	ClassNACK
	ClassRepair // NACK-triggered repair shares
	ClassFEC    // preemptively injected repair shares
	ClassControl
	NumClasses
)

var classNames = [NumClasses]string{"data", "nack", "repair", "fec", "ctrl"}

// boundaryPktsNames holds the per-class boundary counter families, made
// once rather than once per zone.
var boundaryPktsNames = func() (names [NumClasses]string) {
	for c := range names {
		names[c] = "census_boundary_pkts_" + classNames[c]
	}
	return names
}()

// String returns the short name used in metric families and reports.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "other"
}

// ClassOf classifies a wire packet. Repairs split on the Preemptive
// accounting flag; everything that is neither data, NACK nor repair is
// control traffic.
func ClassOf(pkt packet.Packet) Class {
	switch p := pkt.(type) {
	case *packet.Data:
		return ClassData
	case *packet.NACK:
		return ClassNACK
	case *packet.Repair:
		if p.Preemptive {
			return ClassFEC
		}
		return ClassRepair
	default:
		return ClassControl
	}
}

// State is one probe's point-in-time accounting of resident protocol
// state at a node.
type State struct {
	Groups         int64 // FEC groups still tracked (incomplete or retaining buffers)
	Timers         int64 // armed request/reply/LDP and session timers
	RepairQueue    int64 // speculative repairs owed across zones
	ResidentBytes  int64 // estimated bytes held in share/data buffers
	SessionEntries int64 // RTT entries maintained (the Figure-8 state quantity)
	MemBytes       int64 // total estimated memory footprint (slab arena + structures + payloads)
}

// Probe reads one node's State. Probes run synchronously inside epoch
// snapshots on the simulator goroutine (or the census ticker on a live
// node), so they must not block. A protocol agent that reports its own
// State (core's *Agent) is registered as its probe directly, with no
// closure per node; ProbeFunc adapts anything else.
type Probe interface {
	StateCensus() State
}

// ProbeFunc is a Probe that calls a function.
type ProbeFunc func() State

// StateCensus calls f.
func (f ProbeFunc) StateCensus() State { return f() }

// zoneCensus holds one zone's registry cells, pre-created so the ingest
// paths never touch the registry map.
type zoneCensus struct {
	boundaryPkts  [NumClasses]*telemetry.Counter
	boundaryBytes *telemetry.Counter
	fecShares     *telemetry.Counter

	groups, timers, repairQ, resident, rtt *telemetry.Gauge
	mem, perRcvr                           *telemetry.Gauge
}

// linkCensus is one duplex link's traffic matrix; dir 0 is A→B.
type linkCensus struct {
	pkts  [2][NumClasses]atomic.Int64
	bytes [2][NumClasses]atomic.Int64
}

// ZoneState is one zone's aggregated protocol state at an epoch.
type ZoneState struct {
	Zone          scoping.ZoneID
	Groups        int64
	Timers        int64
	RepairQueue   int64
	ResidentBytes int64
	RTTEntries    int64
	MemBytes      int64
	Members       int64 // probed members inside the zone this epoch
}

// BytesPerReceiver is the zone's memory footprint averaged over its
// probed members — the per-receiver cost gauge of the slab allocator.
func (zs *ZoneState) BytesPerReceiver() float64 {
	if zs.Members == 0 {
		return 0
	}
	return float64(zs.MemBytes) / float64(zs.Members)
}

// QueueState is the scheduler's shape at an epoch.
type QueueState struct {
	Depth      int     // pending events
	Free       int     // free-list occupancy
	Dispatched uint64  // events executed so far
	FireRate   float64 // events dispatched per virtual second since the last epoch
}

// EpochRow is one epoch snapshot, retained for Perfetto counter tracks
// and reports.
type EpochRow struct {
	T     float64
	Zones []ZoneState
	Queue QueueState
}

// Engine is the streaming census. Ingest (ObserveHop, Sink) is
// lock-free; Snapshot and the read accessors serialize behind a mutex.
type Engine struct {
	h     *scoping.Hierarchy
	zones []zoneCensus
	leaf  []scoping.ZoneID // node → leaf zone (NoZone for non-members)

	links    []linkCensus
	boundary [][]scoping.ZoneID // link → zones whose boundary it crosses

	mu             sync.Mutex
	probes         []Probe // node → probe (nil when none registered)
	queues         []*eventq.Queue
	epochs         []EpochRow
	lastT          float64
	lastDispatched uint64
	peakSession    int64
}

// New creates a census engine over the registry reg for the given zone
// hierarchy and node count. Link matrices are armed separately with
// BindLinks, the epoch history's queue shape with BindQueue (both
// simulator runs only).
func New(reg *telemetry.Registry, h *scoping.Hierarchy, numNodes int) *Engine {
	e := &Engine{
		h:      h,
		zones:  make([]zoneCensus, h.NumZones()),
		leaf:   make([]scoping.ZoneID, numNodes),
		probes: make([]Probe, numNodes),
	}
	for n := 0; n < numNodes; n++ {
		e.leaf[n] = h.LeafZone(topology.NodeID(n))
	}
	// Every zone registers NumClasses+2 counters and 7 gauges.
	reg.Reserve(len(e.zones)*(int(NumClasses)+2), len(e.zones)*7)
	for z := range e.zones {
		zc := &e.zones[z]
		zk := func(name string) telemetry.Key {
			return telemetry.Key{Name: name, Node: topology.NoNode, Zone: scoping.ZoneID(z)}
		}
		for c := Class(0); c < NumClasses; c++ {
			zc.boundaryPkts[c] = reg.Counter(zk(boundaryPktsNames[c]))
		}
		zc.boundaryBytes = reg.Counter(zk("census_boundary_bytes"))
		zc.fecShares = reg.Counter(zk("census_fec_shares"))
		zc.groups = reg.Gauge(zk("census_groups"))
		zc.timers = reg.Gauge(zk("census_timers"))
		zc.repairQ = reg.Gauge(zk("census_repair_queue"))
		zc.resident = reg.Gauge(zk("census_resident_bytes"))
		zc.rtt = reg.Gauge(zk("census_rtt_entries"))
		zc.mem = reg.Gauge(zk("census_mem_bytes"))
		zc.perRcvr = reg.Gauge(zk("census_bytes_per_rcvr"))
	}
	return e
}

// BindLinks arms the per-link traffic matrices for graph g and
// precomputes, for every link, the set of zones whose boundary the link
// crosses (exactly one endpoint is a member). The hop tap walks that
// static slice, so boundary attribution stays allocation-free.
func (e *Engine) BindLinks(g *topology.Graph) {
	e.links = make([]linkCensus, g.NumLinks())
	e.boundary = make([][]scoping.ZoneID, g.NumLinks())
	// Both endpoints' zone chains end in their common ancestors; what
	// precedes that shared tail holds exactly one endpoint. Every link's
	// set is a capped share of one backing, sized in a first pass.
	crossed := func(l topology.Link) (a, b []scoping.ZoneID) {
		a, b = e.h.ZonesOf(l.A), e.h.ZonesOf(l.B)
		for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
			a, b = a[:len(a)-1], b[:len(b)-1]
		}
		return a, b
	}
	n := 0
	for li := 0; li < g.NumLinks(); li++ {
		a, b := crossed(g.Link(li))
		n += len(a) + len(b)
	}
	back := make([]scoping.ZoneID, n)
	for li := 0; li < g.NumLinks(); li++ {
		a, b := crossed(g.Link(li))
		c := len(a) + len(b)
		if c == 0 {
			continue
		}
		set := append(append(back[:0:c], a...), b...)
		slices.Sort(set)
		e.boundary[li], back = set, back[c:]
	}
}

// BindQueue makes epoch snapshots read depth, free-list occupancy and
// the dispatch counter, summed over qs (one queue per shard), into
// EpochRow.Queue. Without it the queue shape stays zero.
func (e *Engine) BindQueue(qs ...*eventq.Queue) {
	e.mu.Lock()
	e.queues = qs
	e.mu.Unlock()
}

// SetProbe installs (or replaces, e.g. after a crash/restart) the state
// probe for node. A nil probe removes it.
func (e *Engine) SetProbe(node topology.NodeID, p Probe) {
	e.mu.Lock()
	if int(node) >= 0 && int(node) < len(e.probes) {
		e.probes[node] = p
	}
	e.mu.Unlock()
}

// ObserveHop records one link crossing: a packet transmitted on link li
// in direction dir (0 = A→B). netsim calls it for every transmission
// attempt that reaches the wire, including packets later lost in
// flight; tail-dropped packets never occupied the link and are not
// counted. Allocation-free.
func (e *Engine) ObserveHop(li, dir int, pkt packet.Packet) {
	if li < 0 || li >= len(e.links) || dir < 0 || dir > 1 {
		return
	}
	cl := ClassOf(pkt)
	sz := int64(pkt.WireSize())
	lm := &e.links[li]
	lm.pkts[dir][cl].Add(1)
	lm.bytes[dir][cl].Add(sz)
	for _, z := range e.boundary[li] {
		zc := &e.zones[z]
		zc.boundaryPkts[cl].Inc()
		zc.boundaryBytes.Add(sz)
	}
}

// Sink returns the engine's bus sink: it counts preemptively injected
// shares per scope zone from repair_injected events, for
// Summary.FECShares. Per-zone transport tallies by packet type are not
// kept here: telemetry.Metrics counts them from the same events.
// Allocation-free.
func (e *Engine) Sink() telemetry.Sink {
	return func(ev telemetry.Event) {
		if z := int(ev.Zone); ev.Kind == telemetry.KindRepairInjected && z >= 0 && z < len(e.zones) {
			e.zones[z].fecShares.Add(ev.A)
		}
	}
}

// Snapshot runs the state census at virtual time t: every registered
// probe is read, per-zone aggregates land in the registry gauges, the
// bound queue's shape is read, and one EpochRow is appended to the
// history that feeds Perfetto counter tracks and reports.
func (e *Engine) Snapshot(t float64) {
	e.mu.Lock()
	defer e.mu.Unlock()

	perZone := make([]ZoneState, len(e.zones))
	for z := range perZone {
		perZone[z].Zone = scoping.ZoneID(z)
	}
	for n, probe := range e.probes {
		if probe == nil {
			continue
		}
		st := probe.StateCensus()
		if st.SessionEntries > e.peakSession {
			e.peakSession = st.SessionEntries
		}
		lz := e.leaf[n]
		if lz == scoping.NoZone {
			continue
		}
		// Attribute a node's state to every zone containing it, so a
		// zone row reads as "state resident inside this zone".
		for _, z := range e.h.ZonesOf(topology.NodeID(n)) {
			zs := &perZone[z]
			zs.Groups += st.Groups
			zs.Timers += st.Timers
			zs.RepairQueue += st.RepairQueue
			zs.ResidentBytes += st.ResidentBytes
			zs.RTTEntries += st.SessionEntries
			zs.MemBytes += st.MemBytes
			zs.Members++
		}
	}
	for z := range e.zones {
		zc := &e.zones[z]
		zs := &perZone[z]
		zc.groups.Set(float64(zs.Groups))
		zc.timers.Set(float64(zs.Timers))
		zc.repairQ.Set(float64(zs.RepairQueue))
		zc.resident.Set(float64(zs.ResidentBytes))
		zc.rtt.Set(float64(zs.RTTEntries))
		zc.mem.Set(float64(zs.MemBytes))
		zc.perRcvr.Set(zs.BytesPerReceiver())
	}

	var qs QueueState
	if len(e.queues) > 0 {
		for _, q := range e.queues {
			qs.Depth += q.Len()
			qs.Free += q.FreeLen()
			qs.Dispatched += q.Dispatched()
		}
		if dt := t - e.lastT; dt > 0 && len(e.epochs) > 0 {
			qs.FireRate = float64(qs.Dispatched-e.lastDispatched) / dt
		}
		e.lastDispatched = qs.Dispatched
	}
	e.lastT = t
	e.epochs = append(e.epochs, EpochRow{T: t, Zones: perZone, Queue: qs})
}

// Epochs returns the snapshot history. The slice is shared; callers
// must not modify it.
func (e *Engine) Epochs() []EpochRow {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epochs
}

// ZoneCensus implements telemetry.CensusSource: the last snapshot's
// protocol-state aggregates for one zone.
func (e *Engine) ZoneCensus(zone int) (groups, timers, repairQ, residentBytes, rttEntries int64) {
	if zone < 0 || zone >= len(e.zones) {
		return
	}
	zc := &e.zones[zone]
	return int64(zc.groups.Value()), int64(zc.timers.Value()),
		int64(zc.repairQ.Value()), int64(zc.resident.Value()), int64(zc.rtt.Value())
}

// ZoneMemory implements telemetry.CensusSource: the last snapshot's
// memory-footprint aggregates for one zone — total estimated bytes and
// the per-probed-member average (the slab allocator's bytes-per-
// receiver gauge).
func (e *Engine) ZoneMemory(zone int) (memBytes int64, bytesPerRcvr float64) {
	if zone < 0 || zone >= len(e.zones) {
		return
	}
	zc := &e.zones[zone]
	return int64(zc.mem.Value()), zc.perRcvr.Value()
}

// ZoneBoundary implements telemetry.CensusSource: cumulative traffic
// across one zone's boundary.
func (e *Engine) ZoneBoundary(zone int) (pkts, bytes int64) {
	if zone < 0 || zone >= len(e.zones) {
		return
	}
	zc := &e.zones[zone]
	for c := Class(0); c < NumClasses; c++ {
		pkts += zc.boundaryPkts[c].Value()
	}
	return pkts, zc.boundaryBytes.Value()
}

// LinkPkts returns the total link crossings of class cl summed over
// every link and direction.
func (e *Engine) LinkPkts(cl Class) int64 {
	var n int64
	for i := range e.links {
		n += e.links[i].pkts[0][cl].Load() + e.links[i].pkts[1][cl].Load()
	}
	return n
}

// BoundaryPktsAtLevel returns class-cl crossings of the boundaries of
// zones at the given hierarchy level, summed over those zones.
func (e *Engine) BoundaryPktsAtLevel(level int, cl Class) int64 {
	var n int64
	for z := range e.zones {
		if e.h.Level(scoping.ZoneID(z)) == level {
			n += e.zones[z].boundaryPkts[cl].Value()
		}
	}
	return n
}

// PeakSessionEntries returns the largest per-node session RTT table
// observed by any snapshot — the measured "RTTs maintained per
// receiver" of Figure 8.
func (e *Engine) PeakSessionEntries() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peakSession
}

// Summary is the run-level census digest embedded in reports. It is a
// plain value (no pointers, no funcs) so reports stay comparable with
// reflect.DeepEqual.
type Summary struct {
	LinkPkts     [NumClasses]int64 `json:"link_pkts"`
	LinkBytes    [NumClasses]int64 `json:"link_bytes"`
	BoundaryPkts [NumClasses]int64 `json:"boundary_pkts"`
	FECShares    int64             `json:"fec_shares"`
	PeakRTT      int64             `json:"peak_rtt_entries"`
	Epochs       int               `json:"epochs"`
	Queue        QueueState        `json:"queue"`
}

// Summarize digests the engine's cumulative matrices and history.
func (e *Engine) Summarize() Summary {
	var s Summary
	for c := Class(0); c < NumClasses; c++ {
		for i := range e.links {
			s.LinkPkts[c] += e.links[i].pkts[0][c].Load() + e.links[i].pkts[1][c].Load()
			s.LinkBytes[c] += e.links[i].bytes[0][c].Load() + e.links[i].bytes[1][c].Load()
		}
		for z := range e.zones {
			s.BoundaryPkts[c] += e.zones[z].boundaryPkts[c].Value()
		}
	}
	for z := range e.zones {
		s.FECShares += e.zones[z].fecShares.Value()
	}
	e.mu.Lock()
	s.PeakRTT = e.peakSession
	s.Epochs = len(e.epochs)
	if n := len(e.epochs); n > 0 {
		s.Queue = e.epochs[n-1].Queue
	}
	e.mu.Unlock()
	return s
}
