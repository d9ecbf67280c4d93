package telemetry

import (
	"sync/atomic"

	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// DecodeLatencyBounds are the histogram buckets (seconds) for FEC group
// decode latency — first share seen to successful reconstruction.
var DecodeLatencyBounds = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5}

// RTTSampleBounds are the histogram buckets (seconds) for echo-based
// RTT samples.
var RTTSampleBounds = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25}

// RecoveryLatencyBounds are the histogram buckets (seconds) for
// end-to-end loss-recovery latency — loss detected to group decoded.
// Recovery spans a full NACK/repair round trip (possibly several, with
// back-off), so the buckets reach further than DecodeLatencyBounds.
var RecoveryLatencyBounds = []float64{0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20}

const numPktTypes = int(packet.TypeZCRTakeover) + 1

// zoneCells holds one zone's hot counters, resolved to registry
// pointers at construction so event handling is lock-free.
type zoneCells struct {
	deliveredPkts  [numPktTypes]*Counter
	deliveredBytes [numPktTypes]*Counter
	sentPkts       [numPktTypes]*Counter
	nacksSent      *Counter
	nacksSupp      *Counter
	repairsSent    *Counter
	repairsInj     *Counter
	losses         *Counter
	decoded        *Counter
	escalations    *Counter
	elections      *Counter
	unrecovered    *Counter
	decodeLat      *Histogram

	// Rate-control gauges, set from controller_decision events: the
	// predictor state (predicted zone loss count) and the last decided
	// injection size for the zone. Gauges rather than counters so the
	// sampled time series traces the predictor trajectory.
	predZLC *Gauge
	ctrlH   *Gauge
}

// Metrics subscribes a Registry to a Bus, attributing each event to its
// zone:
//
//   - transport events (sent / delivered packets and bytes) to the
//     multicast's scope zone — the administrative scope the packet was
//     addressed to, which is what the paper's localization claims count;
//   - NACKs sent, repairs sent and preemptive injections to the scope
//     zone they were addressed to;
//   - losses detected, suppressions, decodes and escalations to the
//     observing node's leaf zone (they are local observations);
//   - drops (loss / tail / fault) to network-wide counters.
//
// The per-zone counter cells are pre-created for every zone of the
// hierarchy, so the sink path performs only bounds checks and atomic
// adds — no map lookups, no locks, no allocation.
type Metrics struct {
	Reg *Registry
	h   *scoping.Hierarchy

	zones []zoneCells
	leaf  []scoping.ZoneID // node → leaf zone, precomputed

	lossDrops  *Counter
	tailDrops  *Counter
	faultDrops *Counter
	faults     *Counter
	rttSamples *Histogram

	// Rate-control totals: decision count, and the largest per-group
	// injection size any decision owed (the budget-compliance witness).
	// ctrlMaxH is a monotonic atomic max because udpmesh drives one
	// emitting goroutine per node over a shared bus.
	ctrlDecisions *Counter
	ctrlMaxH      atomic.Int64
}

// NewMetrics builds the bridge for hierarchy h over reg (a fresh
// registry when nil) and returns it; attach its Sink to a Bus to start
// counting.
func NewMetrics(reg *Registry, h *scoping.Hierarchy, numNodes int) *Metrics {
	if reg == nil {
		reg = NewRegistry()
	}
	m := &Metrics{
		Reg:        reg,
		h:          h,
		zones:      make([]zoneCells, h.NumZones()),
		leaf:       make([]scoping.ZoneID, numNodes),
		lossDrops:  reg.Counter(Key{Name: "loss_drops", Node: topology.NoNode, Zone: scoping.NoZone}),
		tailDrops:  reg.Counter(Key{Name: "tail_drops", Node: topology.NoNode, Zone: scoping.NoZone}),
		faultDrops: reg.Counter(Key{Name: "fault_drops", Node: topology.NoNode, Zone: scoping.NoZone}),
		faults:     reg.Counter(Key{Name: "fault_events", Node: topology.NoNode, Zone: scoping.NoZone}),
		rttSamples: reg.Histogram(Key{Name: "rtt_sample_s", Node: topology.NoNode, Zone: scoping.NoZone}, RTTSampleBounds),
	}
	m.ctrlDecisions = reg.Counter(Key{Name: "controller_decisions", Node: topology.NoNode, Zone: scoping.NoZone})
	for n := range m.leaf {
		m.leaf[n] = h.LeafZone(topology.NodeID(n))
	}
	for z := range m.zones {
		zone := scoping.ZoneID(z)
		zk := func(name string) Key {
			return Key{Name: name, Node: topology.NoNode, Zone: zone}
		}
		cells := &m.zones[z]
		for t := 1; t < numPktTypes; t++ {
			pk := Key{Name: "delivered_pkts", Node: topology.NoNode, Zone: zone, Pkt: packet.Type(t)}
			cells.deliveredPkts[t] = reg.Counter(pk)
			pk.Name = "delivered_bytes"
			cells.deliveredBytes[t] = reg.Counter(pk)
			pk.Name = "sent_pkts"
			cells.sentPkts[t] = reg.Counter(pk)
		}
		cells.nacksSent = reg.Counter(zk("nacks_sent"))
		cells.nacksSupp = reg.Counter(zk("nacks_suppressed"))
		cells.repairsSent = reg.Counter(zk("repairs_sent"))
		cells.repairsInj = reg.Counter(zk("repairs_injected"))
		cells.losses = reg.Counter(zk("losses_detected"))
		cells.decoded = reg.Counter(zk("groups_decoded"))
		cells.escalations = reg.Counter(zk("scope_escalations"))
		cells.elections = reg.Counter(zk("zcr_elections"))
		cells.unrecovered = reg.Counter(zk("losses_unrecovered"))
		cells.decodeLat = reg.Histogram(zk("decode_latency_s"), DecodeLatencyBounds)
		cells.predZLC = reg.Gauge(zk("pred_zlc"))
		cells.ctrlH = reg.Gauge(zk("ctrl_h"))
	}
	return m
}

// cellsFor returns the zone cells for z, or nil when z is out of range
// (NoZone events, or a shrunk hierarchy after membership churn).
func (m *Metrics) cellsFor(z scoping.ZoneID) *zoneCells {
	if z < 0 || int(z) >= len(m.zones) {
		return nil
	}
	return &m.zones[z]
}

// leafOf returns the node's leaf-zone cells, or nil.
func (m *Metrics) leafOf(n topology.NodeID) *zoneCells {
	if n < 0 || int(n) >= len(m.leaf) {
		return nil
	}
	return m.cellsFor(m.leaf[n])
}

// Sink returns the counting sink for Bus.Attach.
func (m *Metrics) Sink() Sink {
	return func(e Event) {
		switch e.Kind {
		case KindPacketSent:
			if c := m.cellsFor(e.Zone); c != nil && e.A > 0 && int(e.A) < numPktTypes {
				c.sentPkts[e.A].Inc()
			}
		case KindPacketDelivered:
			if c := m.cellsFor(e.Zone); c != nil && e.A > 0 && int(e.A) < numPktTypes {
				c.deliveredPkts[e.A].Inc()
				c.deliveredBytes[e.A].Add(e.B)
			}
		case KindNACKSent:
			if c := m.cellsFor(e.Zone); c != nil {
				c.nacksSent.Inc()
			}
		case KindNACKSuppressed:
			if c := m.leafOf(e.Node); c != nil {
				c.nacksSupp.Inc()
			}
		case KindRepairSent:
			if c := m.cellsFor(e.Zone); c != nil {
				c.repairsSent.Inc()
			}
		case KindRepairInjected:
			if c := m.cellsFor(e.Zone); c != nil {
				c.repairsInj.Add(e.A)
			}
		case KindLossDetected:
			if c := m.leafOf(e.Node); c != nil {
				c.losses.Inc()
			}
		case KindGroupDecoded:
			if c := m.leafOf(e.Node); c != nil {
				c.decoded.Inc()
				c.decodeLat.Observe(e.F)
			}
		case KindScopeEscalated:
			if c := m.leafOf(e.Node); c != nil {
				c.escalations.Inc()
			}
		case KindLossUnrecovered:
			if c := m.leafOf(e.Node); c != nil {
				c.unrecovered.Inc()
			}
		case KindZCRElected:
			if c := m.cellsFor(e.Zone); c != nil {
				c.elections.Inc()
			}
		case KindRTTSample:
			m.rttSamples.Observe(e.F)
		case KindPacketLost:
			m.lossDrops.Inc()
		case KindTailDrop:
			m.tailDrops.Inc()
		case KindFaultDrop:
			m.faultDrops.Inc()
		case KindFault:
			m.faults.Inc()
		case KindControllerDecision:
			if c := m.cellsFor(e.Zone); c != nil {
				c.predZLC.Set(e.F)
				c.ctrlH.Set(float64(e.A))
			}
			m.ctrlDecisions.Inc()
			for {
				cur := m.ctrlMaxH.Load()
				if e.A <= cur || m.ctrlMaxH.CompareAndSwap(cur, e.A) {
					break
				}
			}
		case KindHealthAlert:
			m.healthEvent("health_alerts", e.Zone)
		case KindHealthClear:
			m.healthEvent("health_clears", e.Zone)
		}
	}
}

// RepairLocalization returns how many repair packets were delivered
// under a non-root scope versus the root scope — the paper's repair-
// localization measurement, counted from deliveries like the §6
// figures.
func (m *Metrics) RepairLocalization() (local, global int64) {
	for z := range m.zones {
		n := m.zones[z].deliveredPkts[packet.TypeRepair].Value()
		if m.h.Level(scoping.ZoneID(z)) > 0 {
			local += n
		} else {
			global += n
		}
	}
	return local, global
}

// SuppressionRatio returns suppressed/(suppressed+sent) NACKs over the
// whole session (0 when no NACK activity).
func (m *Metrics) SuppressionRatio() float64 {
	var sent, supp int64
	for z := range m.zones {
		sent += m.zones[z].nacksSent.Value()
		supp += m.zones[z].nacksSupp.Value()
	}
	if sent+supp == 0 {
		return 0
	}
	return float64(supp) / float64(sent+supp)
}

// ControllerDecisions returns how many rate-control decisions were
// published.
func (m *Metrics) ControllerDecisions() int64 { return m.ctrlDecisions.Value() }

// ControllerMaxH returns the largest per-group injection size any
// decision owed (0 when no decision ever owed shares) — the witness a
// budgeted policy stayed within its cap.
func (m *Metrics) ControllerMaxH() int64 { return m.ctrlMaxH.Load() }

// healthEvent counts one health transition, session-wide and (when the
// alert names a zone) per zone. Counters are created lazily through the
// registry — alerts are rare transitions, and runs without an SLO keep
// their registry contents byte-identical to before.
func (m *Metrics) healthEvent(name string, z scoping.ZoneID) {
	m.Reg.Counter(Key{Name: name, Node: topology.NoNode, Zone: scoping.NoZone}).Inc()
	if z != scoping.NoZone {
		m.Reg.Counter(Key{Name: name, Node: topology.NoNode, Zone: z}).Inc()
	}
}
