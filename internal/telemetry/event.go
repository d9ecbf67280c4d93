// Package telemetry is the observability layer of the reproduction: a
// typed protocol-event bus, a metrics registry keyed by (node, zone,
// packet kind), periodic per-zone time-series snapshots driven off the
// simulation's virtual clock, and exporters (JSONL event trace, CSV/JSON
// time series, Prometheus-text / expvar-style endpoints).
//
// The layer is strictly passive: emitting an event consumes no
// randomness and mutates no protocol state, so attaching it cannot
// perturb a seeded run, and a nil *Bus makes every emission site a
// no-op with zero allocations (Event is a flat value struct and Emit
// has a nil-receiver guard), keeping instrumented hot paths free when
// telemetry is disabled.
package telemetry

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// Kind identifies a protocol event type.
type Kind uint8

// The event taxonomy. The A, B and F fields of Event are kind-specific;
// their meaning is documented per constant.
const (
	KindNone Kind = iota

	// Control-plane events from internal/core and internal/srm.

	// KindNACKScheduled: a request timer was armed. F = delay (s).
	KindNACKScheduled
	// KindNACKSuppressed: a planned NACK was cancelled. A = reason
	// (0 = a peer's NACK covered ours, 1 = enough repairs outstanding),
	// B = the request back-off exponent at suppression time.
	KindNACKSuppressed
	// KindNACKSent: Zone = scope addressed, A = local loss count (LLC),
	// B = shares still needed.
	KindNACKSent
	// KindRepairScheduled: a reply timer was armed. F = delay (s).
	KindRepairScheduled
	// KindRepairSuppressed: a planned reply was cancelled because the
	// heard repairs covered the whole queue.
	KindRepairSuppressed
	// KindRepairSent: one repair share multicast. Zone = scope,
	// A = burst end (highest share index of the burst), B = share index.
	KindRepairSent
	// KindRepairInjected: preemptive FEC entered a zone without a NACK.
	// Zone = scope, A = shares injected, F = the EWMA predicted zone
	// loss count driving the decision (predictor state).
	KindRepairInjected
	// KindLossDetected: an original data packet was declared lost.
	// Group = its FEC group, A = sequence number.
	KindLossDetected
	// KindGroupDecoded: a receiver reconstructed a full FEC group.
	// A = repair shares used, B = final LLC, F = decode latency (s,
	// first share seen → decode).
	KindGroupDecoded
	// KindScopeEscalated: a requester widened its NACK scope.
	// Zone = the new (wider) scope.
	KindScopeEscalated
	// KindLossUnrecovered: terminal marker emitted at session end for a
	// detected loss whose group never decoded, so span assembly can
	// distinguish "slow" from "never". Group = FEC group, A = sequence
	// number, B = 1 if the original arrived late (data in hand but the
	// group still short of k shares).
	KindLossUnrecovered

	// Session-layer events from internal/session.

	// KindZCRElected: a member's ZCR belief for Zone changed.
	// A = previous ZCR node (-1 = none), B = new ZCR node.
	KindZCRElected
	// KindRTTSample: an echo-based RTT measurement. A = peer node,
	// F = the raw sample (s).
	KindRTTSample

	// Fault-engine events from internal/faults.

	// KindFault: a scripted fault fired. A = the faults.Kind ordinal.
	KindFault

	// Transport events from internal/netsim.

	// KindPacketSent: one multicast transmission. Zone = scope,
	// A = packet.Type ordinal, B = wire bytes.
	KindPacketSent
	// KindPacketDelivered: one delivery to a session member. Zone =
	// scope, A = packet.Type ordinal, B = wire bytes.
	KindPacketDelivered
	// KindPacketLost: a loss-model drop on a link. Node = the far end
	// of the link, A = packet.Type ordinal, B = wire bytes.
	KindPacketLost
	// KindTailDrop: a transmit-queue overflow drop (same fields).
	KindTailDrop
	// KindFaultDrop: a drop on an administratively-down link (same
	// fields).
	KindFaultDrop

	// Trace-preamble events: the zone topology rendered as events at
	// T = 0, so an exported JSONL trace is self-describing and offline
	// replay (cmd/sharqfec-trace) can reconstruct blame attribution
	// without re-running the simulation. Node is topology.NoNode on
	// KindZoneInfo.

	// KindZoneInfo: one zone of the hierarchy. Zone = the zone,
	// A = parent zone (-1 for the root), B = level (root = 0).
	KindZoneInfo
	// KindZoneMember: Node is a leaf member of Zone.
	KindZoneMember

	// Rate-control events from internal/core's Controller seam.

	// KindControllerDecision: the rate controller sized one group's
	// preemptive redundancy for a zone. Zone = target zone, Group = the
	// FEC group, A = repair shares owed (<= 0 when upstream redundancy
	// already covers the prediction), B = group size k, F = the
	// predictor state (predicted zone loss count) behind the decision.
	KindControllerDecision

	// Run-metadata preamble event.

	// KindRunInfo: emitted once at T = 0 ahead of the zone preamble.
	// F = the run's configured end time (seconds), so offline replay
	// (health-verdict re-derivation in cmd/sharqfec-trace) evaluates its
	// final window at exactly the same instant the live run did.
	KindRunInfo

	// Health-engine events from internal/telemetry/health.

	// KindHealthAlert: an SLO objective entered violation. Zone = the
	// violating zone (scoping.NoZone for the session aggregate), A = the
	// objective's index in the SLO spec, B = the long-window sample
	// count behind the verdict, F = the measured value that breached.
	KindHealthAlert
	// KindHealthClear: the objective left violation (same fields; F =
	// the recovered measurement).
	KindHealthClear

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:             "none",
	KindNACKScheduled:    "nack_scheduled",
	KindNACKSuppressed:   "nack_suppressed",
	KindNACKSent:         "nack_sent",
	KindRepairScheduled:  "repair_scheduled",
	KindRepairSuppressed: "repair_suppressed",
	KindRepairSent:       "repair_sent",
	KindRepairInjected:   "repair_injected",
	KindLossDetected:     "loss_detected",
	KindGroupDecoded:     "group_decoded",
	KindScopeEscalated:   "scope_escalated",
	KindLossUnrecovered:  "loss_unrecovered",
	KindZCRElected:       "zcr_elected",
	KindRTTSample:        "rtt_sample",
	KindFault:            "fault",
	KindPacketSent:       "packet_sent",
	KindPacketDelivered:  "packet_delivered",
	KindPacketLost:       "packet_lost",
	KindTailDrop:         "tail_drop",
	KindFaultDrop:        "fault_drop",
	KindZoneInfo:         "zone_info",
	KindZoneMember:       "zone_member",

	KindControllerDecision: "controller_decision",

	KindRunInfo:     "run_info",
	KindHealthAlert: "health_alert",
	KindHealthClear: "health_clear",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one protocol occurrence. It is a flat value struct — no
// pointers, no slices — so building one never allocates and sinks may
// retain copies freely. Zone is scoping.NoZone and Group is -1 when the
// kind has no scope / group.
type Event struct {
	T     float64 // simulated seconds
	Kind  Kind
	Node  topology.NodeID
	Zone  scoping.ZoneID
	Group int64
	A, B  int64
	F     float64

	// Origin and Hops correlate transport events with the packet they
	// carry: on KindPacketDelivered, Origin is the node that multicast
	// the packet, whatever its kind, and Hops the routing-tree distance
	// the packet travelled to reach Node. Hops == 0 is the sentinel for
	// "no correlation"; Origin is meaningless then (deliveries always
	// cross ≥ 1 link).
	Origin topology.NodeID
	Hops   int64
}

// Format renders an event as a stable single line, for flight-recorder
// dumps and debugging.
func (e Event) Format() string {
	s := fmt.Sprintf("%10.4fs %-18s n%d", e.T, e.Kind, e.Node)
	if e.Zone != scoping.NoZone {
		s += fmt.Sprintf(" z%d", e.Zone)
	}
	if e.Group >= 0 {
		s += fmt.Sprintf(" g%d", e.Group)
	}
	if e.A != 0 || e.B != 0 {
		s += fmt.Sprintf(" a=%d b=%d", e.A, e.B)
	}
	if e.F != 0 {
		s += fmt.Sprintf(" f=%.6g", e.F)
	}
	if e.Hops > 0 {
		s += fmt.Sprintf(" src=n%d hops=%d", e.Origin, e.Hops)
	}
	return s
}

// Sink consumes events. Sinks run synchronously on the emitting
// goroutine and must not call back into the protocol.
type Sink func(Event)

// Bus fans events out to its sinks. A nil *Bus is the disabled state:
// Emit returns immediately and On reports false, so instrumented code
// holds a possibly-nil *Bus and pays only a nil check when telemetry is
// off.
//
// A Bus fills one 64-byte cache line of its own. Buses built back to
// back for two shard goroutines would otherwise share a line, and every
// Emit's count update would bounce it between the two cores.
type Bus struct {
	// count is atomic: udpmesh drives one emitting goroutine per node
	// over a shared bus.
	count atomic.Uint64
	sinks []Sink
	_     [64 - 8 - unsafe.Sizeof([]Sink(nil))]byte
}

// NewBus returns an empty (but enabled) bus.
func NewBus() *Bus { return &Bus{} }

// Attach registers a sink. Not safe concurrently with Emit.
func (b *Bus) Attach(s Sink) { b.sinks = append(b.sinks, s) }

// On reports whether emitting is worthwhile (non-nil bus with at least
// one sink). Hot paths may use it to skip assembling event fields.
func (b *Bus) On() bool { return b != nil && len(b.sinks) > 0 }

// Emit delivers e to every sink. Safe on a nil receiver (no-op).
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	b.count.Add(1)
	for _, s := range b.sinks {
		s(e)
	}
}

// Count returns the number of events emitted so far.
func (b *Bus) Count() uint64 {
	if b == nil {
		return 0
	}
	return b.count.Load()
}

// EmitZones emits the zone preamble: the hierarchy rendered as one
// KindZoneInfo event per zone, each followed by a KindZoneMember event
// per leaf member, so sinks and offline replays learn the zones from
// the event stream alone.
func EmitZones(b *Bus, h *scoping.Hierarchy) {
	for z := 0; z < h.NumZones(); z++ {
		zone := scoping.ZoneID(z)
		parent := int64(-1)
		if p := h.Parent(zone); p != scoping.NoZone {
			parent = int64(p)
		}
		b.Emit(Event{
			Kind: KindZoneInfo, Node: topology.NoNode, Zone: zone,
			Group: -1, A: parent, B: int64(h.Level(zone)),
		})
		for _, m := range h.Leaves(zone) {
			b.Emit(Event{Kind: KindZoneMember, Node: m, Zone: zone, Group: -1})
		}
	}
}

// ZoneView decodes the preamble EmitZones writes: each zone's hierarchy
// level and each member's leaf zone. Every sink that needs the zones
// holds one, so a live run and an offline replay of its trace see the
// same hierarchy. The zero value is an empty view.
type ZoneView struct {
	level []int            // zone → level, -1 when unknown
	leaf  []scoping.ZoneID // node → leaf zone, NoZone when unknown
}

// Note folds a zone_info or zone_member event into the view and
// reports whether e was one. Events naming a negative zone or node are
// ignored.
func (v *ZoneView) Note(e Event) bool {
	switch e.Kind {
	case KindZoneInfo:
		if e.Zone >= 0 {
			v.level = grow(v.level, int(e.Zone), -1)
			v.level[e.Zone] = int(e.B)
		}
	case KindZoneMember:
		if e.Node >= 0 {
			v.leaf = grow(v.leaf, int(e.Node), scoping.NoZone)
			v.leaf[e.Node] = e.Zone
		}
	default:
		return false
	}
	return true
}

// grow extends s with fill until index i exists.
func grow[T any](s []T, i int, fill T) []T {
	for len(s) <= i {
		s = append(s, fill)
	}
	return s
}

// Level returns the zone's hierarchy level (root = 0), or -1 when the
// zone is unknown.
func (v *ZoneView) Level(z scoping.ZoneID) int {
	if z < 0 || int(z) >= len(v.level) {
		return -1
	}
	return v.level[z]
}

// LeafZone returns the node's leaf zone, or scoping.NoZone when the
// node is unknown.
func (v *ZoneView) LeafZone(n topology.NodeID) scoping.ZoneID {
	if n < 0 || int(n) >= len(v.leaf) {
		return scoping.NoZone
	}
	return v.leaf[n]
}
