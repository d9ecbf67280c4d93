// Package spans stitches the flat telemetry event stream into causal
// recovery spans: one span per detected loss, opened by
// KindLossDetected and terminated by the group's decode (or an explicit
// KindLossUnrecovered marker at session end). Each span is tagged with
// the resolving mechanism, the blame zone — the smallest scope whose
// repair traffic closed it — the hop distance from the requester to the
// repairer, and the end-to-end recovery latency on the virtual clock.
//
// The assembler is a pure Sink over the existing bus: it consumes no
// randomness and feeds nothing back into the protocol, so enabling it
// preserves the passivity guarantee of the telemetry layer. It works
// equally from a live bus or from a replayed JSONL trace (the trace
// preamble's zone_info/zone_member events carry the hierarchy), so
// cmd/sharqfec-trace reproduces the identical report offline.
package spans

import (
	"fmt"
	"sort"

	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// Mechanism says what finally resolved a recovery span.
type Mechanism uint8

const (
	// MechNone: nothing did — the span ended unrecovered.
	MechNone Mechanism = iota
	// MechARQ: the receiver NACKed and repair shares arrived.
	MechARQ
	// MechFEC: repair shares arrived without this receiver ever sending
	// a NACK — preemptive injection or a peer's request covered it.
	MechFEC
	// MechData: the group decoded from data already in hand (late
	// originals or surplus shares) with no repair traffic involved.
	MechData
)

var mechNames = [...]string{"none", "arq", "preemptive-fec", "cross-group"}

func (m Mechanism) String() string {
	if int(m) < len(mechNames) {
		return mechNames[m]
	}
	return fmt.Sprintf("mechanism(%d)", int(m))
}

// Span is one fully-assembled loss-recovery trajectory at one receiver.
type Span struct {
	Node  topology.NodeID // the receiver that detected the loss
	Group int64           // FEC group (SRM: the sequence number)
	Seq   int64           // lost sequence number
	Start float64         // loss detected (virtual seconds)
	End   float64         // decoded / declared unrecovered

	Recovered bool
	// LateData marks an unrecovered span whose original did arrive
	// (the group still fell short of k shares), and a recovered span
	// resolved after its group had already decoded (latency 0).
	LateData  bool
	Mechanism Mechanism

	// BlameZone is the smallest scope whose repair delivery closed the
	// span (scoping.NoZone when no repairs were involved); BlameLevel
	// its hierarchy level (-1 when unknown). Repairer and Hops identify
	// the sender of that repair and its routing-tree distance.
	BlameZone  scoping.ZoneID
	BlameLevel int
	Repairer   topology.NodeID
	Hops       int64

	// Per-(node, group) tallies accumulated while the span was live —
	// spans of the same group at the same receiver share the group's
	// control-plane history.
	RepairsHeard    int
	NACKsSent       int
	NACKsSuppressed int
	Escalations     int
	MaxBackoff      int64

	// DupLoss counts extra loss_detected events folded into this span
	// (re-detections after an agent restart).
	DupLoss int

	// Alerts counts health_alert events that fired while this span was
	// open — recoveries that ran under a declared SLO violation.
	Alerts int
}

// Latency returns the end-to-end recovery latency in virtual seconds.
func (s Span) Latency() float64 { return s.End - s.Start }

// Format renders the span as one stable line for reports and
// flight-recorder dumps.
func (s Span) Format() string {
	state := "unrecovered"
	if s.Recovered {
		state = s.Mechanism.String()
	}
	line := fmt.Sprintf("%10.4fs +%8.4fs n%-3d g%-3d s%-4d %-14s", s.Start, s.Latency(), s.Node, s.Group, s.Seq, state)
	if s.BlameZone != scoping.NoZone {
		line += fmt.Sprintf(" blame=z%d/l%d via n%d hops=%d", s.BlameZone, s.BlameLevel, s.Repairer, s.Hops)
	}
	line += fmt.Sprintf(" repairs=%d nacks=%d/%d", s.RepairsHeard, s.NACKsSent, s.NACKsSuppressed)
	if s.Escalations > 0 {
		line += fmt.Sprintf(" escal=%d", s.Escalations)
	}
	if s.LateData {
		line += " late-data"
	}
	if s.Alerts > 0 {
		line += fmt.Sprintf(" alerts=%d", s.Alerts)
	}
	return line
}

// key identifies the per-receiver, per-group assembly state.
type key struct {
	node  topology.NodeID
	group int64
}

// openSpan is a loss awaiting its terminal event.
type openSpan struct {
	seq    int64
	start  float64
	dup    int
	alerts int
}

// groupState accumulates one (receiver, group)'s control-plane history.
// NACK/repair events carry the group, not the individual sequence, so
// tallies are shared by every span of the group.
type groupState struct {
	// open starts on openBuf, so a group with few losses holds them
	// without a slice of its own.
	open    []openSpan
	openBuf [4]openSpan

	nacksSent   int
	nacksSupp   int
	escalations int
	maxBackoff  int64

	repairs    int
	blame      scoping.ZoneID
	blameLevel int
	repairer   topology.NodeID
	hops       int64

	decoded   bool
	decodedAt float64
}

// Assembler consumes bus events and emits closed Spans. Attach with
// Bus.Attach(a.Sink()). Not safe for concurrent sinks — it is built for
// the single-threaded simulator (and offline replay), not the udpmesh
// live runner.
type Assembler struct {
	view   telemetry.ZoneView
	groups map[key]*groupState
	// spare is the unused tail of the block group states are cut from.
	spare []groupState
	// closed holds the closed spans in blocks of spanBlock, filled in
	// order, so a full block is never copied.
	closed  [][]Span
	nclosed int

	lossEvents uint64
	openCount  int
}

// Group states and closed spans are allocated this many at a time.
const (
	groupBlock = 64
	spanBlock  = 256
)

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{groups: make(map[key]*groupState)}
}

// View returns the zone hierarchy decoded from the preamble.
func (a *Assembler) View() *telemetry.ZoneView { return &a.view }

// LossEvents returns how many loss_detected events were consumed
// (duplicates included).
func (a *Assembler) LossEvents() uint64 { return a.lossEvents }

// Open returns how many spans are still awaiting a terminal event.
func (a *Assembler) Open() int { return a.openCount }

// Spans returns every closed span in canonical order (start time, then
// node, group, seq) — a fresh copy, safe to retain.
func (a *Assembler) Spans() []Span {
	out := make([]Span, 0, a.nclosed)
	for _, b := range a.closed {
		out = append(out, b...)
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Group != y.Group {
			return x.Group < y.Group
		}
		return x.Seq < y.Seq
	})
	return out
}

// Sink returns the assembling sink for Bus.Attach.
func (a *Assembler) Sink() telemetry.Sink { return a.handle }

func (a *Assembler) handle(e telemetry.Event) {
	if a.view.Note(e) {
		return
	}
	switch e.Kind {
	case telemetry.KindLossDetected:
		a.lossEvents++
		gs := a.ensure(e.Node, e.Group)
		for i := range gs.open {
			if gs.open[i].seq == e.A {
				gs.open[i].dup++
				return
			}
		}
		if gs.decoded {
			// The group decoded before this loss was even declared
			// (a gap discovered behind an already-complete group):
			// the span resolves instantly.
			sp := a.build(e.Node, e.Group, openSpan{seq: e.A, start: e.T}, gs, e.T, true)
			sp.LateData = true
			a.close(sp)
			return
		}
		gs.open = append(gs.open, openSpan{seq: e.A, start: e.T})
		a.openCount++

	case telemetry.KindNACKSent:
		if gs := a.groups[key{e.Node, e.Group}]; gs != nil {
			gs.nacksSent++
		}
	case telemetry.KindNACKSuppressed:
		if gs := a.groups[key{e.Node, e.Group}]; gs != nil {
			gs.nacksSupp++
			if e.B > gs.maxBackoff {
				gs.maxBackoff = e.B
			}
		}
	case telemetry.KindScopeEscalated:
		if gs := a.groups[key{e.Node, e.Group}]; gs != nil {
			gs.escalations++
		}

	case telemetry.KindPacketDelivered:
		if e.A != int64(packet.TypeRepair) || e.Group < 0 || e.Hops <= 0 {
			return
		}
		// Repairs are tracked even before any loss is detected at this
		// receiver: preemptive FEC typically lands ahead of the LDP
		// timer that declares the loss.
		gs := a.ensure(e.Node, e.Group)
		gs.repairs++
		// Blame the deepest (smallest) scope seen carrying repairs for
		// this group; on equal depth the latest delivery wins, so the
		// blame matches the repair that completed the decode.
		if lvl := a.view.Level(e.Zone); lvl >= gs.blameLevel || gs.blame == scoping.NoZone {
			gs.blame = e.Zone
			gs.blameLevel = lvl
			gs.repairer = e.Origin
			gs.hops = e.Hops
		}

	case telemetry.KindGroupDecoded:
		gs := a.ensure(e.Node, e.Group)
		gs.decoded = true
		gs.decodedAt = e.T
		for _, o := range gs.open {
			a.close(a.build(e.Node, e.Group, o, gs, e.T, true))
		}
		a.openCount -= len(gs.open)
		gs.open = gs.open[:0]

	case telemetry.KindHealthAlert:
		// Tag every in-flight recovery: it is now running under a
		// declared SLO violation.
		for _, gs := range a.groups {
			for i := range gs.open {
				gs.open[i].alerts++
			}
		}

	case telemetry.KindLossUnrecovered:
		gs := a.groups[key{e.Node, e.Group}]
		if gs == nil {
			return
		}
		for i := range gs.open {
			if gs.open[i].seq != e.A {
				continue
			}
			sp := a.build(e.Node, e.Group, gs.open[i], gs, e.T, false)
			sp.LateData = e.B == 1
			gs.open = append(gs.open[:i], gs.open[i+1:]...)
			a.openCount--
			a.close(sp)
			return
		}
		// No matching open span: a crashed agent's duplicate terminal
		// for a loss the restarted agent already resolved. Idempotent.
	}
}

func (a *Assembler) ensure(n topology.NodeID, g int64) *groupState {
	k := key{n, g}
	gs := a.groups[k]
	if gs == nil {
		if len(a.spare) == 0 {
			a.spare = make([]groupState, groupBlock)
		}
		gs = &a.spare[0]
		a.spare = a.spare[1:]
		*gs = groupState{blame: scoping.NoZone, blameLevel: -1, repairer: topology.NoNode}
		gs.open = gs.openBuf[:0]
		a.groups[k] = gs
	}
	return gs
}

// close files a closed span in the last block, starting a new block
// when that one is full.
func (a *Assembler) close(sp Span) {
	n := len(a.closed)
	if n == 0 || len(a.closed[n-1]) == spanBlock {
		a.closed = append(a.closed, make([]Span, 0, spanBlock))
		n++
	}
	a.closed[n-1] = append(a.closed[n-1], sp)
	a.nclosed++
}

// build assembles the Span for one open loss from its group's state.
func (a *Assembler) build(n topology.NodeID, g int64, o openSpan, gs *groupState, end float64, recovered bool) Span {
	sp := Span{
		Node:            n,
		Group:           g,
		Seq:             o.seq,
		Start:           o.start,
		End:             end,
		Recovered:       recovered,
		BlameZone:       gs.blame,
		BlameLevel:      gs.blameLevel,
		Repairer:        gs.repairer,
		Hops:            gs.hops,
		RepairsHeard:    gs.repairs,
		NACKsSent:       gs.nacksSent,
		NACKsSuppressed: gs.nacksSupp,
		Escalations:     gs.escalations,
		MaxBackoff:      gs.maxBackoff,
		DupLoss:         o.dup,
		Alerts:          o.alerts,
	}
	if recovered {
		switch {
		case gs.repairs == 0:
			sp.Mechanism = MechData
			sp.BlameZone = scoping.NoZone
			sp.BlameLevel = -1
			sp.Repairer = topology.NoNode
			sp.Hops = 0
		case gs.nacksSent > 0:
			sp.Mechanism = MechARQ
		default:
			sp.Mechanism = MechFEC
		}
	}
	return sp
}
