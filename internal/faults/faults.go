// Package faults is the simulator's scripted fault-injection and
// network-dynamics engine. The paper's evaluation (§6) runs on static
// topologies with independent Bernoulli loss; its robustness claims —
// ZCRs are re-elected on failure (§3.2, §5.2), repair traffic stays
// localized — are about *dynamic* networks. This package closes that
// gap: a Plan is a deterministic timeline of network events (link
// down/up, node crash/restart, member leave, zone partition/heal,
// Gilbert–Elliott burst-loss processes replacing Bernoulli loss) that an
// Engine replays against a running netsim.Network through the same
// event queue the protocols run on.
//
// Determinism contract: all fault randomness flows through dedicated
// simrand streams ("faults/..."), so a simulation with an empty Plan is
// byte-identical to one without an Engine at all, and any scripted run
// is reproducible from its seed.
package faults

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// Kind enumerates the scripted event types.
type Kind int

const (
	// LinkDown administratively disables a link; routing trees and
	// pruned delivery sets recompute around it. Packets reaching the
	// dead link are discarded.
	LinkDown Kind = iota
	// LinkUp re-enables a previously downed link.
	LinkUp
	// Crash fails a session member: its agent stops sending and
	// reacting (the §3.2/§5.2 failure model), while the network keeps
	// forwarding through its attachment point.
	Crash
	// Restart revives a crashed member as a fresh late joiner.
	Restart
	// Leave removes a member from the session entirely: the scoping
	// hierarchy is rebuilt without it and delivery sets shrink.
	Leave
	// PartitionZone disables every link joining the zone's members to
	// the rest of the network, isolating the zone.
	PartitionZone
	// HealZone re-enables the links a matching PartitionZone disabled.
	HealZone
	// GilbertLink replaces one link's Bernoulli loss (both directions)
	// with a Gilbert–Elliott burst process of the given mean loss and
	// mean burst length.
	GilbertLink
	// GilbertAll installs the Gilbert–Elliott process on every link.
	GilbertAll
	// GilbertEqualMean installs per-link Gilbert–Elliott processes
	// whose mean equals each link direction's configured Bernoulli
	// rate — the "equal mean loss, bursty arrivals" sweep.
	GilbertEqualMean
)

// subject is what an event's first argument names: the Event field it
// fills and the range Validate checks it against.
type subject struct {
	name  string
	field func(*Event) *int
	count func(*topology.Graph, *scoping.Hierarchy) int
}

var (
	linkSubject = &subject{"link", func(e *Event) *int { return &e.Link },
		func(g *topology.Graph, _ *scoping.Hierarchy) int { return g.NumLinks() }}
	nodeSubject = &subject{"node", func(e *Event) *int { return (*int)(&e.Node) },
		func(g *topology.Graph, _ *scoping.Hierarchy) int { return g.NumNodes() }}
	zoneSubject = &subject{"zone", func(e *Event) *int { return (*int)(&e.Zone) },
		func(_ *topology.Graph, h *scoping.Hierarchy) int { return h.NumZones() }}
)

// syntax is one kind's plan-file spelling: its keyword, the subject it
// names (nil: none), and how many numbers follow the subject (2:
// MeanLoss and BurstLen; 1: BurstLen alone).
type syntax struct {
	keyword string
	subject *subject
	numbers int
}

// kinds is the only description of the plan-file syntax: Kind.String,
// Event.String, ParsePlan, Validate and the engine's telemetry read it.
var kinds = [...]syntax{
	LinkDown:         {"link-down", linkSubject, 0},
	LinkUp:           {"link-up", linkSubject, 0},
	Crash:            {"crash", nodeSubject, 0},
	Restart:          {"restart", nodeSubject, 0},
	Leave:            {"leave", nodeSubject, 0},
	PartitionZone:    {"partition-zone", zoneSubject, 0},
	HealZone:         {"heal-zone", zoneSubject, 0},
	GilbertLink:      {"gilbert-link", linkSubject, 2},
	GilbertAll:       {"gilbert-all", nil, 2},
	GilbertEqualMean: {"gilbert-equal-mean", nil, 1},
}

// syntax returns the kind's row of the syntax table; ok is false for a
// value outside it.
func (k Kind) syntax() (syntax, bool) {
	if k < 0 || int(k) >= len(kinds) {
		return syntax{}, false
	}
	return kinds[k], true
}

// String returns the plan-file keyword for the kind.
func (k Kind) String() string {
	if s, ok := k.syntax(); ok {
		return s.keyword
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scripted fault at an absolute simulated time.
type Event struct {
	At   float64
	Kind Kind
	// Node is the subject of Crash/Restart/Leave events.
	Node topology.NodeID
	// Link is the subject of LinkDown/LinkUp/GilbertLink events.
	Link int
	// Zone is the subject of PartitionZone/HealZone events.
	Zone scoping.ZoneID
	// MeanLoss and BurstLen parameterize the Gilbert events.
	MeanLoss, BurstLen float64
}

// subjectID returns the link, node or zone the event names; nil when
// its kind names none.
func (e *Event) subjectID() *int {
	if sub := kinds[e.Kind].subject; sub != nil {
		return sub.field(e)
	}
	return nil
}

// numbers returns the event's numeric arguments in plan-file order.
func (e *Event) numbers() []*float64 {
	return []*float64{&e.MeanLoss, &e.BurstLen}[2-kinds[e.Kind].numbers:]
}

// String renders the event in plan-file syntax.
func (e Event) String() string { return fmt.Sprintf("%g %s", e.At, e.desc()) }

// desc renders the event's keyword and arguments without its time.
func (e Event) desc() string {
	row, ok := e.Kind.syntax()
	if !ok {
		return e.Kind.String()
	}
	s := row.keyword
	if id := e.subjectID(); id != nil {
		s += fmt.Sprintf(" %d", *id)
	}
	for _, v := range e.numbers() {
		s += fmt.Sprintf(" %g", *v)
	}
	return s
}

// Plan is a deterministic timeline of scripted faults. The zero value
// is the empty plan: attaching it to a simulation changes nothing.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules no events.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate checks every event against the network it will run on. It
// is the only place a plan is refused: a plan it accepts applies
// without error at every event.
func (p *Plan) Validate(g *topology.Graph, h *scoping.Hierarchy) error {
	for i, e := range p.Events {
		// Comparisons are written so NaN fails them: NaN < 0 is false,
		// so a bare "e.At < 0" would wave a NaN timestamp through and
		// wedge the event-queue schedule.
		if !(e.At >= 0) || math.IsInf(e.At, 0) {
			return fmt.Errorf("faults: event %d (%s): time must be finite and non-negative", i, e)
		}
		row, ok := e.Kind.syntax()
		if !ok {
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(e.Kind))
		}
		if sub := row.subject; sub != nil {
			if id, n := *sub.field(&e), sub.count(g, h); id < 0 || id >= n {
				return fmt.Errorf("faults: event %d (%s): %s %d out of range [0,%d)", i, e, sub.name, id, n)
			}
		}
		// A restart spawns an agent in the node's leaf zone, so the node
		// must be a member that no earlier leave removed, and one that is
		// down: its last crash or restart before this one is a crash.
		if (e.Kind == Leave || e.Kind == Restart) && h.LeafZone(e.Node) == scoping.NoZone ||
			e.Kind == Restart && p.lastBefore(i, Leave) >= 0 {
			return fmt.Errorf("faults: event %d (%s): node %d is not a session member", i, e, e.Node)
		}
		if e.Kind == Restart {
			if j := p.lastBefore(i, Crash, Restart); j < 0 || p.Events[j].Kind != Crash {
				return fmt.Errorf("faults: event %d (%s): node %d is not down", i, e, e.Node)
			}
		}
		if row.numbers == 0 {
			continue
		}
		// The event's own numbers; an equal-mean event has no mean of
		// its own, and 0 passes every mean check.
		mean := 0.0
		if row.numbers == 2 {
			mean = e.MeanLoss
		}
		if err := burstError(mean, e.BurstLen); err != nil {
			return fmt.Errorf("faults: event %d (%s): %w", i, e, err)
		}
		if e.Kind != GilbertEqualMean {
			continue
		}
		for li := 0; li < g.NumLinks(); li++ {
			l := g.Link(li)
			for dir, m := range gilbertMeans(e, l) {
				if m <= 0 {
					continue
				}
				if err := burstError(m, e.BurstLen); err != nil {
					ends := [2]topology.NodeID{l.A, l.B}
					return fmt.Errorf("faults: event %d (%s): link %d direction %d->%d: %w", i, e, li, ends[dir], ends[1-dir], err)
				}
			}
		}
	}
	return nil
}

// lastBefore returns the index of the last event of one of kinds on
// event i's node that fires before event i does (earlier, or at the
// same time and earlier in the plan, the order sync tasks fire in), or
// -1 when there is none.
func (p *Plan) lastBefore(i int, kinds ...Kind) int {
	e, last := p.Events[i], -1
	for j, x := range p.Events {
		if x.Node != e.Node || !slices.Contains(kinds, x.Kind) || !(x.At < e.At || x.At == e.At && j < i) {
			continue
		}
		if last < 0 || x.At >= p.Events[last].At {
			last = j
		}
	}
	return last
}

// gilbertMeans returns the mean loss a Gilbert event gives each
// direction of link l: the event's own, or for GilbertEqualMean the
// link's configured Bernoulli rates.
func gilbertMeans(e Event, l topology.Link) [2]float64 {
	if e.Kind == GilbertEqualMean {
		return [2]float64{l.LossAB, l.LossBA}
	}
	return [2]float64{e.MeanLoss, e.MeanLoss}
}

// ParsePlan reads the plan-file format: one event per line,
//
//	<seconds> <keyword> <args...>
//
// with '#' comments and blank lines ignored. Keywords and argument
// counts match Event.String:
//
//	10.5 link-down 3
//	12.0 link-up 3
//	9.0  crash 8
//	20.0 restart 8
//	9.0  leave 17
//	10.0 partition-zone 2
//	14.0 heal-zone 2
//	0    gilbert-link 3 0.08 6
//	0    gilbert-all 0.08 6
//	0    gilbert-equal-mean 6
func ParsePlan(r io.Reader) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		ev, err := parseEvent(fields)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: %w", lineNo, err)
		}
		p.Events = append(p.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return p, nil
}

func parseEvent(fields []string) (Event, error) {
	var ev Event
	at, err := strconv.ParseFloat(fields[0], 64)
	if err != nil || math.IsNaN(at) || math.IsInf(at, 0) {
		return ev, fmt.Errorf("bad time %q (want a finite number)", fields[0])
	}
	ev.At = at
	if len(fields) < 2 {
		return ev, fmt.Errorf("missing event keyword after time %q", fields[0])
	}
	k := slices.IndexFunc(kinds[:], func(s syntax) bool { return s.keyword == fields[1] })
	if k < 0 {
		return ev, fmt.Errorf("unknown event keyword %q", fields[1])
	}
	ev.Kind = Kind(k)
	args := fields[2:]
	id := ev.subjectID()
	nums := ev.numbers()
	n := len(nums)
	if id != nil {
		n++
	}
	if len(args) != n {
		return ev, fmt.Errorf("%s takes %d argument(s), got %d", fields[1], n, len(args))
	}
	if id != nil {
		if *id, err = strconv.Atoi(args[0]); err != nil {
			return ev, fmt.Errorf("bad integer %q: %w", args[0], err)
		}
		args = args[1:]
	}
	for i, v := range nums {
		*v, err = strconv.ParseFloat(args[i], 64)
		if err != nil || math.IsNaN(*v) || math.IsInf(*v, 0) {
			return ev, fmt.Errorf("bad number %q (want a finite number)", args[i])
		}
	}
	return ev, nil
}
