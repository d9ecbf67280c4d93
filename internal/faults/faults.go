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

// String returns the plan-file keyword for the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case Leave:
		return "leave"
	case PartitionZone:
		return "partition-zone"
	case HealZone:
		return "heal-zone"
	case GilbertLink:
		return "gilbert-link"
	case GilbertAll:
		return "gilbert-all"
	case GilbertEqualMean:
		return "gilbert-equal-mean"
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

// String renders the event in plan-file syntax.
func (e Event) String() string { return fmt.Sprintf("%g %s", e.At, e.desc()) }

// desc renders the event's keyword and arguments without its time.
func (e Event) desc() string {
	switch e.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("%s %d", e.Kind, e.Link)
	case Crash, Restart, Leave:
		return fmt.Sprintf("%s %d", e.Kind, e.Node)
	case PartitionZone, HealZone:
		return fmt.Sprintf("%s %d", e.Kind, e.Zone)
	case GilbertLink:
		return fmt.Sprintf("%s %d %g %g", e.Kind, e.Link, e.MeanLoss, e.BurstLen)
	case GilbertAll:
		return fmt.Sprintf("%s %g %g", e.Kind, e.MeanLoss, e.BurstLen)
	case GilbertEqualMean:
		return fmt.Sprintf("%s %g", e.Kind, e.BurstLen)
	}
	return e.Kind.String()
}

// Plan is a deterministic timeline of scripted faults. The zero value
// is the empty plan: attaching it to a simulation changes nothing.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules no events.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// The builder methods below append one event each and return the plan
// for chaining.

// LinkDown schedules a link failure at time at.
func (p *Plan) LinkDown(at float64, link int) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: LinkDown, Link: link})
	return p
}

// LinkUp schedules a link recovery at time at.
func (p *Plan) LinkUp(at float64, link int) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: LinkUp, Link: link})
	return p
}

// Crash schedules a member failure at time at.
func (p *Plan) Crash(at float64, node topology.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: Crash, Node: node})
	return p
}

// Restart schedules a crashed member's revival at time at.
func (p *Plan) Restart(at float64, node topology.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: Restart, Node: node})
	return p
}

// Leave schedules a member's departure from the session at time at.
func (p *Plan) Leave(at float64, node topology.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: Leave, Node: node})
	return p
}

// PartitionZone schedules the isolation of a zone at time at.
func (p *Plan) PartitionZone(at float64, zone scoping.ZoneID) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: PartitionZone, Zone: zone})
	return p
}

// HealZone schedules the healing of a partitioned zone at time at.
func (p *Plan) HealZone(at float64, zone scoping.ZoneID) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: HealZone, Zone: zone})
	return p
}

// GilbertLink schedules a burst-loss takeover of one link at time at.
func (p *Plan) GilbertLink(at float64, link int, meanLoss, burstLen float64) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: GilbertLink, Link: link, MeanLoss: meanLoss, BurstLen: burstLen})
	return p
}

// GilbertAll schedules burst loss on every link at time at.
func (p *Plan) GilbertAll(at float64, meanLoss, burstLen float64) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: GilbertAll, MeanLoss: meanLoss, BurstLen: burstLen})
	return p
}

// GilbertEqualMean schedules per-link burst loss at each link's
// configured mean rate at time at.
func (p *Plan) GilbertEqualMean(at float64, burstLen float64) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: GilbertEqualMean, BurstLen: burstLen})
	return p
}

// Validate checks every event against the network it will run on.
func (p *Plan) Validate(g *topology.Graph, h *scoping.Hierarchy) error {
	for i, e := range p.Events {
		// Comparisons are written so NaN fails them: NaN < 0 is false,
		// so a bare "e.At < 0" would wave a NaN timestamp through and
		// wedge the event-queue schedule.
		if !(e.At >= 0) || math.IsInf(e.At, 0) {
			return fmt.Errorf("faults: event %d (%s): time must be finite and non-negative", i, e)
		}
		switch e.Kind {
		case LinkDown, LinkUp:
			if e.Link < 0 || e.Link >= g.NumLinks() {
				return fmt.Errorf("faults: event %d (%s): link %d out of range [0,%d)", i, e, e.Link, g.NumLinks())
			}
		case Crash, Restart, Leave:
			if e.Node < 0 || int(e.Node) >= g.NumNodes() {
				return fmt.Errorf("faults: event %d (%s): node %d out of range [0,%d)", i, e, e.Node, g.NumNodes())
			}
			if e.Kind == Leave && h.LeafZone(e.Node) == scoping.NoZone {
				return fmt.Errorf("faults: event %d (%s): node %d is not a session member", i, e, e.Node)
			}
		case PartitionZone, HealZone:
			if e.Zone < 0 || int(e.Zone) >= h.NumZones() {
				return fmt.Errorf("faults: event %d (%s): zone %d out of range [0,%d)", i, e, e.Zone, h.NumZones())
			}
		case GilbertLink:
			if e.Link < 0 || e.Link >= g.NumLinks() {
				return fmt.Errorf("faults: event %d (%s): link %d out of range [0,%d)", i, e, e.Link, g.NumLinks())
			}
			fallthrough
		case GilbertAll:
			if !(e.MeanLoss >= 0 && e.MeanLoss < 1) {
				return fmt.Errorf("faults: event %d (%s): mean loss %g outside [0,1)", i, e, e.MeanLoss)
			}
			fallthrough
		case GilbertEqualMean:
			if !(e.BurstLen >= 1) || math.IsInf(e.BurstLen, 0) {
				return fmt.Errorf("faults: event %d (%s): burst length %g must be finite and >= 1", i, e, e.BurstLen)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
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
	args := fields[2:]
	needArgs := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d argument(s), got %d", fields[1], n, len(args))
		}
		return nil
	}
	argInt := func(i int) (int, error) {
		v, err := strconv.Atoi(args[i])
		if err != nil {
			return 0, fmt.Errorf("bad integer %q: %w", args[i], err)
		}
		return v, nil
	}
	argFloat := func(i int) (float64, error) {
		v, err := strconv.ParseFloat(args[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("bad number %q (want a finite number)", args[i])
		}
		return v, nil
	}
	switch fields[1] {
	case "link-down", "link-up":
		ev.Kind = LinkDown
		if fields[1] == "link-up" {
			ev.Kind = LinkUp
		}
		if err := needArgs(1); err != nil {
			return ev, err
		}
		ev.Link, err = argInt(0)
	case "crash", "restart", "leave":
		switch fields[1] {
		case "crash":
			ev.Kind = Crash
		case "restart":
			ev.Kind = Restart
		default:
			ev.Kind = Leave
		}
		if err := needArgs(1); err != nil {
			return ev, err
		}
		var n int
		n, err = argInt(0)
		ev.Node = topology.NodeID(n)
	case "partition-zone", "heal-zone":
		ev.Kind = PartitionZone
		if fields[1] == "heal-zone" {
			ev.Kind = HealZone
		}
		if err := needArgs(1); err != nil {
			return ev, err
		}
		var z int
		z, err = argInt(0)
		ev.Zone = scoping.ZoneID(z)
	case "gilbert-link":
		ev.Kind = GilbertLink
		if err := needArgs(3); err != nil {
			return ev, err
		}
		if ev.Link, err = argInt(0); err != nil {
			return ev, err
		}
		if ev.MeanLoss, err = argFloat(1); err != nil {
			return ev, err
		}
		ev.BurstLen, err = argFloat(2)
	case "gilbert-all":
		ev.Kind = GilbertAll
		if err := needArgs(2); err != nil {
			return ev, err
		}
		if ev.MeanLoss, err = argFloat(0); err != nil {
			return ev, err
		}
		ev.BurstLen, err = argFloat(1)
	case "gilbert-equal-mean":
		ev.Kind = GilbertEqualMean
		if err := needArgs(1); err != nil {
			return ev, err
		}
		ev.BurstLen, err = argFloat(0)
	default:
		return ev, fmt.Errorf("unknown event keyword %q", fields[1])
	}
	return ev, err
}
