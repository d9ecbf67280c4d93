package faults

import (
	"fmt"

	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// Engine replays a Plan against a running netsim.Network through the
// simulation's own event queue, so scripted faults interleave
// deterministically with protocol traffic. Network-level events (link
// state, loss models, membership) are applied directly; node-level
// events (crash, restart, leave) are delegated to the hooks, because
// only the layer that wired the protocol agents knows how to stop or
// respawn one.
type Engine struct {
	net  *netsim.Network
	src  *simrand.Source
	plan Plan

	// OnCrash, OnRestart and OnLeave are invoked when the corresponding
	// event fires. A nil hook makes the event a no-op (the network-level
	// part of Leave — shrinking the delivery sets — still happens).
	OnCrash   func(now eventq.Time, node topology.NodeID)
	OnRestart func(now eventq.Time, node topology.NodeID)
	OnLeave   func(now eventq.Time, node topology.NodeID)

	// Telemetry receives a fault-transition event for every plan event
	// as it fires, when a sink reads the kind; nil reads none.
	Telemetry *telemetry.Bus

	// Schedule, when non-nil, overrides how plan events are placed on
	// the virtual clock. Zone-sharded runs point it at the shard
	// group's sync barriers, so topology mutations run while every
	// shard is quiescent; nil uses the network's own event queue.
	Schedule func(at eventq.Time, fn func(now eventq.Time))

	log []string
	// partitioned records, per zone, the links a PartitionZone event
	// disabled, so HealZone re-enables exactly those.
	partitioned map[scoping.ZoneID][]int
}

// NewEngine creates an engine for net. Fault randomness (the
// Gilbert–Elliott processes) is drawn from dedicated "faults/..."
// streams of src, never from the streams the simulation already uses.
func NewEngine(net *netsim.Network, src *simrand.Source, plan *Plan) *Engine {
	e := &Engine{net: net, src: src, partitioned: make(map[scoping.ZoneID][]int)}
	if plan != nil {
		e.plan = *plan
	}
	return e
}

// Start validates the plan against the network and schedules every
// event on the simulation queue. With an empty plan it schedules
// nothing, leaving the simulation byte-identical to an engine-less run.
// Validation is the only failure: once Start returns nil, every event
// applies.
func (e *Engine) Start() error {
	if err := e.plan.Validate(e.net.G, e.net.H); err != nil {
		return err
	}
	sched := e.Schedule
	if sched == nil {
		sched = func(at eventq.Time, fn func(now eventq.Time)) { e.net.Q.At(at, fn) }
	}
	for _, ev := range e.plan.Events {
		sched(eventq.Time(ev.At), func(now eventq.Time) { e.apply(now, ev) })
	}
	return nil
}

// Log returns the faults applied so far, in firing order, one
// "<time> <keyword> <args...>" line each.
func (e *Engine) Log() []string { return e.log }

func (e *Engine) apply(now eventq.Time, ev Event) {
	switch ev.Kind {
	case LinkDown:
		e.net.SetLinkUp(ev.Link, false)
	case LinkUp:
		e.net.SetLinkUp(ev.Link, true)
	case Crash:
		if e.OnCrash != nil {
			e.OnCrash(now, ev.Node)
		}
	case Restart:
		if e.OnRestart != nil {
			e.OnRestart(now, ev.Node)
		}
	case Leave:
		if h, err := e.net.H.WithoutMember(ev.Node); err == nil {
			e.net.SetHierarchy(h)
		}
		if e.OnLeave != nil {
			e.OnLeave(now, ev.Node)
		}
	case PartitionZone:
		e.partition(ev.Zone)
	case HealZone:
		for _, li := range e.partitioned[ev.Zone] {
			e.net.SetLinkUp(li, true)
		}
		delete(e.partitioned, ev.Zone)
	case GilbertLink, GilbertAll, GilbertEqualMean:
		first, last := 0, e.net.G.NumLinks()
		if ev.Kind == GilbertLink {
			first, last = ev.Link, ev.Link+1
		}
		for li := first; li < last; li++ {
			e.installGilbert(li, gilbertMeans(ev, e.net.G.Link(li)), ev.BurstLen)
		}
	}
	e.log = append(e.log, fmt.Sprintf("%s %s", now, ev.desc()))
	if e.Telemetry.Wants(telemetry.KindFault) {
		node, zone := topology.NoNode, scoping.NoZone
		switch kinds[ev.Kind].subject {
		case nodeSubject:
			node = ev.Node
		case zoneSubject:
			zone = ev.Zone
		}
		e.Telemetry.Emit(telemetry.Event{
			T: now.Seconds(), Kind: telemetry.KindFault, Node: node, Zone: zone,
			Group: -1, A: int64(ev.Kind), B: int64(ev.Link),
		})
	}
}

// partition disables every enabled link with exactly one endpoint
// inside the zone's membership, recording them for HealZone.
func (e *Engine) partition(zone scoping.ZoneID) {
	inside := make([]bool, e.net.G.NumNodes())
	for _, m := range e.net.H.Members(zone) {
		inside[m] = true
	}
	var cut []int
	for li := 0; li < e.net.G.NumLinks(); li++ {
		if !e.net.G.LinkUp(li) {
			continue
		}
		l := e.net.G.Link(li)
		if inside[l.A] != inside[l.B] {
			e.net.SetLinkUp(li, false)
			cut = append(cut, li)
		}
	}
	e.partitioned[zone] = append(e.partitioned[zone], cut...)
}

// installGilbert puts a burst process on both directions of a link, one
// independent stream per direction. Directions whose mean is zero keep
// the default (lossless) path so the stream is never created.
func (e *Engine) installGilbert(link int, means [2]float64, burstLen float64) {
	for dir := 0; dir < 2; dir++ {
		if means[dir] <= 0 {
			e.net.SetLossModel(link, dir, nil)
			continue
		}
		rng := e.src.StreamN2("faults/gilbert", link, dir)
		m, err := NewBurst(rng, means[dir], burstLen)
		if err != nil {
			// Validate runs burstError on every direction this
			// reaches, so a started plan never gets here.
			panic(fmt.Sprintf("faults: installGilbert(%d): %v", link, err))
		}
		e.net.SetLossModel(link, dir, m)
	}
}
