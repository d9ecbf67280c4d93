// Package fabric defines the seam between the protocol engines
// (internal/core, internal/session, internal/srm) and whatever carries
// their packets. Two implementations exist:
//
//   - internal/netsim: the deterministic discrete-event simulator used
//     for every experiment in the paper's evaluation, and
//   - internal/udpmesh: a wall-clock binding that exchanges the same
//     wire-encoded packets over real UDP sockets.
//
// The protocols only ever talk to these interfaces, so they run
// unchanged on either substrate.
//
// Timers are values: both substrates keep theirs in an eventq.Queue (the
// simulation's own, or a udpmesh node's, driven by the wall clock), so
// Scheduler.After queues the caller's callback as it is and hands back
// the queue's handle itself: an arm allocates nothing on either. A handle, like
// the agent state that stores it, belongs to the goroutine that runs the
// agent: After, Stop and Active are called only from Receive, from a
// timer callback, or — on udpmesh — from Node.Do.
package fabric

import (
	"sharqfec/internal/eventq"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// Delivery is one packet arriving at a node.
type Delivery struct {
	From  topology.NodeID
	Scope scoping.ZoneID
	Pkt   packet.Packet
}

// Agent is a protocol endpoint attached to a node. Receive is always
// invoked serially for a given agent (the simulator is single-threaded;
// the UDP mesh serializes per node), and must not block.
type Agent interface {
	Receive(now eventq.Time, d Delivery)
}

// Timer is a cancellable scheduled callback: Stop cancels it, reporting
// whether that prevented the fire, and Active reports whether it is still
// pending. The handle costs no allocation to arm, and the zero value is
// inert — how protocol state says "not armed". The callback is the
// caller's, and so is its cost: a closure made per arm is an allocation
// per arm, which is why core builds one callback per group, and session
// one per Manager, and every timer re-arms it. A timer's handle is
// already inactive when its callback runs, which is how that callback
// tells which of several timers sharing it fired.
//
// That one closure per group or Manager is still one allocation each:
// the queue could fire the group or Manager itself as an eventq.Event,
// as netsim does its hops, but Scheduler.After takes a func, and the
// benchmark harness's stub scheduler (bench/probes.go) implements
// Scheduler with that signature, so After keeps it until the harness
// changes too.
type Timer = eventq.Timer

// Scheduler provides time and timers. In the simulator, time is virtual
// and deterministic; in the UDP mesh it is the wall clock measured from
// process start.
type Scheduler interface {
	// Now returns the current time.
	Now() eventq.Time
	// After schedules fn to run d from now.
	After(d eventq.Duration, fn func(now eventq.Time)) Timer
}

// Network is what a protocol engine needs from its substrate.
type Network interface {
	// Sched returns the node's scheduler.
	Sched() Scheduler
	// Hierarchy returns the administrative zone layout.
	Hierarchy() *scoping.Hierarchy
	// Multicast sends pkt to every member of zone other than the
	// sender.
	Multicast(from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet)
	// Attach binds an agent to a node.
	Attach(node topology.NodeID, a Agent)
}
