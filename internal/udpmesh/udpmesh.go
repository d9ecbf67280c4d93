// Package udpmesh binds the protocol engines to real UDP sockets: the
// same wire-encoded packets the simulator models are exchanged between
// processes (or in-process nodes) over the loopback or a LAN, with
// wall-clock timers replacing the virtual clock.
//
// Administrative scoping is realized as membership lists: a multicast to
// zone Z is fanned out by unicast to every member of Z (the deployment
// story when admin-scoped IP multicast groups are unavailable — one
// group address per zone would replace the fan-out loop one-for-one).
// An optional synthetic Bernoulli loss is applied per destination to
// loss-eligible packets, standing in for the lossy links of §6.
//
// Clock note: each node's Scheduler measures time from its own start, so
// clocks are NOT synchronized across nodes — which is exactly the
// condition the paper's echo-based RTT measurement and local-timestamp
// election formula are designed for.
package udpmesh

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// meshHeader prefixes every datagram: origin node (4 bytes) and scope
// zone (2 bytes), the demultiplexing a per-zone multicast group address
// would otherwise provide.
const meshHeader = 6

// Mesh is the shared description of a session: the zone hierarchy, every
// member's address, and the synthetic loss rate.
type Mesh struct {
	H     *scoping.Hierarchy
	Addrs map[topology.NodeID]*net.UDPAddr
	// Loss is the per-destination drop probability applied to
	// loss-eligible packets (data and repairs), emulating lossy links.
	Loss float64
	// Seed drives each node's independent loss stream.
	Seed uint64
}

// Node is one session member's endpoint. It implements fabric.Network
// for exactly one node ID: timers and incoming packets are serialized
// onto a single goroutine, preserving the protocols' single-threaded
// execution model.
type Node struct {
	mesh  *Mesh
	id    topology.NodeID
	conn  *net.UDPConn
	start time.Time

	// timers holds every armed timer, by wall-clock time since start,
	// and tells each callback the wall-clock time it runs at (its
	// Clock). It belongs to the executor goroutine like the agent state
	// it serves: Sched().After and a Timer's methods may be called only
	// from code running there (a timer callback, Receive, or Do).
	timers eventq.Queue

	work chan func()
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	agent  fabric.Agent
	closed bool

	lossRNG *simrand.Rand
}

// NewNode opens (or adopts) the member's socket and starts its executor
// and reader. If conn is nil the node listens on mesh.Addrs[id].
func NewNode(mesh *Mesh, id topology.NodeID, conn *net.UDPConn) (*Node, error) {
	if _, ok := mesh.Addrs[id]; !ok {
		return nil, fmt.Errorf("udpmesh: node %d has no address", id)
	}
	if conn == nil {
		c, err := net.ListenUDP("udp", mesh.Addrs[id])
		if err != nil {
			return nil, fmt.Errorf("udpmesh: node %d listen: %w", id, err)
		}
		conn = c
	}
	n := &Node{
		mesh:    mesh,
		id:      id,
		conn:    conn,
		start:   time.Now(),
		work:    make(chan func(), 1024),
		done:    make(chan struct{}),
		lossRNG: simrand.New(mesh.Seed).StreamN("udpmesh/loss", int(id)),
	}
	n.timers.Clock = n.now
	n.wg.Add(2)
	go n.executor()
	go n.reader()
	return n, nil
}

// ID returns the member's node ID.
func (n *Node) ID() topology.NodeID { return n.id }

// Close shuts the node down: the socket closes, both goroutines exit,
// and work or timers still pending never run.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.done)
	err := n.conn.Close()
	n.wg.Wait()
	return err
}

// executor is the node's "main loop": it runs posted work and due timers
// serially, sleeping until the earlier of the two. Whichever wakes it, the
// timer queue is advanced to wall-clock time first, so a timer that was
// due before a piece of work arrived fires before it.
func (n *Node) executor() {
	defer n.wg.Done()
	wake := time.NewTimer(math.MaxInt64)
	defer wake.Stop()
	for {
		var due <-chan time.Time
		if next := n.timers.NextAt(); next != eventq.Never {
			wake.Reset(next.Sub(n.now()).Std())
			due = wake.C
		}
		var fn func()
		select {
		case fn = <-n.work:
		case <-due:
		case <-n.done:
			return
		}
		n.timers.RunUntil(n.now())
		if fn != nil {
			fn()
		}
	}
}

// Do runs fn on the node's executor goroutine — the way external code
// (setup, shutdown, experiment drivers) touches agent state without
// racing the protocol.
func (n *Node) Do(fn func()) { n.post(fn) }

// post schedules fn on the executor; it is dropped after Close.
func (n *Node) post(fn func()) {
	select {
	case n.work <- fn:
	case <-n.done:
	}
}

// reader decodes datagrams and hands them to the agent on the executor.
func (n *Node) reader() {
	defer n.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if sz < meshHeader {
			continue
		}
		from := topology.NodeID(int32(binary.BigEndian.Uint32(buf)))
		zone := scoping.ZoneID(int16(binary.BigEndian.Uint16(buf[4:])))
		pkt, err := packet.Unmarshal(append([]byte(nil), buf[meshHeader:sz]...))
		if err != nil {
			continue // corrupt datagram: drop, as a router would
		}
		n.post(func() {
			n.mu.Lock()
			agent := n.agent
			n.mu.Unlock()
			if agent != nil {
				agent.Receive(n.now(), fabric.Delivery{From: from, Scope: zone, Pkt: pkt})
			}
		})
	}
}

func (n *Node) now() eventq.Time {
	return eventq.Time(time.Since(n.start).Seconds())
}

// Sched implements fabric.Network with wall-clock timers; see Node.timers
// for where After may be called from.
func (n *Node) Sched() fabric.Scheduler { return rtScheduler{n} }

// Hierarchy implements fabric.Network.
func (n *Node) Hierarchy() *scoping.Hierarchy { return n.mesh.H }

// Attach implements fabric.Network; a Node only hosts its own member.
func (n *Node) Attach(node topology.NodeID, a fabric.Agent) {
	if node != n.id {
		panic(fmt.Sprintf("udpmesh: node %d cannot host agent for %d", n.id, node))
	}
	n.mu.Lock()
	n.agent = a
	n.mu.Unlock()
}

// Multicast implements fabric.Network: unicast fan-out to every member
// of the zone, with synthetic per-destination loss for lossy packets.
func (n *Node) Multicast(from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet) {
	if from != n.id {
		panic(fmt.Sprintf("udpmesh: node %d cannot send as %d", n.id, from))
	}
	body, err := pkt.MarshalBinary()
	if err != nil {
		return
	}
	buf := make([]byte, meshHeader+len(body))
	binary.BigEndian.PutUint32(buf, uint32(from))
	binary.BigEndian.PutUint16(buf[4:], uint16(zone))
	copy(buf[meshHeader:], body)

	for _, m := range n.mesh.H.Members(zone) {
		if m == n.id {
			continue
		}
		addr, ok := n.mesh.Addrs[m]
		if !ok {
			continue
		}
		if pkt.Lossy() && n.lossRNG.Bernoulli(n.mesh.Loss) {
			continue
		}
		_, _ = n.conn.WriteToUDP(buf, addr)
	}
}

var _ fabric.Network = (*Node)(nil)

// rtScheduler is the wall-clock fabric.Scheduler.
type rtScheduler struct{ n *Node }

func (s rtScheduler) Now() eventq.Time { return s.n.now() }

// After arms fn for d past the wall clock's now (the queue's own clock
// stands at the executor's last wake-up); the queue's Clock hands fn the
// time it actually runs at, so a busy executor's lag never enters a
// timestamp that is sent. Arming allocates nothing: fn is queued as it
// is.
func (s rtScheduler) After(d eventq.Duration, fn func(eventq.Time)) fabric.Timer {
	return s.n.timers.At(s.n.now().Add(max(d, 0)), fn)
}

// NewLocalMesh builds an in-process mesh on loopback with ephemeral
// ports: sockets are opened first so every member's address is known,
// then nodes are constructed around them. Close every returned node when
// done.
func NewLocalMesh(h *scoping.Hierarchy, members []topology.NodeID, loss float64, seed uint64) (*Mesh, map[topology.NodeID]*Node, error) {
	mesh := &Mesh{H: h, Addrs: map[topology.NodeID]*net.UDPAddr{}, Loss: loss, Seed: seed}
	conns := map[topology.NodeID]*net.UDPConn{}
	for _, m := range members {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			for _, cc := range conns {
				cc.Close()
			}
			return nil, nil, fmt.Errorf("udpmesh: listen: %w", err)
		}
		conns[m] = c
		mesh.Addrs[m] = c.LocalAddr().(*net.UDPAddr)
	}
	nodes := map[topology.NodeID]*Node{}
	for _, m := range members {
		n, err := NewNode(mesh, m, conns[m])
		if err != nil {
			for _, nn := range nodes {
				nn.Close()
			}
			return nil, nil, err
		}
		nodes[m] = n
	}
	return mesh, nodes, nil
}
