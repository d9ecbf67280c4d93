package netsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/topology"
)

// agentFunc adapts a closure to the Agent interface.
type agentFunc func(now eventq.Time, d netsim.Delivery)

func (f agentFunc) Receive(now eventq.Time, d netsim.Delivery) { f(now, d) }

// deliveryRecord is one delivery as seen by a receiver, in a form that
// can be digested order-independently (records are sorted before
// hashing, since shards interleave wall-clock work freely).
type deliveryRecord struct {
	t    eventq.Time
	node topology.NodeID
	from topology.NodeID
	seq  uint32
}

func digestRecords(recs []deliveryRecord) string {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.node != b.node {
			return a.node < b.node
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.seq < b.seq
	})
	h := sha256.New()
	var buf [8]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.t.Seconds()*1e9))
		h.Write(buf[:])
		fmt.Fprintf(h, " %d %d %d\n", r.node, r.from, r.seq)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// clusterRun drives a clustered simulation of spec at k shards: the
// source multicasts npkts data packets to the root zone, and every
// 17th receiver answers packet 3 with a multicast into its leaf zone
// (exercising receiver-rooted fan-outs and cross-shard replies). Returns
// the sorted delivery digest plus summed counters.
func clusterRun(t *testing.T, spec *topology.Spec, k, npkts int, seed uint64) (string, uint64, uint64) {
	t.Helper()
	g := spec.Graph.Clone()
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		t.Fatalf("scoping.Build: %v", err)
	}
	owner, lookahead := topology.PartitionByZone(g, spec.Zones, k)
	if lookahead <= 0 {
		t.Fatalf("lookahead = %v, want > 0", lookahead)
	}
	grp := eventq.NewShardGroup(k, lookahead)
	c, err := netsim.NewCluster(grp, g, h, simrand.New(seed), owner)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}

	// Per-node record slices: each node's Receive is serial on its
	// owning shard, so appends are race-free without locks.
	perNode := make([][]deliveryRecord, g.NumNodes())
	for _, r := range spec.Receivers {
		v := r
		n := c.NetFor(v)
		n.Attach(v, agentFunc(func(now eventq.Time, d netsim.Delivery) {
			var seq uint32
			if dp, ok := d.Pkt.(*packet.Data); ok {
				seq = dp.Seq
			}
			perNode[v] = append(perNode[v], deliveryRecord{t: now, node: v, from: d.From, seq: seq})
			if dp, ok := d.Pkt.(*packet.Data); ok && dp.Seq == 3 && dp.Origin == spec.Source && v%17 == 0 {
				n.Multicast(v, h.LeafZone(v), &packet.Data{
					Origin: v, Seq: 9000 + uint32(v), Payload: make([]byte, 32),
				})
			}
		}))
	}

	srcQ := grp.Queue(int(owner[spec.Source]))
	srcNet := c.NetFor(spec.Source)
	for i := 0; i < npkts; i++ {
		seq := uint32(i)
		srcQ.At(eventq.Time(0.05+0.031*float64(i)), func(now eventq.Time) {
			srcNet.Multicast(spec.Source, h.Root(), &packet.Data{
				Origin: spec.Source, Seq: seq, Payload: make([]byte, 512),
			})
		})
	}
	grp.Run(eventq.Time(10))

	var recs []deliveryRecord
	for _, rs := range perNode {
		recs = append(recs, rs...)
	}
	_, delivered, dropped := c.Stats()
	return digestRecords(recs), delivered, dropped
}

// TestClusterShardCountInvariance is the heart of the sharded netsim
// contract: the same seed must yield byte-identical delivery traces at
// every shard count, on both a lossy national tree (shared zone spans,
// found by climbing) and the Figure-10 mesh (per-source spans, from
// Dijkstra trees).
func TestClusterShardCountInvariance(t *testing.T) {
	specs := []*topology.Spec{
		topology.National(topology.NationalParams{Regions: 4, Cities: 3, Suburbs: 2, SubscribersPerSuburb: 5}, 10e6, 0.010, 0.08),
		topology.Figure10(topology.Figure10Params{}),
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			base, delivered, dropped := clusterRun(t, spec, 1, 20, 42)
			if delivered == 0 {
				t.Fatal("no deliveries")
			}
			if dropped == 0 {
				t.Fatal("no loss exercised; the invariance test would be vacuous")
			}
			for _, k := range []int{2, 3, 4} {
				got, d2, l2 := clusterRun(t, spec, k, 20, 42)
				if got != base {
					t.Errorf("k=%d delivery digest diverged from k=1", k)
				}
				if d2 != delivered || l2 != dropped {
					t.Errorf("k=%d counters (%d, %d) != k=1 (%d, %d)", k, d2, l2, delivered, dropped)
				}
			}
		})
	}
}

// losslessMesh builds a zero-loss non-tree graph: a flat two-level
// national tree (six regions of twenty cities) with lateral
// region↔region links added, so NumLinks > NumNodes-1 and the fabric
// routes on per-source Dijkstra trees.
func losslessMesh() *topology.Spec {
	spec := topology.National(topology.NationalParams{Regions: 6, Cities: 20}, 45e6, 0.012, 0)
	for r := 0; r < 3; r++ {
		a := topology.NodeID(1 + r*21)
		b := topology.NodeID(1 + (r+3)*21)
		spec.Graph.AddLink(a, b, 45e6, 0.020, 0)
	}
	spec.Name = "flat-mesh"
	return spec
}

// TestClusterMatchesSequentialWithoutLoss checks a 3-shard cluster
// against the single-view fabric under back-to-back traffic (links
// queue, unlike in the oracle test): with loss disabled neither draws
// randomness, so every delivery (time, node, origin, seq) must agree
// exactly — on a tree and on a mesh.
func TestClusterMatchesSequentialWithoutLoss(t *testing.T) {
	specs := []*topology.Spec{
		topology.National(topology.NationalParams{Regions: 3, Cities: 3, Suburbs: 2, SubscribersPerSuburb: 4}, 10e6, 0.010, 0),
		losslessMesh(),
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			for i := 0; i < spec.Graph.NumLinks(); i++ {
				l := spec.Graph.Link(i)
				if l.LossAB != 0 || l.LossBA != 0 {
					t.Fatalf("link %d carries loss (%g, %g); this test needs a lossless spec", i, l.LossAB, l.LossBA)
				}
			}
			h, err := scoping.Build(spec.Zones)
			if err != nil {
				t.Fatal(err)
			}

			run := func(mc func(from topology.NodeID, zone scoping.ZoneID, pkt packet.Packet),
				attach func(v topology.NodeID, a netsim.Agent),
				schedule func(at eventq.Time, fn eventq.Handler),
				drive func()) []deliveryRecord {

				perNode := make([][]deliveryRecord, spec.Graph.NumNodes())
				for _, r := range spec.Receivers {
					v := r
					attach(v, agentFunc(func(now eventq.Time, d netsim.Delivery) {
						var seq uint32
						if dp, ok := d.Pkt.(*packet.Data); ok {
							seq = dp.Seq
						}
						perNode[v] = append(perNode[v], deliveryRecord{t: now, node: v, from: d.From, seq: seq})
					}))
				}
				for i := 0; i < 12; i++ {
					seq := uint32(i)
					schedule(eventq.Time(0.05+0.031*float64(i)), func(now eventq.Time) {
						mc(spec.Source, h.Root(), &packet.Data{
							Origin: spec.Source, Seq: seq, Payload: make([]byte, 512),
						})
					})
				}
				drive()
				var recs []deliveryRecord
				for _, rs := range perNode {
					recs = append(recs, rs...)
				}
				return recs
			}

			var q eventq.Queue
			seqNet := netsim.New(&q, spec.Graph.Clone(), h, simrand.New(7))
			seqRecs := run(
				func(f topology.NodeID, z scoping.ZoneID, p packet.Packet) { seqNet.Multicast(f, z, p) },
				seqNet.Attach,
				func(at eventq.Time, fn eventq.Handler) { q.At(at, fn) },
				func() { q.RunUntil(10) })

			g := spec.Graph.Clone()
			owner, lookahead := topology.PartitionByZone(g, spec.Zones, 3)
			grp := eventq.NewShardGroup(3, lookahead)
			c, err := netsim.NewCluster(grp, g, h, simrand.New(7), owner)
			if err != nil {
				t.Fatal(err)
			}
			cluRecs := run(
				func(f topology.NodeID, z scoping.ZoneID, p packet.Packet) { c.NetFor(f).Multicast(f, z, p) },
				func(v topology.NodeID, a netsim.Agent) { c.NetFor(v).Attach(v, a) },
				func(at eventq.Time, fn eventq.Handler) { grp.Queue(int(owner[spec.Source])).At(at, fn) },
				func() { grp.Run(10) })

			if len(seqRecs) == 0 {
				t.Fatal("sequential reference delivered nothing")
			}
			if got, want := digestRecords(cluRecs), digestRecords(seqRecs); got != want {
				t.Errorf("clustered deliveries diverge from sequential ground truth:\n  clustered  %d records %s\n  sequential %d records %s",
					len(cluRecs), got, len(seqRecs), want)
			}
		})
	}
}

// TestPartitionByZone checks the partition contract: top-level zone
// subtrees never split across shards, loads balance, and the lookahead
// is the minimum boundary-link latency.
func TestPartitionByZone(t *testing.T) {
	spec := topology.National(topology.NationalParams{Regions: 8, Cities: 3, Suburbs: 2, SubscribersPerSuburb: 5}, 10e6, 0.010, 0)
	for _, k := range []int{1, 2, 3, 5} {
		owner, lookahead := topology.PartitionByZone(spec.Graph, spec.Zones, k)
		if lookahead <= 0 {
			t.Fatalf("k=%d: lookahead %v", k, lookahead)
		}
		// Every zone's member set must be shard-homogeneous, except the
		// root zone (which spans everything).
		for _, z := range spec.Zones[1:] {
			var want int32 = -1
			walk := func(leaves []topology.NodeID) {
				for _, v := range leaves {
					if want < 0 {
						want = owner[v]
					} else if owner[v] != want {
						t.Fatalf("k=%d: zone %d splits across shards %d and %d", k, z.ID, want, owner[v])
					}
				}
			}
			walk(z.Leaves)
			for _, sub := range spec.Zones {
				if sub.Parent == z.ID {
					walk(sub.Leaves)
				}
			}
		}
		// All k shards get work when there are enough blocks.
		used := map[int32]bool{}
		for _, s := range owner {
			used[s] = true
		}
		if len(used) != min(k, 8) {
			t.Errorf("k=%d: %d shards used, want %d", k, len(used), min(k, 8))
		}
	}
}
