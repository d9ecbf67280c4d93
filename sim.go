package sharqfec

import (
	"fmt"

	"sharqfec/internal/eventq"
	"sharqfec/internal/faults"
	"sharqfec/internal/netsim"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// sim is the scenario harness every Run* entry point builds on: the
// zone hierarchy, the seeded random source and the netsim fabric under
// one engine — an eventq.ShardGroup with one netsim.Network view per
// shard, the topology partitioned by top-level zone. One shard is the
// default; more run the same scenario code concurrently. A scenario
// reaches the engine only through the methods below.
//
// The contract a scenario keeps: attach each agent to netFor(its node)
// and touch it only from handlers on that node or inside at() tasks;
// put everything that acts across nodes (joins, source start, faults,
// snapshots) in at(); fold per-node tallies after run() returns.
type sim struct {
	spec    *topology.Spec
	h       *scoping.Hierarchy
	src     *simrand.Source
	members []topology.NodeID // spec.Members(): the order scenarios walk agents in

	grp   *eventq.ShardGroup
	nets  []*netsim.Network // one view per shard
	owner []int32           // node → index into nets
}

// newSim builds the engine for spec with max(shards, 1) shards: 0 and 1
// are the same one-shard run. Its one caller is runData, the driver
// every run goes through, and it refuses a link loss that is not a
// probability.
// partitionZones is the zone layout the partition follows — the
// topology's native zones even when spec runs globalized, since
// flattening changes packet scoping, not the physical locality a
// partition exploits, and a config-independent partition means one
// owner map per (topology, shard count) for every protocol.
func newSim(spec *topology.Spec, seed uint64, shards int, partitionZones []topology.ZoneSpec) (*sim, error) {
	if shards < 0 || shards > eventq.MaxShards {
		return nil, fmt.Errorf("sharqfec: Shards = %d; want 0 to %d", shards, eventq.MaxShards)
	}
	shards = max(shards, 1)
	for i := range spec.Graph.NumLinks() {
		// Written so NaN fails it, as in DataConfig.validate.
		if l := spec.Graph.Link(i); !(l.LossAB >= 0 && l.LossAB <= 1 && l.LossBA >= 0 && l.LossBA <= 1) {
			return nil, fmt.Errorf("sharqfec: link %d (%d-%d) LossAB/LossBA = %v/%v; want probabilities in [0, 1]",
				i, l.A, l.B, l.LossAB, l.LossBA)
		}
	}
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		return nil, err
	}
	s := &sim{spec: spec, h: h, src: simrand.New(seed), members: spec.Members()}
	owner, lookahead := topology.PartitionByZone(spec.Graph, partitionZones, shards)
	if lookahead <= 0 {
		return nil, fmt.Errorf("sharqfec: topology %q has a zero-latency link; cannot shard", spec.Name)
	}
	s.grp = eventq.NewShardGroup(shards, lookahead)
	cluster, err := netsim.NewCluster(s.grp, spec.Graph, h, s.src, owner)
	if err != nil {
		return nil, err
	}
	s.owner = owner
	s.nets = make([]*netsim.Network, shards)
	for i := range s.nets {
		s.nets[i] = cluster.Shard(i)
	}
	return s, nil
}

// netFor returns the network view node's agent attaches to and sends on.
func (s *sim) netFor(node topology.NodeID) *netsim.Network {
	return s.nets[s.owner[node]]
}

// eachNet visits every network view, for taps, collectors, hop taps and
// per-view settings. With several shards each view calls its taps from
// its own shard's goroutine: give each view its own sink, or a
// goroutine-safe one.
func (s *sim) eachNet(fn func(n *netsim.Network)) {
	for _, n := range s.nets {
		fn(n)
	}
}

// at schedules fn at virtual time t with the whole simulation quiescent
// (a sync barrier, run before any shard dispatches events at t). Call it
// before run or from inside another at task.
func (s *sim) at(t eventq.Time, fn func(now eventq.Time)) {
	s.grp.Sync(t, fn)
}

// run advances the simulation through virtual time until (inclusive).
func (s *sim) run(until eventq.Time) {
	s.grp.Run(until)
}

// queue returns the queue telemetry and the census bind their scheduler
// gauges to (shard 0's); after run its clock reads until.
func (s *sim) queue() *eventq.Queue {
	return s.grp.Queue(0)
}

// faultEngine builds the engine replaying plan against the run: its
// events fire in at() tasks, with the whole simulation quiescent, and
// mutate the whole network (every view's link, loss-model and
// membership mutators apply network-wide). The caller sets the
// node-level hooks, then Starts it.
func (s *sim) faultEngine(plan *FaultPlan, bus *telemetry.Bus) *faults.Engine {
	eng := faults.NewEngine(s.nets[0], s.src, &plan.plan)
	eng.Schedule = s.at
	eng.Telemetry = bus
	return eng
}

// faultDrops counts packets that died on administratively-down links.
func (s *sim) faultDrops() int {
	var n uint64
	for _, net := range s.nets {
		n += net.FaultDrops()
	}
	return int(n)
}
