package sharqfec

import (
	"bytes"
	"fmt"
	"slices"

	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/faults"
	"sharqfec/internal/netsim"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/srm"
	"sharqfec/internal/stats"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/topology"
)

// DataConfig parameterizes a §6.2 data/repair-traffic experiment.
// The zero value (with a Protocol) reproduces the paper's scenario on
// the Figure-10 topology: every member joins at t=1 s (memberJoinAt),
// the source turns on at t=6 s, 1024 thousand-byte packets at
// 800 kbit/s in groups of 16, measured in 0.1 s bins
// (defaultBinWidth). Every completed group's payloads are checked
// against the source's.
type DataConfig struct {
	Protocol Protocol
	// Topology defaults to Figure10Topology().
	Topology *Topology
	Seed     uint64
	// NumPackets defaults to 1024 (must be a multiple of GroupK).
	NumPackets int
	// GroupK overrides the FEC group size (default 16, the paper's).
	// SRM ignores it (no grouping).
	GroupK int
	// SourceOnAt / Until default to 6 s / 30 s. A SourceOnAt after
	// Until makes the run session-only: the source never sends, and
	// what runs is the §5 session layer every member starts on joining.
	SourceOnAt, Until float64
	// QueueLimit bounds each link direction's transmit queue (packets);
	// overflowing packets are tail-dropped (congestion loss, the
	// paper's stated cause of loss). 0 = unbounded.
	QueueLimit int
	// Faults, when non-empty, replays a scripted timeline of network
	// faults against the run (see FaultPlan). nil or empty leaves the
	// run byte-identical to the fault-free experiment at the same seed.
	Faults *FaultPlan
	// Telemetry, when non-nil, attaches the observability layer (event
	// bus, metrics time series, optional JSONL and packet traces). nil
	// leaves the run byte-identical to an uninstrumented one at the same
	// seed.
	Telemetry *TelemetryConfig
	// RateControl selects the preemptive-FEC sizing policy (see
	// RateControlConfig). nil (or mode static) keeps the paper's
	// static EWMA policy — byte-identical to a build without the seam.
	// SRM ignores it (no FEC).
	RateControl *RateControlConfig
	// Shards is how many event queues the zone-sharded engine runs: the
	// topology is partitioned by top-level zone onto that many queues,
	// which advance concurrently under conservative lookahead. 0 (the
	// default) and 1 are the same one-shard run on the caller's
	// goroutine. Results are byte-identical for the same seed at ANY
	// shard count: every link direction draws loss from its own stream,
	// and each agent owns its rate controller. Telemetry, packet trace
	// included, works at any shard count: each shard buffers its events
	// and the barrier feeds them to the one set of sinks.
	Shards int
}

// defaultBinWidth is the paper's 0.1 s measurement interval.
const defaultBinWidth = 0.1

// memberJoinAt is when every session member joins (§6: t = 1 s).
const memberJoinAt = 1

func (c *DataConfig) applyDefaults() {
	if c.Topology == nil {
		c.Topology = Figure10Topology()
	}
	if c.NumPackets == 0 {
		c.NumPackets = 1024
	}
	if c.SourceOnAt == 0 {
		c.SourceOnAt = 6
	}
	if c.Until == 0 {
		c.Until = 30
	}
}

// DataResult holds everything the paper's traffic figures plot, plus
// recovery totals.
type DataResult struct {
	Protocol  Protocol
	Topology  string
	Receivers int

	// AvgDataRepair is data+repair packets per receiver per bin
	// (Figures 14, 16, 17, 18).
	AvgDataRepair Series
	// AvgNACKs is NACK packets per receiver per bin (Figures 15, 19).
	AvgNACKs Series
	// SourceDataRepair / SourceNACKs are the packets visible at the
	// source (Figures 20, 21).
	SourceDataRepair Series
	SourceNACKs      Series

	// Recovery totals.
	NACKsSent       int
	RepairsSent     int
	RepairsInjected int
	// CompletionRate is the fraction of (receiver, group) pairs fully
	// recovered by the end of the run (SRM: packets held / expected).
	CompletionRate float64
	// Verified is true when every recovered payload matched the source.
	Verified bool
	// SessionPackets counts session-message deliveries (the §5 cost).
	SessionPackets int
	// FaultDrops counts packets that died on administratively-down
	// links; FaultLog is the timeline of scripted faults as applied.
	// Both are zero/empty without a DataConfig.Faults plan.
	FaultDrops int
	FaultLog   []string
	// Telemetry is the observability report (nil unless
	// DataConfig.Telemetry was set).
	Telemetry *TelemetryReport
}

// validate rejects, after defaulting, what no run can honour: numbers
// that would panic, hang or silently simulate nothing, bad telemetry
// or rate-control tuning, a shard count out of range and a link loss
// that is not a probability. Times must be finite and non-negative (an
// infinite horizon never returns: session timers re-arm forever), the
// stream non-empty, and the group size and queue bound non-negative (a
// negative GroupK would run as the default). Comparisons are written
// so NaN fails them. Until is checked first, so a bad horizon is named
// as such even in a session-only run, whose SourceOnAt is derived from
// it.
func (c *DataConfig) validate() error {
	for _, t := range []struct {
		name string
		v    float64
	}{{"Until", c.Until}, {"SourceOnAt", c.SourceOnAt}} {
		if !(isFinite64(t.v) && t.v >= 0) {
			return fmt.Errorf("sharqfec: %s = %v; want a finite time >= 0", t.name, t.v)
		}
	}
	if c.NumPackets <= 0 {
		return fmt.Errorf("sharqfec: NumPackets = %d; want > 0", c.NumPackets)
	}
	if c.GroupK < 0 {
		return fmt.Errorf("sharqfec: GroupK = %d; want >= 0 (0 = default 16)", c.GroupK)
	}
	if c.QueueLimit < 0 {
		return fmt.Errorf("sharqfec: QueueLimit = %d; want >= 0", c.QueueLimit)
	}
	if err := c.Telemetry.validate(); err != nil {
		return err
	}
	if err := c.RateControl.validate(); err != nil {
		return err
	}
	if c.Shards < 0 || c.Shards > eventq.MaxShards {
		return fmt.Errorf("sharqfec: Shards = %d; want 0 to %d", c.Shards, eventq.MaxShards)
	}
	g := c.Topology.spec.Graph
	for i := range g.NumLinks() {
		if l := g.Link(i); !(l.LossAB >= 0 && l.LossAB <= 1 && l.LossBA >= 0 && l.LossBA <= 1) {
			return fmt.Errorf("sharqfec: link %d (%d-%d) LossAB/LossBA = %v/%v; want probabilities in [0, 1]",
				i, l.A, l.B, l.LossAB, l.LossBA)
		}
	}
	return nil
}

// dataAgent is what the data driver asks of a protocol agent.
type dataAgent interface {
	Join()
	Stop()
	StartSource()
	EmitUnrecoveredLosses(now eventq.Time)
}

// dataProtocol is the whole SHARQFEC/SRM difference as the data driver
// sees it.
type dataProtocol struct {
	// spawn builds node's agent on its network view (attaching over a
	// dead predecessor after a restart).
	spawn func(node topology.NodeID) (dataAgent, error)
	// rejoin subscribes a respawned agent mid-session.
	rejoin func(ag dataAgent)
	// totals fills the recovery totals, completion rate and payload
	// verdict from the run's agents once the run is over.
	totals func(res *DataResult)
}

// dataRun is one run: the zone hierarchy, the seeded random source and
// the netsim fabric under one engine — an eventq.ShardGroup with one
// netsim.Network view per shard, the topology partitioned by top-level
// zone — plus the observers wired into it and the state of its agents.
// One shard is the default; more run the same scenario concurrently.
// The caller's prepare hook sees the run before any agent exists; the
// entry points that fold more out of a run than DataResult carries get
// it back with the result.
//
// The contract a scenario keeps: an agent is touched only from handlers
// on its own node or inside at() tasks; everything that acts across
// nodes (joins, source start, faults, snapshots) goes in at(); per-node
// tallies are folded after the run returns.
type dataRun struct {
	spec    *topology.Spec
	h       *scoping.Hierarchy
	src     *simrand.Source
	members []topology.NodeID // spec.Members(): the order scenarios walk agents in

	grp   *eventq.ShardGroup
	nets  []*netsim.Network // one view per shard
	owner []int32           // node → index into nets

	// The observers the driver wires into every view and agent. buses
	// holds each shard's bus, never nil: the shard's view, its agents
	// and, on shard 0, the fault engine emit there in every run, each
	// event only when a sink on the bus reads its kind. bus is the
	// telemetry bus (tel holds its sinks; the shard buses feed it, see
	// bufferShards) and census the census engine, which
	// TelemetryConfig.Census arms or prepare sets; each is nil when off.
	buses  []*telemetry.Bus // by shard
	bus    *telemetry.Bus
	tel    *telemetryRun
	flush  func() // feeds buffered shard events to bus; nil at one shard
	census *census.Engine

	// pcfg is the SHARQFEC agent config (zero under SRM); prepare may
	// tune it, short of the stream's shape, before any agent is built.
	pcfg core.Config
	// onCrash, when set, runs after the driver has stopped a crashed
	// member's agent.
	onCrash func(now eventq.Time, node topology.NodeID)
	agents  []dataAgent // by node; nil off-session
	// spawned keeps every agent ever created — including those a
	// restart replaced — in creation order, so totals and the end-of-run
	// unrecovered-loss sweep cover crashed agents too.
	spawned []dataAgent
	// done[node*groups+gid] is when a (receiver, group) pair first
	// completed, zero while it has not (SHARQFEC only; nil under SRM). A
	// restarted agent re-completes, as a late joiner, groups its
	// predecessor already finished, and each pair counts once.
	done   []eventq.Time
	groups int
	gone   []bool // by node: crashed or left, and not restarted
}

// netFor returns the network view node's agent attaches to and sends on.
func (r *dataRun) netFor(node topology.NodeID) *netsim.Network {
	return r.nets[r.owner[node]]
}

// at schedules fn at virtual time t with the whole simulation quiescent
// (a sync barrier, run before any shard dispatches events at t). Call it
// before the run starts or from inside another at task.
func (r *dataRun) at(t eventq.Time, fn func(now eventq.Time)) {
	r.grp.Sync(t, fn)
}

// coreAgent returns node's current SHARQFEC agent (nil off-session).
func (r *dataRun) coreAgent(node topology.NodeID) *core.Agent {
	ag, _ := r.agents[node].(*core.Agent)
	return ag
}

// doneOf returns node's completion times, by group.
func (r *dataRun) doneOf(node topology.NodeID) []eventq.Time {
	return r.done[int(node)*r.groups:][:r.groups]
}

// completion is the fraction of (receiver, group) pairs complete over
// the receivers keep accepts (0 when it accepts none).
func (r *dataRun) completion(keep func(m topology.NodeID) bool) float64 {
	rcvrs, done := 0, 0
	for _, m := range r.spec.Receivers {
		if !keep(m) {
			continue
		}
		rcvrs++
		for _, t := range r.doneOf(m) {
			if t > 0 {
				done++
			}
		}
	}
	if rcvrs == 0 {
		return 0
	}
	return float64(done) / float64(rcvrs*r.groups)
}

// RunData runs one data-delivery experiment and returns its traffic
// series and totals.
func RunData(cfg DataConfig) (*DataResult, error) {
	res, _, err := runData(cfg, nil)
	return res, err
}

// runData is the one data driver: the paper's session script on one
// topology, under an optional fault plan, on max(Shards, 1) shards (0
// and 1 are the same one-shard run). prepare, when non-nil, runs once
// the engine and the telemetry exist and before any view is wired or
// agent built — the place to set r.onCrash or r.census, tune r.pcfg,
// attach a sink to a view's bus (r.buses) or schedule an at() task
// (one at memberJoinAt runs before the join).
func runData(cfg DataConfig, prepare func(r *dataRun)) (*DataResult, *dataRun, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	in, known := cfg.Protocol.info()
	if !known {
		return nil, nil, fmt.Errorf("sharqfec: unknown protocol %q", cfg.Protocol)
	}
	spec := cfg.Topology.spec
	if in.flat {
		spec = globalized(spec)
	}
	spec = cloneForFaults(spec, cfg.Faults)
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		return nil, nil, err
	}
	// The partition follows the topology's native zones even when spec
	// runs globalized: flattening changes packet scoping, not the
	// physical locality a partition exploits, and a config-independent
	// partition means one owner map per (topology, shard count) for
	// every protocol.
	shards := max(cfg.Shards, 1)
	owner, lookahead := topology.PartitionByZone(spec.Graph, cfg.Topology.spec.Zones, shards)
	if lookahead <= 0 {
		return nil, nil, fmt.Errorf("sharqfec: topology %q has a zero-latency link; cannot shard", spec.Name)
	}
	r := &dataRun{
		spec: spec, h: h, src: simrand.New(cfg.Seed), members: spec.Members(),
		grp: eventq.NewShardGroup(shards, lookahead), owner: owner,
		buses:  make([]*telemetry.Bus, shards),
		agents: make([]dataAgent, spec.Graph.NumNodes()),
		gone:   make([]bool, spec.Graph.NumNodes()),
	}
	cluster, err := netsim.NewCluster(r.grp, spec.Graph, h, r.src, owner)
	if err != nil {
		return nil, nil, err
	}
	for i := range shards {
		r.nets = append(r.nets, cluster.Shard(i))
	}
	// Every view emits into its shard's bus, telemetry or not, and the
	// shard's collector counts its sends and deliveries on the shard's
	// goroutine; the collectors are merged after the run.
	cols := make([]*stats.Collector, shards)
	for i := range r.buses {
		cols[i] = stats.NewCollector(spec.Source, len(spec.Receivers), defaultBinWidth)
		r.buses[i] = telemetry.NewBus()
		r.buses[i].AttachKinds(cols[i].Sink(), telemetry.KindPacketDelivered, telemetry.KindPacketSent)
	}
	if cfg.Telemetry != nil {
		r.startTelemetry(cfg.Telemetry, cfg.Until)
	}
	var proto dataProtocol
	if cfg.Protocol == SRM {
		proto = srmProtocol(&cfg, r)
	} else {
		proto = sharqfecProtocol(&cfg, in.opts, r)
	}
	if prepare != nil {
		prepare(r)
	}

	// Wire every view; the census hop tap is atomic.
	if r.census != nil {
		r.census.BindLinks(spec.Graph)
	}
	for i, n := range r.nets {
		n.QueueLimit = cfg.QueueLimit
		n.SetTelemetry(r.buses[i])
		if r.census != nil {
			n.SetHopTap(r.census.ObserveHop)
		}
	}

	spawn := func(node topology.NodeID) (dataAgent, error) {
		ag, err := proto.spawn(node)
		if err != nil {
			return nil, err
		}
		r.agents[node] = ag
		r.spawned = append(r.spawned, ag)
		return ag, nil
	}
	for _, m := range r.members {
		if _, err := spawn(m); err != nil {
			return nil, nil, err
		}
	}

	// A fault plan's events fire in at() tasks and mutate the whole
	// network: every view's link, loss-model and membership mutators
	// apply network-wide.
	var eng *faults.Engine
	if !cfg.Faults.Empty() {
		eng = faults.NewEngine(r.nets[0], r.src, &cfg.Faults.plan)
		eng.Schedule = r.at
		eng.Telemetry = r.buses[0]
		stop := func(node topology.NodeID) bool {
			ag := r.agents[node]
			if ag != nil {
				ag.Stop()
				r.gone[node] = true
			}
			return ag != nil
		}
		eng.OnLeave = func(_ eventq.Time, node topology.NodeID) { stop(node) }
		eng.OnCrash = func(now eventq.Time, node topology.NodeID) {
			if stop(node) && r.onCrash != nil {
				r.onCrash(now, node)
			}
		}
		eng.OnRestart = func(_ eventq.Time, node topology.NodeID) {
			if node == spec.Source {
				return
			}
			if ag, err := spawn(node); err == nil {
				r.gone[node] = false
				proto.rejoin(ag)
			}
		}
		if err := eng.Start(); err != nil {
			return nil, nil, err
		}
	}

	// The session script: every member joins at memberJoinAt, in member
	// order, and the source starts sending at SourceOnAt.
	r.at(secondsToTime(memberJoinAt), func(eventq.Time) {
		for _, m := range r.members {
			r.agents[m].Join()
		}
	})
	r.at(secondsToTime(cfg.SourceOnAt), func(eventq.Time) { r.agents[spec.Source].StartSource() })
	r.grp.Run(secondsToTime(cfg.Until))
	for _, ag := range r.spawned {
		ag.EmitUnrecoveredLosses(r.grp.Queue(0).Now())
	}
	if r.flush != nil {
		r.flush()
	}

	res := &DataResult{
		Protocol:  cfg.Protocol,
		Topology:  spec.Name,
		Receivers: len(spec.Receivers),
	}
	if eng != nil {
		res.FaultLog = eng.Log()
	}
	res.Telemetry, err = r.finishTelemetry(cfg.Until)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range cols[1:] {
		cols[0].Merge(c)
	}
	fillSeries(res, cols[0])
	proto.totals(res)
	for _, n := range r.nets {
		res.FaultDrops += int(n.FaultDrops())
	}
	return res, r, nil
}

// payloadsMatch is the one payload check: a completed group's payloads
// against the source's originals. A group the source never sent, a
// short group and any differing byte all fail.
func payloadsMatch(got, want [][]byte) bool {
	if want == nil || len(got) != len(want) {
		return false
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

func sharqfecProtocol(cfg *DataConfig, opts core.Options, r *dataRun) dataProtocol {
	r.pcfg = core.DefaultConfig()
	r.pcfg.Source = r.spec.Source
	r.pcfg.NumPackets = cfg.NumPackets
	r.pcfg.Options = opts
	if cfg.GroupK > 0 {
		r.pcfg.GroupK = cfg.GroupK
	}
	r.pcfg.NewController = cfg.RateControl.factory()

	// r.done and bad[node], a payload mismatch, are written only from
	// their node's completions, so shards never share an entry.
	r.groups = r.pcfg.NumGroups()
	r.done = make([]eventq.Time, r.spec.Graph.NumNodes()*r.groups)
	bad := make([]bool, r.spec.Graph.NumNodes())
	var source *core.Agent
	return dataProtocol{
		spawn: func(node topology.NodeID) (dataAgent, error) {
			pcfg := r.pcfg
			pcfg.Telemetry = r.buses[r.owner[node]]
			ag, err := core.New(node, r.netFor(node), pcfg, r.src)
			if err != nil {
				return nil, err
			}
			// A restart replaces the crashed agent's probe; stopped
			// agents report zero.
			if r.census != nil {
				r.census.SetProbe(node, ag)
			}
			if node == r.spec.Source {
				source = ag
				return ag, nil
			}
			// In a session-only run the source never sends, so no group
			// completes and no receiver needs a hook.
			if cfg.SourceOnAt > cfg.Until {
				return ag, nil
			}
			mine := r.doneOf(node)
			ag.OnComplete = func(now eventq.Time, gid uint32, data [][]byte) {
				if mine[gid] == 0 {
					mine[gid] = now
				}
				// The source wrote this group's payloads before its
				// first packet left, so the read is causally after the
				// write at any shard count (see core.Agent.sendData).
				if !payloadsMatch(data, source.SentGroup(gid)) {
					bad[node] = true
				}
			}
			return ag, nil
		},
		rejoin: func(ag dataAgent) { ag.(*core.Agent).JoinLate() },
		totals: func(res *DataResult) {
			for _, ag := range r.spawned {
				st := &ag.(*core.Agent).Stats
				res.NACKsSent += st.NACKsSent
				res.RepairsSent += st.RepairsSent
				res.RepairsInjected += st.RepairsInjected
			}
			res.Verified = !slices.Contains(bad, true)
			res.CompletionRate = r.completion(func(topology.NodeID) bool { return true })
		},
	}
}

// srmProtocol runs the SRM baseline. Its agents expose no state probe
// (the census's traffic matrices and queue shape still apply) and
// no completion hook: totals and the sampled payload check read agent
// state after the run.
func srmProtocol(cfg *DataConfig, r *dataRun) dataProtocol {
	pcfg := srm.DefaultConfig()
	pcfg.Source = r.spec.Source
	pcfg.NumPackets = cfg.NumPackets
	return dataProtocol{
		spawn: func(node topology.NodeID) (dataAgent, error) {
			pcfg := pcfg
			pcfg.Telemetry = r.buses[r.owner[node]]
			ag, err := srm.New(node, r.netFor(node), pcfg, r.src)
			if err != nil {
				return nil, err
			}
			return ag, nil
		},
		rejoin: func(ag dataAgent) { ag.Join() },
		totals: func(res *DataResult) {
			for _, ag := range r.spawned {
				st := &ag.(*srm.Agent).Stats
				res.NACKsSent += st.RequestsSent
				res.RepairsSent += st.RepairsSent
			}
			source := r.agents[r.spec.Source].(*srm.Agent)
			held := 0
			res.Verified = true
			for _, m := range r.spec.Receivers {
				ag := r.agents[m].(*srm.Agent)
				held += ag.Held()
				for seq := uint32(0); res.Verified && seq < uint32(cfg.NumPackets); seq += 13 {
					if got, ok := ag.Payload(seq); ok {
						want, _ := source.Payload(seq)
						res.Verified = payloadsMatch([][]byte{got}, [][]byte{want})
					}
				}
			}
			res.CompletionRate = float64(held) / float64(len(r.spec.Receivers)*cfg.NumPackets)
		},
	}
}

// cloneForFaults deep-copies a spec's graph when a plan will mutate
// link state, so shared topology specs stay pristine across runs.
func cloneForFaults(spec *topology.Spec, plan *FaultPlan) *topology.Spec {
	if plan.Empty() {
		return spec
	}
	s := *spec
	s.Graph = spec.Graph.Clone()
	return &s
}

func fillSeries(res *DataResult, col *stats.Collector) {
	res.AvgDataRepair = toSeries(col.AvgDataRepair())
	res.AvgNACKs = toSeries(col.AvgNACKs())
	res.SourceDataRepair = toSeries(col.SourceDataRepair)
	res.SourceNACKs = toSeries(col.SourceNACKs)
	res.SessionPackets = int(col.Session.Sum())
}

func toSeries(s *stats.Series) Series {
	return Series{Start: s.Start, BinWidth: s.BinWidth, Bins: s.Values()}
}
