package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"sharqfec"
	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/fabric"
	"sharqfec/internal/faults"
	"sharqfec/internal/fec"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/parallel"
	"sharqfec/internal/ratecontrol"
	"sharqfec/internal/scoping"
	"sharqfec/internal/session"
	"sharqfec/internal/simrand"
	"sharqfec/internal/stats"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/telemetry/health"
	"sharqfec/internal/telemetry/spans"
	"sharqfec/internal/topology"
)

// A probe is a fixed-iteration loop over one layer's public API, run
// from outside the program with its outputs checked. It writes the
// metric it is named after, and any sibling metrics the same loop
// yields, into out.
type probe struct {
	metric string
	run    func(seed uint64, out map[string]float64) error
}

var probes = []probe{
	{"eventq.schedule_fire_ns", probeEventqShallow},
	{"eventq.schedule_fire_deep_ns", probeEventqDeep},
	{"eventq.cancel_ns", probeEventqCancel},
	{"eventq.shard_epoch_us", probeShardEpoch},
	{"eventq.cross_post_ns", probeCrossPost},
	{"netsim.hop_ns", probeNetsimRoot},
	{"netsim.scoped_hop_ns", probeNetsimLeaf},
	{"netsim.cluster_hop_ns", probeNetsimCluster},
	{"fec.encode_mbps", probeFECEncode},
	{"fec.encode_h1_mbps", probeFECEncodeH1},
	{"fec.decode_mbps", probeFECDecode},
	{"fec.decode_cold_mbps", probeFECDecodeCold},
	{"core.data_rx_ns", probeCoreDataRx},
	{"core.loss_group_ns", probeCoreLossGroup},
	{"session.msg_rx_ns", probeSessionRx},
	{"telemetry.jsonl_ns", probeTelemetrySinks},
	{"ratecontrol.decision_ns", probeRateControl},
	{"stats.tap_ns", probeStatsTap},
	{"packet.marshal_ns", probePacket},
	{"topology.national_build_ms", probeTopology},
}

// runProbes runs every probe under a probe.<layer>.<metric> span.
func runProbes(seed uint64, tr *tracer, parent int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		id := tr.begin("probe."+p.metric, "", parent)
		err := p.run(seed, out)
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("probe %s: %w", p.metric, err)
		}
	}
	return out, nil
}

const probeReps = 5

// nsPerOp times fn, which performs n operations, probeReps times and
// returns the median nanoseconds per operation.
func nsPerOp(n int, fn func()) float64 {
	times := make([]float64, probeReps)
	for r := range times {
		t0 := time.Now()
		fn()
		times[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(times)
}

// --- eventq ---

// delays is a fixed table of pseudo-random event delays in (0, 1], so
// heap sifts see realistic key order without timing a generator.
func delays(seed uint64) []eventq.Duration {
	rng := simrand.New(seed).Stream("bench/eventq")
	d := make([]eventq.Duration, 4096)
	for i := range d {
		d[i] = eventq.Duration(1 - rng.Float64())
	}
	return d
}

// scheduleFire holds a queue at the given depth and measures one
// schedule plus one fire per operation (the classic hold model).
func scheduleFire(seed uint64, depth, n int) (ns, allocs float64, err error) {
	var q eventq.Queue
	d := delays(seed)
	fired := 0
	h := func(eventq.Time) { fired++ }
	for i := 0; i < depth; i++ {
		q.After(d[i%len(d)], h)
	}
	loop := func() {
		for i := 0; i < n; i++ {
			q.After(d[i%len(d)], h)
			q.Step()
		}
	}
	ns = nsPerOp(n, loop)
	allocs = mallocsDuring(loop) / float64(n)
	if want := (probeReps + 1) * n; fired != want || q.Len() != depth {
		return 0, 0, fmt.Errorf("fired %d events (want %d), depth %d (want %d)", fired, want, q.Len(), depth)
	}
	return ns, allocs, nil
}

func probeEventqShallow(seed uint64, out map[string]float64) error {
	ns, allocs, err := scheduleFire(seed, 1000, 400_000)
	out["eventq.schedule_fire_ns"] = ns
	out["eventq.allocs_per_event"] = allocs
	return err
}

func probeEventqDeep(seed uint64, out map[string]float64) error {
	ns, _, err := scheduleFire(seed, 1_000_000, 200_000)
	out["eventq.schedule_fire_deep_ns"] = ns
	return err
}

func probeEventqCancel(seed uint64, out map[string]float64) error {
	var q eventq.Queue
	d := delays(seed)
	h := func(eventq.Time) {}
	for i := 0; i < 1000; i++ {
		q.After(d[i], h)
	}
	const n = 400_000
	stopped := 0
	out["eventq.cancel_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if q.After(d[i%len(d)], h).Stop() {
				stopped++
			}
		}
	})
	if stopped != probeReps*n || q.Len() != 1000 {
		return fmt.Errorf("stopped %d timers (want %d), depth %d", stopped, probeReps*n, q.Len())
	}
	return nil
}

const shardLookahead = eventq.Duration(0.001)

// paddedCount keeps each shard's counter on its own cache line.
type paddedCount struct {
	n int
	_ [56]byte
}

// shardRun drives a 2-shard group through probeReps×epochs barrier
// epochs in a single Run (so one worker serves the whole measurement):
// every shard fires one self-rescheduling event per epoch, which also
// posts `posts` no-op cross events to the other shard. It returns the
// median wall nanoseconds per epoch over the repetitions.
func shardRun(epochs, posts int) (float64, error) {
	g := eventq.NewShardGroup(2, shardLookahead)
	var ticks [2]paddedCount
	marks := make([]time.Time, 0, probeReps+1)
	helped := false
	nop := func(eventq.Time) {}
	for i := 0; i < 2; i++ {
		i, q := i, g.Queue(i)
		var tick eventq.Handler
		tick = func(now eventq.Time) {
			if i == 0 && ticks[0].n%epochs == 0 {
				marks = append(marks, time.Now())
				helped = helped || parallel.Active() > 0
			}
			ticks[i].n++
			for p := 0; p < posts; p++ {
				g.Post(i, 1-i, now.Add(shardLookahead), nop)
			}
			q.At(now.Add(shardLookahead), tick)
		}
		q.At(0, tick)
	}
	g.Run(eventq.Time(float64(probeReps*epochs)+0.5) * eventq.Time(shardLookahead))
	if len(marks) != probeReps+1 || ticks[1].n < probeReps*epochs {
		return 0, fmt.Errorf("shards ticked %d / %d times over %d epochs", ticks[0].n, ticks[1].n, probeReps*epochs)
	}
	if want := uint64(probeReps * epochs * posts * 2); g.Posted() < want {
		return 0, fmt.Errorf("%d cross events merged, want at least %d", g.Posted(), want)
	}
	if runtime.GOMAXPROCS(0) > 1 && !helped {
		return 0, fmt.Errorf("shard group ran without its worker")
	}
	times := make([]float64, probeReps)
	for r := range times {
		times[r] = float64(marks[r+1].Sub(marks[r]).Nanoseconds()) / float64(epochs)
	}
	return median(times), nil
}

func probeShardEpoch(_ uint64, out map[string]float64) error {
	ns, err := shardRun(20_000, 0)
	out["eventq.shard_epoch_us"] = ns / 1e3
	return err
}

// probeCrossPost makes every epoch carry 512 cross posts, so the
// barrier itself is a small part of the time per post.
func probeCrossPost(_ uint64, out map[string]float64) error {
	const posts = 256
	ns, err := shardRun(1000, posts)
	out["eventq.cross_post_ns"] = ns / (2 * posts)
	return err
}

// --- netsim ---

// sinkAgent receives and counts; the netsim probes measure forwarding,
// not protocol work.
type sinkAgent struct{ got *int }

func (s sinkAgent) Receive(eventq.Time, fabric.Delivery) { *s.got++ }

func dataPacket(origin topology.NodeID) *packet.Data {
	p := &packet.Data{Origin: origin, Seq: 100, Group: 6, Index: 4, GroupK: 16, Payload: make([]byte, 983)}
	for i := range p.Payload {
		p.Payload[i] = byte(i * 7)
	}
	return p
}

// netsimHop multicasts n 1000-byte data packets from `from` into zone
// on the sequential network and returns ns per link crossing.
func netsimHop(seed uint64, leaf bool, n int, out map[string]float64, metric string) error {
	spec := topology.Figure10(topology.Figure10Params{})
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		return err
	}
	var q eventq.Queue
	net := netsim.New(&q, spec.Graph, h, simrand.New(seed))
	delivered, hops := 0, 0
	for _, m := range spec.Members() {
		net.Attach(m, sinkAgent{&delivered})
	}
	net.SetHopTap(func(int, int, packet.Packet) { hops++ })
	from, zone := spec.Source, h.Root()
	if leaf {
		from = spec.Receivers[len(spec.Receivers)-1]
		zone = h.LeafZone(from)
	}
	pkt := dataPacket(from)
	loop := func() {
		for i := 0; i < n; i++ {
			net.Multicast(from, zone, pkt)
			q.Run()
		}
	}
	loop() // warm: routing trees, pruned child sets, hop pool
	hops = 0
	wall := nsPerOp(1, loop)
	out[metric] = wall * probeReps / float64(hops)
	if !leaf {
		out["netsim.allocs_per_mcast"] = mallocsDuring(loop) / float64(n)
	}
	sent, got, _ := net.Stats()
	if hops == 0 || delivered == 0 || uint64(delivered) != got || sent == 0 {
		return fmt.Errorf("%d hops, %d deliveries seen by agents, network reports %d sent / %d delivered", hops, delivered, sent, got)
	}
	return nil
}

func probeNetsimRoot(seed uint64, out map[string]float64) error {
	return netsimHop(seed, false, 2000, out, "netsim.hop_ns")
}

func probeNetsimLeaf(seed uint64, out map[string]float64) error {
	return netsimHop(seed, true, 40_000, out, "netsim.scoped_hop_ns")
}

// probeNetsimCluster sends the root-zone multicast through a 2-shard
// Cluster, from events on the source's shard at the paper's 10 ms data
// spacing, so the figure includes the barrier epochs a real run pays.
func probeNetsimCluster(seed uint64, out map[string]float64) error {
	spec := topology.Figure10(topology.Figure10Params{})
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		return err
	}
	owner, lookahead := topology.PartitionByZone(spec.Graph, spec.Zones, 2)
	if lookahead <= 0 {
		return fmt.Errorf("partition has no lookahead")
	}
	grp := eventq.NewShardGroup(2, lookahead)
	cl, err := netsim.NewCluster(grp, spec.Graph, h, simrand.New(seed), owner)
	if err != nil {
		return err
	}
	var delivered, hops [2]paddedCount
	for _, m := range spec.Members() {
		cl.NetFor(m).Attach(m, sinkAgent{&delivered[cl.Owner(m)].n})
	}
	for i := 0; i < 2; i++ {
		i := i
		cl.Shard(i).SetHopTap(func(int, int, packet.Packet) { hops[i].n++ })
	}
	const n = 2000
	src := cl.NetFor(spec.Source)
	pkt := dataPacket(spec.Source)
	send := func(eventq.Time) { src.Multicast(spec.Source, h.Root(), pkt) }
	until := eventq.Time(0)
	wall := nsPerOp(1, func() {
		for i := 0; i < n; i++ {
			src.Q.At(until.Add(eventq.Duration(i)*0.010), send)
		}
		until = until.Add(n*0.010 + 1)
		grp.Run(until)
	})
	total := hops[0].n + hops[1].n
	if total == 0 || delivered[0].n == 0 || delivered[1].n == 0 {
		return fmt.Errorf("%d hops, deliveries per shard %d / %d", total, delivered[0].n, delivered[1].n)
	}
	out["netsim.cluster_hop_ns"] = wall * probeReps / float64(total)
	return nil
}

// --- fec ---

const (
	fecK       = 16
	fecPayload = 1000
)

func fecGroup() (*fec.Codec, [][]byte, error) {
	codec, err := fec.NewCodec(fecK)
	if err != nil {
		return nil, nil, err
	}
	data := make([][]byte, fecK)
	for i := range data {
		data[i] = make([]byte, fecPayload)
		for j := range data[i] {
			data[i][j] = byte(i*31 + j*7 + 1)
		}
	}
	return codec, data, nil
}

// mbps converts ns per group operation into MB/s of group payload.
func mbps(nsPerGroup float64) float64 { return fecK * fecPayload / nsPerGroup * 1e3 }

func fecEncode(h int, out map[string]float64, metric, allocMetric string) error {
	codec, data, err := fecGroup()
	if err != nil {
		return err
	}
	const n = 2000
	var shares []fec.Share
	loop := func() {
		for i := 0; i < n; i++ {
			if shares, err = codec.Repairs(data, h); err != nil {
				return
			}
		}
	}
	out[metric] = mbps(nsPerOp(n, loop))
	if allocMetric != "" {
		out[allocMetric] = mallocsDuring(loop) / n
	}
	if err != nil {
		return err
	}
	// Round trip: drop the first h data shares, decode from the rest.
	in := append([]fec.Share(nil), shares...)
	for i := h; i < fecK; i++ {
		in = append(in, fec.Share{Index: i, Data: data[i]})
	}
	return checkDecode(codec, in, data)
}

func checkDecode(codec *fec.Codec, shares []fec.Share, want [][]byte) error {
	got, err := codec.Decode(shares)
	if err != nil {
		return err
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("decoded share %d differs from the source", i)
		}
	}
	return nil
}

func probeFECEncode(_ uint64, out map[string]float64) error {
	return fecEncode(4, out, "fec.encode_mbps", "fec.encode_allocs")
}

func probeFECEncodeH1(_ uint64, out map[string]float64) error {
	return fecEncode(1, out, "fec.encode_h1_mbps", "")
}

// erasureSets returns count distinct decode inputs for one group, each
// missing four data shares and holding four of eight repair shares.
func erasureSets(codec *fec.Codec, data [][]byte, seed uint64, count int) ([][]fec.Share, error) {
	repairs, err := codec.Repairs(data, 8)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(seed).Stream("bench/fec")
	sets := make([][]fec.Share, 0, count)
	seen := map[[2]uint32]bool{}
	for len(sets) < count {
		lost := rng.Perm(fecK)[:4]
		used := rng.Perm(len(repairs))[:4]
		var key [2]uint32
		for i := 0; i < 4; i++ {
			key[0] |= 1 << uint(lost[i])
			key[1] |= 1 << uint(used[i])
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		set := make([]fec.Share, 0, fecK)
		for i := 0; i < fecK; i++ {
			if key[0]&(1<<uint(i)) == 0 {
				set = append(set, fec.Share{Index: i, Data: data[i]})
			}
		}
		for i := range repairs {
			if key[1]&(1<<uint(i)) != 0 {
				set = append(set, repairs[i])
			}
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// fecDecode cycles through count erasure patterns. One pattern always
// hits the decode-matrix cache; 4096 rotate past its 2048 entries, so
// every decode inverts afresh.
func fecDecode(seed uint64, count int, out map[string]float64, metric, allocMetric string) error {
	codec, data, err := fecGroup()
	if err != nil {
		return err
	}
	sets, err := erasureSets(codec, data, seed, count)
	if err != nil {
		return err
	}
	const n = 4096
	loop := func() {
		for i := 0; i < n; i++ {
			if _, err = codec.Decode(sets[i%count]); err != nil {
				return
			}
		}
	}
	out[metric] = mbps(nsPerOp(n, loop))
	if allocMetric != "" {
		out[allocMetric] = mallocsDuring(loop) / n
	}
	if err != nil {
		return err
	}
	for _, i := range []int{0, count / 2, count - 1} {
		if err := checkDecode(codec, sets[i], data); err != nil {
			return err
		}
	}
	return nil
}

func probeFECDecode(seed uint64, out map[string]float64) error {
	return fecDecode(seed, 1, out, "fec.decode_mbps", "fec.decode_allocs")
}

func probeFECDecodeCold(seed uint64, out map[string]float64) error {
	return fecDecode(seed, 4096, out, "fec.decode_cold_mbps", "")
}

// --- core and session, through a stub fabric.Network ---

// stubNet is a fabric.Network with a real event queue for timers and a
// Multicast that only records, so an agent runs with no network under
// it.
type stubNet struct {
	q    eventq.Queue
	h    *scoping.Hierarchy
	sent []sentPacket
}

type sentPacket struct {
	at  eventq.Time
	pkt packet.Packet
}

type stubSched struct{ q *eventq.Queue }

func (s stubSched) Now() eventq.Time { return s.q.Now() }
func (s stubSched) After(d eventq.Duration, fn func(eventq.Time)) fabric.Timer {
	return s.q.After(d, fn)
}

func (n *stubNet) Sched() fabric.Scheduler              { return stubSched{&n.q} }
func (n *stubNet) Hierarchy() *scoping.Hierarchy        { return n.h }
func (n *stubNet) Attach(topology.NodeID, fabric.Agent) {}
func (n *stubNet) Multicast(_ topology.NodeID, _ scoping.ZoneID, pkt packet.Packet) {
	n.sent = append(n.sent, sentPacket{n.q.Now(), pkt})
}

const coreGroups = 64

// coreStream runs a source agent alone on a stub network and returns
// its data packets with their send times, the agent itself (for the
// original payloads) and the hierarchy both ends share.
func coreStream(seed uint64) ([]sentPacket, *core.Agent, *scoping.Hierarchy, core.Config, error) {
	spec := topology.Chain(2, 10e6, 0.010, 0)
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		return nil, nil, nil, core.Config{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Source = spec.Source
	cfg.NumPackets = coreGroups * cfg.GroupK
	net := &stubNet{h: h}
	src, err := core.New(spec.Source, net, cfg, simrand.New(seed))
	if err != nil {
		return nil, nil, nil, cfg, err
	}
	src.Join()
	src.StartSource()
	net.q.RunUntil(eventq.Time(float64(cfg.NumPackets)*cfg.InterPacket() + 1))
	var stream []sentPacket
	for _, s := range net.sent {
		if _, ok := s.pkt.(*packet.Data); ok {
			stream = append(stream, s)
		}
	}
	if len(stream) != cfg.NumPackets {
		return nil, nil, nil, cfg, fmt.Errorf("source sent %d data packets, want %d", len(stream), cfg.NumPackets)
	}
	return stream, src, h, cfg, nil
}

// replay feeds packets to a fresh receiver agent on its own stub
// network, advancing the agent's clock (and firing its timers) to each
// packet's time, and returns the agent and the wall time taken.
func replay(seed uint64, h *scoping.Hierarchy, cfg core.Config, src *core.Agent, stream []sentPacket) (*core.Agent, time.Duration, error) {
	net := &stubNet{h: h}
	ag, err := core.New(1, net, cfg, simrand.New(seed))
	if err != nil {
		return nil, 0, err
	}
	good := true
	ag.OnComplete = func(_ eventq.Time, gid uint32, data [][]byte) {
		for i, want := range src.SentGroup(gid) {
			good = good && bytes.Equal(data[i], want)
		}
	}
	ag.Join()
	t0 := time.Now()
	for _, s := range stream {
		net.q.RunUntil(s.at)
		ag.Receive(s.at, fabric.Delivery{From: cfg.Source, Scope: h.Root(), Pkt: s.pkt})
	}
	wall := time.Since(t0)
	if ag.Stats.GroupsCompleted != coreGroups || !good {
		return nil, 0, fmt.Errorf("receiver completed %d of %d groups, payloads equal: %v", ag.Stats.GroupsCompleted, coreGroups, good)
	}
	return ag, wall, nil
}

// replayNs is the median over probeReps replays of ns per unit, where
// the stream holds `units` units (packets, or groups).
func replayNs(seed uint64, h *scoping.Hierarchy, cfg core.Config, src *core.Agent, stream []sentPacket, units int) (float64, *core.Agent, error) {
	times := make([]float64, probeReps)
	var last *core.Agent
	for r := range times {
		ag, wall, err := replay(seed, h, cfg, src, stream)
		if err != nil {
			return 0, nil, err
		}
		times[r] = float64(wall.Nanoseconds()) / float64(units)
		last = ag
	}
	return median(times), last, nil
}

func probeCoreDataRx(seed uint64, out map[string]float64) error {
	stream, src, h, cfg, err := coreStream(seed)
	if err != nil {
		return err
	}
	ns, ag, err := replayNs(seed, h, cfg, src, stream, len(stream))
	if err != nil {
		return err
	}
	out["core.data_rx_ns"] = ns
	out["core.agent_kb"] = float64(ag.StateCensus().MemBytes) / 1024
	return nil
}

// probeCoreLossGroup erases the first four data packets of every group
// and follows each group with four FEC repair shares, so every group
// completes by decoding.
func probeCoreLossGroup(seed uint64, out map[string]float64) error {
	stream, src, h, cfg, err := coreStream(seed)
	if err != nil {
		return err
	}
	codec, err := fec.NewCodec(cfg.GroupK)
	if err != nil {
		return err
	}
	const erased = 4
	var lossy []sentPacket
	for _, s := range stream {
		d := s.pkt.(*packet.Data)
		if int(d.Index) >= erased {
			lossy = append(lossy, s)
		}
		if int(d.Index) != cfg.GroupK-1 {
			continue
		}
		shares, err := codec.Repairs(src.SentGroup(d.Group), erased)
		if err != nil {
			return err
		}
		for _, sh := range shares {
			lossy = append(lossy, sentPacket{s.at, &packet.Repair{
				Origin: cfg.Source, Group: d.Group, Index: uint8(sh.Index), GroupK: uint8(cfg.GroupK),
				NewMaxSeq: uint32(cfg.GroupK + erased - 1), Zone: int16(h.Root()), Payload: sh.Data,
			}})
		}
	}
	ns, ag, err := replayNs(seed, h, cfg, src, lossy, coreGroups)
	if err != nil {
		return err
	}
	if ag.Stats.RepairsReceived != coreGroups*erased {
		return fmt.Errorf("receiver saw %d repairs, want %d", ag.Stats.RepairsReceived, coreGroups*erased)
	}
	out["core.loss_group_ns"] = ns
	return nil
}

func probeSessionRx(seed uint64, out map[string]float64) error {
	spec := topology.Figure10(topology.Figure10Params{})
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		return err
	}
	me := spec.Receivers[0]
	zone := h.LeafZone(me)
	peers := h.Members(zone)
	m := session.New(me, &stubNet{h: h}, session.DefaultConfig(), simrand.New(seed).StreamN("session", int(me)))
	msgs := make([]*packet.Session, len(peers))
	for i, p := range peers {
		msg := &packet.Session{Origin: p, Zone: int16(zone), SentAt: 9.5, ZCR: peers[0], MaxSeq: 100}
		for j := 0; j < 20; j++ {
			peer := topology.NodeID(j)
			if j == 0 {
				peer = me // one entry echoes this node, so the RTT-sample path runs
			}
			msg.Entries = append(msg.Entries, packet.SessionEntry{Peer: peer, SinceHeard: 0.1, RTT: 0.04, Echo: 9})
		}
		msgs[i] = msg
	}
	const n = 200_000
	out["session.msg_rx_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			m.HandleSession(eventq.Time(10+float64(i)*1e-3), msgs[i%len(msgs)])
		}
	})
	if m.StateSize() == 0 || m.ZCR(zone) != peers[0] {
		return fmt.Errorf("session manager holds %d RTT entries, ZCR %d (want %d)", m.StateSize(), m.ZCR(zone), peers[0])
	}
	return nil
}

// --- telemetry sinks ---

// recordEvents runs one burst_observed pass at a quarter of the stream
// length with a JSONL trace and parses it back into events.
func recordEvents(seed uint64) ([]telemetry.Event, error) {
	s := dataScenario{top: sharqfec.Figure10Topology(), packets: 256, burst: true, observed: true}
	cfg := s.config(seed)
	cfg.Until = 20
	var buf bytes.Buffer
	cfg.Telemetry = &sharqfec.TelemetryConfig{Events: &buf}
	res, err := sharqfec.RunData(cfg)
	if err != nil {
		return nil, err
	}
	events := make([]telemetry.Event, 0, res.Telemetry.EventsWritten)
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		e, err := telemetry.ParseEventLine(line)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	if uint64(len(events)) != res.Telemetry.EventsEmitted {
		return nil, fmt.Errorf("parsed %d events, run emitted %d", len(events), res.Telemetry.EventsEmitted)
	}
	return events, nil
}

// probeTelemetrySinks replays one recorded event stream into each sink
// alone and reports ns per event.
func probeTelemetrySinks(seed uint64, out map[string]float64) error {
	events, err := recordEvents(seed)
	if err != nil {
		return err
	}
	spec := topology.Figure10(topology.Figure10Params{})
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		return err
	}
	slo, err := health.ParseSpec(strings.NewReader(sloText))
	if err != nil {
		return err
	}
	nodes := spec.Graph.NumNodes()
	seen, written, assembled := 0, uint64(0), 0
	var jsonl *telemetry.EventWriter
	var asm *spans.Assembler
	sinks := []struct {
		metric string
		fresh  func() telemetry.Sink
	}{
		{"telemetry.bus_emit_ns", func() telemetry.Sink {
			bus := telemetry.NewBus()
			bus.Attach(func(telemetry.Event) { seen++ })
			return bus.Emit
		}},
		{"telemetry.registry_ns", func() telemetry.Sink { return telemetry.NewMetrics(nil, h, nodes).Sink() }},
		{"telemetry.spans_ns", func() telemetry.Sink {
			asm = spans.NewAssembler()
			return asm.Sink()
		}},
		{"telemetry.health_ns", func() telemetry.Sink { return health.NewEngine(slo, nil).Sink() }},
		{"telemetry.census_ns", func() telemetry.Sink { return census.New(telemetry.NewRegistry(), h, nodes).Sink() }},
		{"telemetry.jsonl_ns", func() telemetry.Sink {
			jsonl = telemetry.NewEventWriter(io.Discard)
			return jsonl.Sink()
		}},
	}
	// A fresh sink per repetition: assemblers and the health engine key
	// their state on event time, which a second replay would rewind.
	for _, s := range sinks {
		times := make([]float64, probeReps)
		for r := range times {
			sink := s.fresh()
			t0 := time.Now()
			for _, e := range events {
				sink(e)
			}
			times[r] = float64(time.Since(t0).Nanoseconds()) / float64(len(events))
			if s.metric == "telemetry.jsonl_ns" {
				if err := jsonl.Flush(); err != nil {
					return err
				}
				written += jsonl.Count()
			}
		}
		out[s.metric] = median(times)
	}
	assembled = len(asm.Spans())
	if want := probeReps * len(events); seen != want || written != uint64(want) || assembled == 0 {
		return fmt.Errorf("bus delivered %d, jsonl wrote %d (want %d each), %d spans", seen, written, want, assembled)
	}
	return nil
}

// --- ratecontrol, stats, packet, topology ---

func probeRateControl(seed uint64, out map[string]float64) error {
	c := ratecontrol.New(ratecontrol.Config{})
	model, err := faults.NewBurst(simrand.New(seed).Stream("bench/burst"), 0.15, 4)
	if err != nil {
		return err
	}
	for i := 0; i < 10_000; i++ {
		c.ObservePacket(model.Drop())
	}
	zone := scoping.ZoneID(1)
	c.ObserveZLC(zone, 4)
	const n = 20_000
	maxH := 0
	out["ratecontrol.decision_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if h := c.Decide(zone, fecK, i&3).H; h > maxH {
				maxH = h
			}
		}
	})
	if maxH <= 0 || maxH > c.MaxH(fecK) {
		return fmt.Errorf("largest decision %d outside (0, %d]", maxH, c.MaxH(fecK))
	}
	return nil
}

func probeStatsTap(_ uint64, out map[string]float64) error {
	col := stats.NewCollector(0, 112, 0.1)
	tap := col.Tap()
	d := fabric.Delivery{From: 0, Pkt: dataPacket(0)}
	const n = 1_000_000
	out["stats.tap_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			tap(eventq.Time(6+float64(i%100_000)*1e-4), topology.NodeID(1+i%112), d)
		}
	})
	if got := col.DataRepair.Sum(); got != probeReps*n {
		return fmt.Errorf("collector counted %v deliveries, want %d", got, probeReps*n)
	}
	return nil
}

func probePacket(_ uint64, out map[string]float64) error {
	p := dataPacket(3)
	const n = 200_000
	var buf []byte
	var err error
	out["packet.marshal_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if buf, err = p.MarshalBinary(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var back packet.Packet
	out["packet.unmarshal_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if back, err = packet.Unmarshal(buf); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	again, err := back.MarshalBinary()
	if err != nil {
		return err
	}
	if d, ok := back.(*packet.Data); !ok || !bytes.Equal(d.Payload, p.Payload) || !bytes.Equal(again, buf) {
		return fmt.Errorf("data packet does not round-trip byte-equal")
	}
	return nil
}

func probeTopology(_ uint64, out map[string]float64) error {
	params := topology.NationalParams{
		Regions: nationalFan, Cities: nationalFan, Suburbs: nationalFan, SubscribersPerSuburb: nationalFan,
	}
	var spec *topology.Spec
	out["topology.national_build_ms"] = nsPerOp(1, func() { spec = topology.National(params, 10e6, 0.010, 0) }) / 1e6
	if got := len(spec.Receivers); got != params.TotalReceivers() {
		return fmt.Errorf("national topology has %d receivers, want %d", got, params.TotalReceivers())
	}
	var lookahead eventq.Duration
	out["topology.partition_ms"] = nsPerOp(1, func() { _, lookahead = topology.PartitionByZone(spec.Graph, spec.Zones, 2) }) / 1e6
	if lookahead <= 0 {
		return fmt.Errorf("national partition has no lookahead")
	}
	var h *scoping.Hierarchy
	var err error
	out["scoping.build_ms"] = nsPerOp(1, func() { h, err = scoping.Build(spec.Zones) }) / 1e6
	if err != nil {
		return err
	}
	if h.NumZones() != len(spec.Zones) {
		return fmt.Errorf("hierarchy has %d zones, spec %d", h.NumZones(), len(spec.Zones))
	}
	return nil
}
