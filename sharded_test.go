package sharqfec

// The golden gate: one table of fixed-seed runs, each pinned to one
// digest that it must reproduce byte for byte at every shard count (0
// and 1 are the same one-shard run). The cases cover plain SHARQFEC, SRM,
// SHARQFEC(ns) and SHARQFEC(ns,ni), ECSRM under Gilbert bursts, a ZCR
// crash plan and a backbone flap plan — both as
// RunData + FaultPlan and through RunChaos — and adaptive rate control
// under burst loss. A drift means simulated results changed, breaking
// comparability with recorded experiments.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sharqfec/internal/eventq"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/telemetry/spans"
	"sharqfec/internal/topology"
)

// dataDigest canonically encodes everything RunData reports (series
// bins at full float64 precision, recovery totals, fault log) and
// hashes it.
func dataDigest(res *DataResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proto=%s topo=%s rcvrs=%d\n", res.Protocol, res.Topology, res.Receivers)
	writeSeries(&b, "avgDataRepair", res.AvgDataRepair)
	writeSeries(&b, "avgNACKs", res.AvgNACKs)
	writeSeries(&b, "srcDataRepair", res.SourceDataRepair)
	writeSeries(&b, "srcNACKs", res.SourceNACKs)
	fmt.Fprintf(&b, "nacks=%d repairs=%d injected=%d compl=%v verified=%v session=%d faultdrops=%d\n",
		res.NACKsSent, res.RepairsSent, res.RepairsInjected, res.CompletionRate,
		res.Verified, res.SessionPackets, res.FaultDrops)
	for _, f := range res.FaultLog {
		fmt.Fprintf(&b, "fault %s\n", f)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// chaosDigest canonically encodes a ChaosResult.
func chaosDigest(res *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proto=%s topo=%s rcvrs=%d\n", res.Protocol, res.Topology, res.Receivers)
	fmt.Fprintf(&b, "compl=%v verified=%v localfrac=%v faultdrops=%d nacks=%d repairs=%d\n",
		res.CompletionRate, res.Verified, res.LocalRepairFrac,
		res.FaultDrops, res.NACKsSent, res.RepairsSent)
	for _, r := range res.Reelections {
		fmt.Fprintf(&b, "reelect crashed=%d zone=%d new=%d at=%v rec=%v\n",
			r.Crashed, r.Zone, r.NewZCR, r.CrashAt, r.RecoverySeconds)
	}
	for _, f := range res.FaultLog {
		fmt.Fprintf(&b, "fault %s\n", f)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func writeSeries(b *strings.Builder, name string, s Series) {
	fmt.Fprintf(b, "%s start=%v width=%v bins=", name, s.Start, s.BinWidth)
	for _, v := range s.Bins {
		fmt.Fprintf(b, "%v,", v)
	}
	b.WriteByte('\n')
}

// goldenSHARQFEC21 is the paper scenario's digest at seed 21, which the
// rate-control seam test pins as well.
const goldenSHARQFEC21 = "951f9816c99dcb0e6a9972cb0f2b2a3d631d5a36bd27777fb4fa6fe66602c4fa"

// goldenCase is one pinned run: a RunData config, or a RunChaos one.
type goldenCase struct {
	name   string
	cfg    DataConfig
	chaos  *ChaosConfig // set: the case runs RunChaos and cfg is unused
	golden string
}

var goldenCases = []goldenCase{
	{
		name:   "sharqfec-seed21",
		cfg:    DataConfig{Protocol: SHARQFEC, Seed: 21},
		golden: goldenSHARQFEC21,
	},
	{
		name:   "srm-seed22",
		cfg:    DataConfig{Protocol: SRM, Seed: 22, NumPackets: 512},
		golden: "adb0b7e80c0cb7213d5b97e6bb1d242028b69fdfd0a6f6007d366b30b6713e5b",
	},
	{
		name: "ecsrm-gilbert-seed5",
		cfg: DataConfig{
			Protocol: ECSRM, Seed: 5, NumPackets: 256, Until: 30,
			Faults: BurstLossPlan(8),
		},
		golden: "2b5da0d48cb4e05cc61ab45efc03120e3f9064be8a2801e52bfe50f8eb689ef4",
	},
	{
		// The unscoped variants run on the one-zone hierarchy, where the
		// root zone's ZCR injects and every receiver may repair.
		name:   "sharqfec-ns-seed23",
		cfg:    DataConfig{Protocol: SHARQFECNoScope, Seed: 23},
		golden: "ff07f4fce16f2cd0e67ac8ce0fb29d4fc6210a0d45ac1e44ead39a10b56231ca",
	},
	{
		name:   "sharqfec-ns-ni-seed24",
		cfg:    DataConfig{Protocol: SHARQFECNoScopeNoInject, Seed: 24, NumPackets: 512},
		golden: "313271f8bbd5ac5c072749bb0c5fd73c72b253ed1dfed3b2cca0f8fe47acb4cc",
	},
	{
		name:   "sharqfec-crash-seed31",
		cfg:    DataConfig{Protocol: SHARQFEC, Seed: 31, Faults: ZCRCrashPlan()},
		golden: "a09b7d1279b96b86a61c2dfb0fc8c8a3b15117f27d712ffe22e92f86982ccfce",
	},
	{
		name: "sharqfec-backbone-seed11",
		cfg: DataConfig{
			Protocol: SHARQFEC, Seed: 11, NumPackets: 512, Until: 60,
			Faults: BackboneFlapPlan(),
		},
		golden: "6ab8c14e33968d4f275732a98d51bcc88513fe5186a1b6de6336e5a23dc3445a",
	},
	{
		// Adaptive rate control keeps all its state per agent, so it is
		// as shard-count-invariant as the static policy.
		name: "sharqfec-adaptive-burst-seed77",
		cfg: DataConfig{
			Protocol: SHARQFEC, Seed: 77, NumPackets: 512,
			Faults:      BurstLossPlan(4),
			RateControl: &RateControlConfig{Mode: RateControlAdaptive},
		},
		golden: "a51f0790d3be7f073d3aff03ee5f74390fed7970873d7655c5308613006b102b",
	},
	{
		name:   "chaos-crash-seed31",
		chaos:  &ChaosConfig{Seed: 31},
		golden: "896fcf8496e10ea1a87b4514d73170f928151aab119f19041b1abd01e7bb9586",
	},
	{
		name:   "chaos-backbone-seed11",
		chaos:  &ChaosConfig{Seed: 11, NumPackets: 512, Faults: BackboneFlapPlan(), Until: 60},
		golden: "27de4c7b2cda8a12acce7eced288d54d7903e3c262d6b2acf2d16c0911b827c1",
	},
}

// run executes the case at the given shard count and returns its digest
// and completion rate. It also checks the run's protocol invariants: a
// RunData case through the checker armInvariants hangs on the shard
// buses, with no TelemetryConfig, and a RunChaos case from the spans
// and re-elections its result carries.
func (tc goldenCase) run(t *testing.T, shards int) (digest string, completion float64, err error) {
	t.Helper()
	if tc.chaos != nil {
		res, err := RunChaos(*tc.chaos)
		if err != nil {
			return "", 0, err
		}
		n, open := len(res.Telemetry.Spans()), res.Telemetry.OpenSpans()
		if n == 0 || open != 0 {
			t.Errorf("%d recovery spans closed, %d never saw a terminal event; want some, none open", n, open)
		}
		for _, re := range res.Reelections {
			if re.NewZCR < 0 {
				t.Errorf("zone %d never agreed on a live ZCR after n%d crashed", re.Zone, re.Crashed)
			}
		}
		t.Logf("%d spans closed, %d open; %d re-elections", n, open, len(res.Reelections))
		return chaosDigest(res), res.CompletionRate, nil
	}
	cfg := tc.cfg
	cfg.Shards = shards
	var inv []*shardInvariants
	res, r, err := runData(cfg, func(r *dataRun) { inv = armInvariants(r) })
	if err != nil {
		return "", 0, err
	}
	checkInvariants(t, r, inv, cfg.Protocol != SRM)
	return dataDigest(res), res.CompletionRate, nil
}

// shardInvariants is the invariant checker on one shard's bus, touched
// only from that shard's goroutine: a span assembler, and a count of
// the shard's deliveries and of those outside their scope zone.
type shardInvariants struct {
	asm                *spans.Assembler
	delivered, outside int
}

// armInvariants hangs the invariant checker on every shard bus of r,
// from runData's prepare hook. A node's events come only from its own
// shard, so one assembler per shard sees every span whole.
func armInvariants(r *dataRun) []*shardInvariants {
	inv := make([]*shardInvariants, len(r.buses))
	for i, b := range r.buses {
		si := &shardInvariants{asm: spans.NewAssembler()}
		inv[i] = si
		b.Attach(si.asm.Sink())
		b.AttachKinds(func(e telemetry.Event) {
			if e.Kind != telemetry.KindPacketDelivered {
				return
			}
			si.delivered++
			if !r.h.Contains(e.Zone, e.Node) {
				si.outside++
			}
		}, telemetry.KindPacketDelivered)
	}
	return inv
}

// checkInvariants checks three invariants of a finished run:
//   - every loss ends in a decode or an explicit loss_unrecovered, so
//     no recovery span stays open;
//   - every packet_delivered lands inside its scope zone;
//   - under a SHARQFEC variant, at the end of the run every zone's live
//     members agree on one live ZCR, and it is a member of the zone.
func checkInvariants(t *testing.T, r *dataRun, inv []*shardInvariants, zcrs bool) {
	t.Helper()
	k := len(inv)
	var losses uint64
	closed, open, delivered, outside := 0, 0, 0, 0
	for _, si := range inv {
		losses += si.asm.LossEvents()
		closed += len(si.asm.Spans())
		open += si.asm.Open()
		delivered += si.delivered
		outside += si.outside
	}
	if closed == 0 {
		t.Errorf("shards=%d: no recovery span closed; the span check saw nothing", k)
	}
	if open != 0 {
		t.Errorf("shards=%d: %d of %d recovery spans never saw a terminal event", k, open, closed+open)
	}
	if delivered == 0 {
		t.Errorf("shards=%d: no delivery seen; the scope check saw nothing", k)
	}
	if outside != 0 {
		t.Errorf("shards=%d: %d of %d deliveries landed outside their scope zone", k, outside, delivered)
	}
	agreed := 0
	if zcrs {
		for z := range r.h.NumZones() {
			zone := scoping.ZoneID(z)
			zcr, ok := zoneAgreement(r.h, r.coreAgent, zone, topology.NoNode)
			if !ok || !r.h.Contains(zone, zcr) {
				t.Errorf("shards=%d: zone %d ends without one agreed live ZCR of its own (agreed %v on n%d)", k, z, ok, zcr)
				continue
			}
			agreed++
		}
	}
	t.Logf("shards=%d: %d losses, %d spans closed, %d open; %d deliveries, %d out of scope; %d zones agree on their ZCR",
		k, losses, closed, open, delivered, outside, agreed)
}

// check runs the case at the given shard count and requires its digest
// to match the pinned golden.
func (tc goldenCase) check(t *testing.T, shards int) {
	t.Helper()
	got, completion, err := tc.run(t, shards)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if got != tc.golden {
		t.Errorf("shards=%d digest drifted:\n got  %s\n want %s", shards, got, tc.golden)
	}
	if completion <= 0 {
		t.Errorf("shards=%d: completion rate %v; the run did nothing", shards, completion)
	}
}

// TestFixedSeedRunDigests runs every golden case as configured, at the
// default Shards 0, RunChaos cases included, and checks each run's
// invariants with its digest.
func TestFixedSeedRunDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest suite")
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, 0) })
	}
}

// TestShardCountInvarianceMatrix runs every RunData golden case at 1, 2
// and 4 shards against the same golden, and checks each run's
// invariants with its digest. Four shards post the most cross-shard
// arrivals, which are one of the two ways a queue's tied front leaves
// birth order and is sorted. ChaosConfig has no Shards field, so
// RunChaos always runs one shard and its cases are covered by
// TestFixedSeedRunDigests alone.
func TestShardCountInvarianceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest suite")
	}
	for _, tc := range goldenCases {
		if tc.chaos != nil {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int{1, 2, 4} {
				tc.check(t, k)
			}
		})
	}
}

// TestGoldenRunsCloseEverySpan runs every RunData golden case at 1, 2
// and 4 shards with recovery-span tracing armed through
// TelemetryConfig, next to the invariant checker on the shard buses.
// Spans are passive, so the digest must still be the pinned golden; the
// run must pass the same invariants as without telemetry; and the
// report's merged span assembler must close as many spans as the
// per-shard checkers, with none left open.
func TestGoldenRunsCloseEverySpan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest suite")
	}
	for _, tc := range goldenCases {
		if tc.chaos != nil {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int{1, 2, 4} {
				cfg := tc.cfg
				cfg.Shards = k
				cfg.Telemetry = &TelemetryConfig{Spans: true}
				var inv []*shardInvariants
				res, r, err := runData(cfg, func(r *dataRun) { inv = armInvariants(r) })
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got := dataDigest(res); got != tc.golden {
					t.Errorf("shards=%d: tracing spans moved the digest:\n got  %s\n want %s", k, got, tc.golden)
				}
				checkInvariants(t, r, inv, cfg.Protocol != SRM)
				closed := 0
				for _, si := range inv {
					closed += len(si.asm.Spans())
				}
				n, open := len(res.Telemetry.Spans()), res.Telemetry.OpenSpans()
				if open != 0 {
					t.Errorf("shards=%d: %d of %d reported recovery spans never saw a terminal event", k, open, n+open)
				}
				if n != closed {
					t.Errorf("shards=%d: the report closed %d recovery spans, the shard checkers %d", k, n, closed)
				}
			}
		})
	}
}

// TestShardsMatchSequentialOnLosslessTopologies is the small-topology
// differential; its name predates `Shards: 0` meaning one shard. The
// one data driver must report the same DataResult — every series bin,
// every total — at 0, 1 and 2 shards, for both protocols. The faulted
// input exercises rerouting around a downed link, Gilbert loss models,
// a crash, the hierarchy swap and a late-joining restart; the adaptive
// input sizes injection with the burst-fitting controller under Gilbert
// loss (SRM has no FEC and ignores it).
func TestShardsMatchSequentialOnLosslessTopologies(t *testing.T) {
	tops := []*Topology{
		ChainTopology(6, 0),
		TreeTopology([]int{3, 3}, 0),
		StarTopology(8, 0),
	}
	inputs := []struct {
		name    string
		packets int
		until   float64
		plan    func() *FaultPlan
		rc      *RateControlConfig
	}{
		{"clean", 128, 0, func() *FaultPlan { return nil }, nil},
		{"faulted", 256, 40, func() *FaultPlan {
			return NewFaultPlan().GilbertAll(0, 0.05, 4).LinkDown(7, 2).LinkUp(7.6, 2).Crash(8, 3).Restart(9, 3)
		}, nil},
		{"adaptive-burst", 256, 40, func() *FaultPlan { return NewFaultPlan().GilbertAll(0, 0.05, 4) },
			&RateControlConfig{Mode: RateControlAdaptive}},
	}
	for _, top := range tops {
		for _, proto := range []Protocol{SHARQFEC, SRM} {
			t.Run(fmt.Sprintf("%s/%s", top.Name(), proto), func(t *testing.T) {
				for _, in := range inputs {
					t.Run(in.name, func(t *testing.T) {
						var ref *DataResult
						for _, k := range []int{0, 1, 2} {
							plan := in.plan()
							res, err := RunData(DataConfig{
								Protocol: proto, Topology: top, Seed: 9, NumPackets: in.packets,
								Until: in.until, Faults: plan, RateControl: in.rc, Shards: k,
							})
							if err != nil {
								t.Fatalf("shards=%d: %v", k, err)
							}
							// A restart must not count a (receiver, group)
							// pair twice; without faults nothing is missed.
							if !res.Verified || res.CompletionRate > 1 || (plan == nil && res.CompletionRate != 1) {
								t.Errorf("shards=%d: verified=%v completion=%v", k, res.Verified, res.CompletionRate)
							}
							if ref == nil {
								ref = res
							} else if !reflect.DeepEqual(ref, res) {
								t.Errorf("shards=%d diverged from shards=0:\n want %+v\n got  %+v", k, ref, res)
							}
						}
					})
				}
			})
		}
	}
}

// TestShardedRejectsUnsupportedConfigs pins the error surface: a shard
// count out of range fails loudly, never silently falling back to fewer
// shards; telemetry, packet trace included, runs at every shard count.
func TestShardedRejectsUnsupportedConfigs(t *testing.T) {
	small := func(shards int) DataConfig {
		return DataConfig{Protocol: SHARQFEC, Topology: ChainTopology(4, 0.05), NumPackets: 64, Until: 12, Shards: shards}
	}
	telemetry := func(shards int) DataConfig {
		cfg := small(shards)
		cfg.Telemetry = &TelemetryConfig{}
		return cfg
	}
	trace := func(shards int) DataConfig {
		cfg := small(shards)
		cfg.Telemetry = &TelemetryConfig{PacketTrace: &bytes.Buffer{}}
		return cfg
	}
	cases := []struct {
		name string
		cfg  DataConfig
		ok   bool
	}{
		{"negative-shards", small(-3), false},
		{"too-many-shards", small(eventq.MaxShards + 1), false},
		{"telemetry-shards-0", telemetry(0), true},
		{"telemetry-shards-1", telemetry(1), true},
		{"telemetry-shards-2", telemetry(2), true},
		{"packet-trace-shards-0", trace(0), true},
		{"packet-trace-shards-1", trace(1), true},
		{"packet-trace-shards-2", trace(2), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunData(tc.cfg)
			switch {
			case tc.ok && err != nil:
				t.Errorf("want success, got %v", err)
			case !tc.ok && err == nil:
				t.Error("want an error, got success")
			}
		})
	}
}

// TestTelemetryEqualAtEveryShardCount: with every exporter on — event
// trace, packet trace, spans, census, SLO engine, flight recorder — a
// run at Shards 0 and one at Shards 1 must write the same JSONL and
// packet-trace bytes and report the same results. At 2 and 4 shards the
// sinks are fed from per-shard buffers merged at the barrier, so two
// things may differ and nothing else: the byte order of the two text
// traces, where events stamped with the same T on different shards
// interleave by shard (the sorted lines are equal), and the census
// free-list gauge, which sums one free list per shard queue.
func TestTelemetryEqualAtEveryShardCount(t *testing.T) {
	spec := parseTestSLO(t)
	// render returns the run's JSONL and packet trace, its full report,
	// and the report with the census free-list gauge zeroed.
	render := func(shards int) (jsonl, trace []byte, report, reportNoFree string) {
		t.Helper()
		var events, packets, metrics bytes.Buffer
		res, err := RunData(DataConfig{
			Protocol: SHARQFEC, Seed: 5, NumPackets: 256, Until: 30,
			Faults: BurstLossPlan(8), Shards: shards,
			Telemetry: &TelemetryConfig{
				Events: &events, PacketTrace: &packets, MetricsInterval: 1,
				FlightRecorder: 64, Spans: true, Census: true, SLO: spec,
			},
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		tel := res.Telemetry
		if err := tel.WriteMetricsJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		if tel.EventsWritten == 0 || packets.Len() == 0 || len(tel.Spans()) == 0 || tel.CensusSummary() == nil || tel.HealthReport() == nil {
			t.Fatalf("shards=%d: an exporter recorded nothing", shards)
		}
		format := func(sum census.Summary, epochs []census.EpochRow) string {
			return fmt.Sprintf("%s\n%d %d\n%s\n%s\n%+v\n%+v\n%+v\n%+v\n%+v\n%v",
				dataDigest(res), tel.EventsEmitted, tel.EventsWritten, metrics.String(), tel.HealthReport(),
				sum, epochs, tel.Spans(), tel.RecoveryReport(), tel.TriggeredDumps(), tel.FlightRecord())
		}
		sum := *tel.CensusSummary()
		epochs := slices.Clone(tel.CensusEpochs())
		report = format(sum, epochs)
		sum.Queue.Free = 0
		for i := range epochs {
			epochs[i].Queue.Free = 0
		}
		return events.Bytes(), packets.Bytes(), report, format(sum, epochs)
	}
	sortedLines := func(b []byte) []string {
		lines := strings.Split(string(b), "\n")
		slices.Sort(lines)
		return lines
	}
	jsonl0, trace0, report0, noFree0 := render(0)
	if jsonl1, trace1, report1, _ := render(1); !bytes.Equal(jsonl0, jsonl1) {
		t.Error("JSONL event traces differ between Shards 0 and 1")
	} else if !bytes.Equal(trace0, trace1) {
		t.Error("packet traces differ between Shards 0 and 1")
	} else if report0 != report1 {
		t.Errorf("reports differ between Shards 0 and 1:\n--- 0 ---\n%s\n--- 1 ---\n%s", report0, report1)
	}
	for _, k := range []int{2, 4} {
		jsonl, trace, _, noFree := render(k)
		if !slices.Equal(sortedLines(jsonl0), sortedLines(jsonl)) {
			t.Errorf("JSONL event traces hold different lines at Shards 0 and %d", k)
		}
		if !slices.Equal(sortedLines(trace0), sortedLines(trace)) {
			t.Errorf("packet traces hold different lines at Shards 0 and %d", k)
		}
		if noFree0 != noFree {
			t.Errorf("reports differ between Shards 0 and %d beyond the free-list gauge:\n--- 0 ---\n%s\n--- %d ---\n%s", k, noFree0, k, noFree)
		}
	}
}

// checkStaticMatchesOff pins the rate-control seam at one shard count:
// an explicit static mode must reproduce a nil RateControl byte for
// byte, both equal to the sharqfec-seed21 golden — so
// `-ratecontrol=static`, the default, is core's built-in controller,
// never a behavior change.
func checkStaticMatchesOff(t *testing.T, shards int) {
	t.Helper()
	for _, rc := range []*RateControlConfig{nil, {Mode: RateControlStatic}} {
		res, err := RunData(DataConfig{Protocol: SHARQFEC, Seed: 21, Shards: shards, RateControl: rc})
		if err != nil {
			t.Fatal(err)
		}
		if got := dataDigest(res); got != goldenSHARQFEC21 {
			t.Errorf("shards=%d rate control %+v: digest %s, want %s", shards, rc, got, goldenSHARQFEC21)
		}
	}
}

// TestStaticRateControlDigestMatchesOff checks the seam at the default
// Shards 0.
func TestStaticRateControlDigestMatchesOff(t *testing.T) { checkStaticMatchesOff(t, 0) }

// TestShardedStaticRateControlMatchesOff checks the seam at two shards.
func TestShardedStaticRateControlMatchesOff(t *testing.T) { checkStaticMatchesOff(t, 2) }

// TestShardMatrixHarvest prints every golden case's current digest for
// re-pinning after an intentional behavior change:
//
//	SHARD_HARVEST=1 go test -run TestShardMatrixHarvest -v
//
// It only prints; pins are updated by hand.
func TestShardMatrixHarvest(t *testing.T) {
	if os.Getenv("SHARD_HARVEST") == "" {
		t.Skip("harvest helper; run with SHARD_HARVEST=1 and -v")
	}
	for _, tc := range goldenCases {
		got, _, err := tc.run(t, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Printf("HARVEST %s %s\n", tc.name, got)
	}
}
