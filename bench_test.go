package sharqfec

// Benchmark harness: one benchmark per table/figure in the paper's
// evaluation (see DESIGN.md's experiment index). Each figure benchmark
// regenerates the series the paper plots and reports the headline
// numbers as custom metrics, so `go test -bench` doubles as the
// reproduction harness. Absolute wall-clock numbers measure the
// simulator, not the protocols; the protocol comparison lives in the
// reported metrics.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"sharqfec/internal/analysis"
	"sharqfec/internal/eventq"
	"sharqfec/internal/faults"
	"sharqfec/internal/fec"
	"sharqfec/internal/packet"
	"sharqfec/internal/ratecontrol"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/telemetry/health"
	"sharqfec/internal/telemetry/spans"
	"sharqfec/internal/topology"
)

// --- E1: Figure 1 (analytic non-scoped FEC example) ---

func BenchmarkFig01NonScopedFEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := analysis.NewFigure1Tree()
		vol := t.NonScopedFECVolume()
		b.ReportMetric(100*t.AllReceiveProbability(), "prAllReceive_%")
		b.ReportMetric(100*t.WorstReceiverLoss(), "worstLoss_%")
		b.ReportMetric(vol[0], "sourceVolume")
	}
}

// --- E2: Figure 8 (analytic national hierarchy table) ---

func BenchmarkFig08NationalHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analysis.Figure8Table(topology.PaperNational())
		b.ReportMetric(float64(rows[3].RTTsMaintained), "suburbRTTs")
		b.ReportMetric(rows[3].StateReductionInv, "stateReduction_x")
	}
}

// --- E3: §6.1 ZCR elections on chain / fork / figure-10 ---

func BenchmarkZCRElection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		correct := 0
		for _, top := range []*Topology{
			ChainTopology(6, 0),
			StarTopology(5, 0),
			TreeTopology([]int{3, 2}, 0),
			Figure10Topology(),
		} {
			res, err := RunZCRElection(top, 9, 30)
			if err != nil {
				b.Fatal(err)
			}
			if res.Correct {
				correct++
			}
		}
		b.ReportMetric(float64(correct), "topologiesCorrect/4")
	}
}

// --- E4: Figures 11–13 (indirect RTT estimation accuracy) ---

func benchRTT(b *testing.B, sender int) {
	for i := 0; i < b.N; i++ {
		res, err := RunRTT(RTTConfig{Sender: sender, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.FinalFractionWithin(0.10), "within10pct_%")
		b.ReportMetric(res.MedianRatio(len(res.Ratios)-1), "medianRatio")
		b.ReportMetric(float64(res.Able[len(res.Able)-1]), "estimators")
	}
}

func BenchmarkFig11RTTRatioReceiver3(b *testing.B)  { benchRTT(b, 3) }
func BenchmarkFig12RTTRatioReceiver25(b *testing.B) { benchRTT(b, 25) }
func BenchmarkFig13RTTRatioReceiver36(b *testing.B) { benchRTT(b, 36) }

// paperRun runs the full §6.2 scenario for one protocol.
func paperRun(b *testing.B, p Protocol, seed uint64) *DataResult {
	b.Helper()
	res, err := RunData(DataConfig{Protocol: p, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// tail sums a series over the repair-dominated window after the source
// stops (t in [16.3, 30)).
func tail(s Series) float64 { return s.Window(16.3, 30) }

// --- E5/E6: Figures 14–15 (SRM vs ECSRM) ---

func BenchmarkFig14DataRepairSRMvsECSRM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srmRes := paperRun(b, SRM, 21)
		ecsrm := paperRun(b, ECSRM, 21)
		// The hybrid baseline needs less total data+repair volume per
		// receiver and a smaller repair tail than pure ARQ.
		b.ReportMetric(srmRes.AvgDataRepair.Sum(), "srmPkts/rcvr")
		b.ReportMetric(ecsrm.AvgDataRepair.Sum(), "ecsrmPkts/rcvr")
		b.ReportMetric(tail(srmRes.AvgDataRepair), "srmRepairTail")
		b.ReportMetric(tail(ecsrm.AvgDataRepair), "ecsrmRepairTail")
	}
}

func BenchmarkFig15NACKsSRMvsECSRM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srmRes := paperRun(b, SRM, 22)
		ecsrm := paperRun(b, ECSRM, 22)
		b.ReportMetric(srmRes.AvgNACKs.Sum(), "srmNACKs/rcvr")
		b.ReportMetric(ecsrm.AvgNACKs.Sum(), "ecsrmNACKs/rcvr")
	}
}

// --- E7: Figure 16 (SHARQFEC(ns,ni) vs SHARQFEC(ns)) ---

func BenchmarkFig16MultiRepairerVsSourceInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nsni := paperRun(b, SHARQFECNoScopeNoInject, 23)
		ns := paperRun(b, SHARQFECNoScope, 23)
		b.ReportMetric(nsni.AvgDataRepair.Sum(), "nsNiPkts/rcvr")
		b.ReportMetric(ns.AvgDataRepair.Sum(), "nsPkts/rcvr")
		b.ReportMetric(float64(ns.RepairsInjected), "nsInjected")
	}
}

// --- E8: Figure 17 (ECSRM vs full SHARQFEC) ---

func BenchmarkFig17ScopingImprovesSuppression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ecsrm := paperRun(b, ECSRM, 24)
		full := paperRun(b, SHARQFEC, 24)
		eMax, _ := ecsrm.AvgDataRepair.Max()
		fMax, _ := full.AvgDataRepair.Max()
		b.ReportMetric(ecsrm.AvgDataRepair.Sum(), "ecsrmPkts/rcvr")
		b.ReportMetric(full.AvgDataRepair.Sum(), "sharqfecPkts/rcvr")
		b.ReportMetric(eMax, "ecsrmPeakBin")
		b.ReportMetric(fMax, "sharqfecPeakBin")
	}
}

// --- E9: Figure 18 (SHARQFEC(ni) vs SHARQFEC: injection is free) ---

func BenchmarkFig18InjectionAddsNoBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ni := paperRun(b, SHARQFECNoInject, 25)
		full := paperRun(b, SHARQFEC, 25)
		b.ReportMetric(ni.AvgDataRepair.Sum(), "niPkts/rcvr")
		b.ReportMetric(full.AvgDataRepair.Sum(), "fullPkts/rcvr")
	}
}

// --- E10: Figure 19 (NACKs: ECSRM vs full SHARQFEC) ---

func BenchmarkFig19NACKSuppression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ecsrm := paperRun(b, ECSRM, 26)
		full := paperRun(b, SHARQFEC, 26)
		b.ReportMetric(ecsrm.AvgNACKs.Sum(), "ecsrmNACKs/rcvr")
		b.ReportMetric(full.AvgNACKs.Sum(), "sharqfecNACKs/rcvr")
	}
}

// --- E11/E12: Figures 20–21 (traffic seen by the source) ---

func BenchmarkFig20SourceDataRepair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ecsrm := paperRun(b, ECSRM, 27)
		full := paperRun(b, SHARQFEC, 27)
		b.ReportMetric(ecsrm.SourceDataRepair.Sum(), "ecsrmSrcPkts")
		b.ReportMetric(full.SourceDataRepair.Sum(), "sharqfecSrcPkts")
	}
}

func BenchmarkFig21SourceNACKs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ecsrm := paperRun(b, ECSRM, 28)
		full := paperRun(b, SHARQFEC, 28)
		b.ReportMetric(ecsrm.SourceNACKs.Sum(), "ecsrmSrcNACKs")
		b.ReportMetric(full.SourceNACKs.Sum(), "sharqfecSrcNACKs")
	}
}

// --- E13: §5.1 session traffic/state scaling ---

func BenchmarkSessionScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := RunScalingSweep(ScalingSweepConfig{
			Regions: 3, Cities: 3, Suburbs: 3, Subscribers: []int{5}, Seed: 29, Seconds: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		p := rep.Points[0]
		b.ReportMetric(float64(p.FlatDeliveries)/float64(p.ScopedDeliveries), "trafficReduction_x")
		b.ReportMetric(float64(p.ScopedStateMeasured), "scopedMaxState")
		b.ReportMetric(float64(p.FlatStateAnalytic), "flatState")
	}
}

// --- E21: zone-sharded parallel engine ---

// BenchmarkShardedFig17 runs the paper scenario (full SHARQFEC, seed
// 24) on the zone-sharded engine at 1, 2 and 4 shards. Results are
// byte-identical at every width (TestShardCountInvarianceMatrix pins
// the digests), so the sub-benchmarks measure pure engine wall clock
// and shards=1 ÷ shards=K is the speedup. The ≥2× target at shards=4
// applies on a multicore runner (GOMAXPROCS ≥ 4) — on fewer cores the
// worker budget collapses extra shards onto the calling goroutine by
// design and the widths converge.
func BenchmarkShardedFig17(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunData(DataConfig{Protocol: SHARQFEC, Seed: 24, Shards: k})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.CompletionRate, "completion_%")
			}
		})
	}
}

// BenchmarkScaling100k is the E21 workload: one scoped session-census
// point on the national 18×18×18×18 hierarchy — 105,318 receivers — on
// the sharded engine with designated ZCRs, exactly as `-fig 8m -large`
// runs it. Two virtual seconds keep an iteration tractable; state (the
// Figure-8 quantity) saturates within the first, so the reported peak
// matches the full E21 run.
func BenchmarkScaling100k(b *testing.B) {
	top := NationalTopology(18, 18, 18, 18)
	for i := 0; i < b.N; i++ {
		m, err := runSessionCensus(top, SHARQFEC, 1998, 2, 4, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.peakState), "peakState")
		b.ReportMetric(float64(m.ctrlLink), "ctrlLinkPkts")
	}
}

// --- Ablation: timer-constant sensitivity (paper §7 future work) ---

func BenchmarkTimerSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := RunTimerSweep(30, []float64{0.5, 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].NACKs), "nacksAtHalf")
		b.ReportMetric(float64(pts[1].NACKs), "nacksAtDouble")
		b.ReportMetric(pts[0].MeanRecovery, "recoveryAtHalf_s")
		b.ReportMetric(pts[1].MeanRecovery, "recoveryAtDouble_s")
	}
}

// --- Extensions: robustness and §7 future-work features ---

func BenchmarkLateJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunLateJoin(32, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Completion, "completion_%")
		b.ReportMetric(100*res.LocalRepairFrac, "localRepairs_%")
		b.ReportMetric(res.CatchUpSeconds, "catchUp_s")
	}
}

func BenchmarkReceiverReports(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunReceiverReports(33)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.SourceWorstLoss, "aggWorstLoss_%")
		b.ReportMetric(100*res.TrueWorstLoss, "trueWorstLoss_%")
		b.ReportMetric(float64(res.DirectReporters), "directReporters")
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkFECEncode(b *testing.B) {
	codec, err := fec.NewCodec(16)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 16)
	for i := range data {
		data[i] = make([]byte, 1000)
		for j := range data[i] {
			data[i][j] = byte(i * j)
		}
	}
	b.SetBytes(16 * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Repairs(data, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFECDecode(b *testing.B) {
	codec, err := fec.NewCodec(16)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 16)
	for i := range data {
		data[i] = make([]byte, 1000)
		for j := range data[i] {
			data[i][j] = byte(i + j)
		}
	}
	repairs, err := codec.Repairs(data, 4)
	if err != nil {
		b.Fatal(err)
	}
	// 4 data shares lost, recovered from 12 data + 4 repairs.
	shares := make([]fec.Share, 0, 16)
	for i := 4; i < 16; i++ {
		shares = append(shares, fec.Share{Index: i, Data: data[i]})
	}
	shares = append(shares, repairs...)
	b.SetBytes(16 * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(shares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketCodecData(b *testing.B) {
	p := &packet.Data{Origin: 3, Seq: 100, Group: 6, Index: 4, GroupK: 16, Payload: make([]byte, 983)}
	b.SetBytes(1000)
	for i := 0; i < b.N; i++ {
		buf, err := p.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := packet.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketCodecSession(b *testing.B) {
	p := &packet.Session{Origin: 1, Zone: 2, SentAt: 9.5, ZCR: 4}
	for i := 0; i < 20; i++ {
		p.Entries = append(p.Entries, packet.SessionEntry{Peer: topology.NodeID(i), SinceHeard: 0.5, RTT: 0.04, Echo: 9})
	}
	for i := 0; i < b.N; i++ {
		buf, err := p.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := packet.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventQueue(b *testing.B) {
	var q eventq.Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.At(eventq.Time(i%1000), func(eventq.Time) {})
		if i%1000 == 999 {
			q.Run()
		}
	}
	q.Run()
}

// --- Extension: adaptive suppression timers (§7) ---

func BenchmarkAdaptiveTimers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed := paperRun(b, SHARQFEC, 34)
		adaptive := paperRun(b, SHARQFECAdaptive, 34)
		b.ReportMetric(float64(fixed.NACKsSent), "fixedNACKs")
		b.ReportMetric(float64(adaptive.NACKsSent), "adaptiveNACKs")
		b.ReportMetric(100*adaptive.CompletionRate, "adaptiveCompl_%")
	}
}

// --- Ablation: FEC group size (k) ---

func BenchmarkGroupSizeAblation(b *testing.B) {
	// The paper fixes k=16; sweep k to expose the trade-off between
	// repair granularity (small k: more groups, finer repair targeting)
	// and FEC efficiency (large k: one share repairs more loss
	// patterns).
	for _, k := range []int{8, 16, 32} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunData(DataConfig{
					Protocol:   SHARQFEC,
					Topology:   ChainTopology(6, 0.12),
					Seed:       35,
					NumPackets: 512,
					Until:      60,
					GroupK:     k,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgDataRepair.Sum(), "pkts/rcvr")
				b.ReportMetric(float64(res.NACKsSent), "nacks")
				b.ReportMetric(100*res.CompletionRate, "completion_%")
			}
		})
	}
}

// --- E14: network dynamics (scripted fault injection) ---

func BenchmarkChaosZCRCrash(b *testing.B) {
	// The §3.2/§5.2 robustness claim under the scripted fault engine:
	// crash the first leaf-zone ZCR mid-stream, measure re-election
	// time and survivor delivery.
	for i := 0; i < b.N; i++ {
		res, err := RunChaos(ChaosConfig{Seed: 31})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.CompletionRate, "completion_%")
		b.ReportMetric(100*res.LocalRepairFrac, "localRepairs_%")
		if len(res.Reelections) > 0 {
			b.ReportMetric(res.Reelections[0].RecoverySeconds, "reelection_s")
			b.ReportMetric(100*res.Reelections[0].ZoneCompletion, "zoneCompl_%")
		}
	}
}

func BenchmarkChaosBackboneFlap(b *testing.B) {
	// A backbone link fails for 1.5 s during the CBR burst; routing
	// heals over the lateral mesh ring and delivery still completes.
	for i := 0; i < b.N; i++ {
		res, err := RunChaos(ChaosConfig{
			Seed:       11,
			NumPackets: 512,
			Faults:     BackboneFlapPlan(),
			Until:      60,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.CompletionRate, "completion_%")
		b.ReportMetric(float64(res.FaultDrops), "faultDrops")
		b.ReportMetric(float64(res.NACKsSent), "nacks")
	}
}

func BenchmarkChaosGilbertVsBernoulli(b *testing.B) {
	// Burst loss at equal mean: Gilbert–Elliott processes replace every
	// Bernoulli link draw at the same per-link mean rate. Plain-ARQ SRM
	// NACKs more under bursts; SHARQFEC absorbs them inside FEC groups.
	run := func(proto Protocol, plan *FaultPlan) *DataResult {
		res, err := RunData(DataConfig{
			Protocol:   proto,
			Seed:       5,
			NumPackets: 256,
			Until:      30,
			Faults:     plan,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		srmBern := run(SRM, nil)
		srmGE := run(SRM, BurstLossPlan(8))
		shqBern := run(SHARQFEC, nil)
		shqGE := run(SHARQFEC, BurstLossPlan(8))
		b.ReportMetric(float64(srmGE.NACKsSent)/float64(srmBern.NACKsSent), "srmNACKratio")
		b.ReportMetric(float64(shqGE.NACKsSent)/float64(shqBern.NACKsSent), "sharqfecNACKratio")
		b.ReportMetric(100*srmGE.CompletionRate, "srmComplGE_%")
		b.ReportMetric(100*shqGE.CompletionRate, "sharqfecComplGE_%")
	}
}

// --- E15: telemetry overhead ---

// BenchmarkTelemetryOverhead measures what the observability layer
// costs: the same seeded Figure-10 run with telemetry off, with
// metrics only, and with the full stack (metrics + JSONL event trace
// to io.Discard). Compare ns/op and allocs/op across the sub-
// benchmarks; "off" also bounds the cost of the dormant emission
// sites left in the protocol hot paths, and includes the network
// views' packet events, which feed the 0.1 s series in every run.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, tcfg *TelemetryConfig) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := RunData(DataConfig{
				Protocol:   SHARQFEC,
				Seed:       1,
				NumPackets: 128,
				Until:      20,
				Telemetry:  tcfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			if tcfg != nil && res.Telemetry.EventsEmitted == 0 {
				b.Fatal("telemetry enabled but no events flowed")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("metrics", func(b *testing.B) {
		run(b, &TelemetryConfig{MetricsInterval: 1})
	})
	b.Run("metrics+events", func(b *testing.B) {
		run(b, &TelemetryConfig{MetricsInterval: 1, Events: io.Discard})
	})
	b.Run("metrics+spans", func(b *testing.B) {
		run(b, &TelemetryConfig{MetricsInterval: 1, Spans: true})
	})
}

// --- E16: causal recovery tracing ---

// BenchmarkSpanAssembly isolates the span assembler itself: the event
// stream of one seeded Figure-10 run is captured once, then replayed
// through a fresh assembler per iteration. ns/op and allocs/op bound
// what TelemetryConfig.Spans adds per protocol event.
func BenchmarkSpanAssembly(b *testing.B) {
	var buf bytes.Buffer
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       1,
		NumPackets: 128,
		Until:      20,
		Telemetry:  &TelemetryConfig{Events: &buf},
	})
	if err != nil {
		b.Fatal(err)
	}
	events := make([]telemetry.Event, 0, res.Telemetry.EventsWritten)
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		e, err := telemetry.ParseEventLine(line)
		if err != nil {
			b.Fatal(err)
		}
		events = append(events, e)
	}

	var nspans int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := spans.NewAssembler()
		sink := a.Sink()
		for _, e := range events {
			sink(e)
		}
		nspans = len(a.Spans())
	}
	b.ReportMetric(float64(len(events))/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e3, "events/µs")
	b.ReportMetric(float64(nspans), "spans")
}

// --- E18: adaptive rate control (see EXPERIMENTS.md) ---

// BenchmarkControllerDecision pins the adaptive decision path: one
// Decide call for a paper-sized group (k=16) with a warmed estimator
// and scratch buffers. The CI gate holds this at 0 allocs/op — the
// decision sits on the group-completion hot path of every repairer.
func BenchmarkControllerDecision(b *testing.B) {
	c := ratecontrol.New(ratecontrol.Config{})
	src := simrand.New(1)
	model, err := faults.NewBurst(src.Stream("bench/burst"), 0.15, 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		c.ObservePacket(model.Drop())
	}
	zone := scoping.ZoneID(1)
	c.ObserveZLC(zone, 4)
	c.Decide(zone, 16, 0) // warm the DP scratch
	b.ReportAllocs()
	b.ResetTimer()
	h := 0
	for i := 0; i < b.N; i++ {
		h = c.Decide(zone, 16, i&3).H
	}
	b.ReportMetric(float64(h), "h")
}

// --- E19: streaming health engine ---

// BenchmarkHealthSink pins the health engine's steady-state ingest
// path: the event stream of one seeded burst-loss run is captured
// once, the engine is warmed on it (zone rows grown, loss map sized,
// evaluation ticks consumed), then each iteration replays the whole
// stream through the warmed sink. The CI gate holds this at 0
// allocs/op — the sink sees every protocol event of an instrumented
// run, so any per-event allocation would tax the entire session.
func BenchmarkHealthSink(b *testing.B) {
	var buf bytes.Buffer
	if _, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       5,
		NumPackets: 128,
		Until:      20,
		Faults:     BurstLossPlan(8),
		Telemetry:  &TelemetryConfig{Events: &buf},
	}); err != nil {
		b.Fatal(err)
	}
	var events []telemetry.Event
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		e, err := telemetry.ParseEventLine(line)
		if err != nil {
			b.Fatal(err)
		}
		events = append(events, e)
	}
	spec, err := health.ParseSpec(strings.NewReader(
		"recovery_latency p95 <= 0.1 window=5 fast=1.25 min=2\n" +
			"suppression_ratio >= 0.5 window=10 min=8\n" +
			"repair_locality >= 0.6 window=10 min=8\n"))
	if err != nil {
		b.Fatal(err)
	}
	eng := health.NewEngine(spec, nil)
	sink := eng.Sink()
	for _, e := range events {
		sink(e) // warm: grow zone rows, size the loss map, run the ticks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range events {
			sink(e)
		}
	}
	b.ReportMetric(float64(len(events))/(float64(b.Elapsed().Nanoseconds())/float64(b.N))*1e3, "events/µs")
}

// BenchmarkCensusSink measures the cost-census ingest paths — the bus
// sink and the netsim hop tap — over a recorded burst-loss event
// stream. Both must stay at 0 allocs/op in steady state: they run for
// every packet on every link, so any per-event garbage would dominate
// large-topology runs. Gated in CI on allocs/op.
func BenchmarkCensusSink(b *testing.B) {
	var buf bytes.Buffer
	if _, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Seed:       5,
		NumPackets: 128,
		Until:      20,
		Faults:     BurstLossPlan(8),
		Telemetry:  &TelemetryConfig{Events: &buf},
	}); err != nil {
		b.Fatal(err)
	}
	var events []telemetry.Event
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		e, err := telemetry.ParseEventLine(line)
		if err != nil {
			b.Fatal(err)
		}
		events = append(events, e)
	}
	spec := topology.Figure10(topology.Figure10Params{})
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		b.Fatal(err)
	}
	eng := census.New(telemetry.NewRegistry(), h, spec.Graph.NumNodes())
	eng.BindLinks(spec.Graph)
	sink := eng.Sink()
	pkt := &packet.Data{Payload: make([]byte, 1024)}
	nLinks := spec.Graph.NumLinks()
	for i, e := range events {
		sink(e) // warm: first touches of every zone cell
		eng.ObserveHop(i%nLinks, i&1, pkt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, e := range events {
			sink(e)
			eng.ObserveHop(j%nLinks, j&1, pkt)
		}
	}
	b.ReportMetric(float64(2*len(events))/(float64(b.Elapsed().Nanoseconds())/float64(b.N))*1e3, "ops/µs")
}
