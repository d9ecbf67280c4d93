package sharqfec

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestParseProtocol(t *testing.T) {
	cases := map[string]Protocol{
		"srm":                SRM,
		"sharqfec":           SHARQFEC,
		"sharqfec(ns)":       SHARQFECNoScope,
		"sharqfec-ni":        SHARQFECNoInject,
		"sharqfec(ns,ni)":    SHARQFECNoScopeNoInject,
		"ecsrm":              ECSRM,
		"sharqfec(ns,ni,so)": ECSRM,
	}
	for in, want := range cases {
		got, err := ParseProtocol(in)
		if err != nil || got != want {
			t.Fatalf("ParseProtocol(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestProtocolStrings(t *testing.T) {
	if SHARQFEC.String() != "SHARQFEC" || ECSRM.String() != "SHARQFEC(ns,ni,so)/ECSRM" {
		t.Fatal("protocol strings wrong")
	}
	if len(Protocols()) != 7 {
		t.Fatal("expected 7 protocols")
	}
}

func TestTopologyAccessors(t *testing.T) {
	top := Figure10Topology()
	if top.NumNodes() != 113 || top.NumReceivers() != 112 || top.NumZones() != 29 {
		t.Fatalf("figure10: %d/%d/%d", top.NumNodes(), top.NumReceivers(), top.NumZones())
	}
	if top.Name() != "figure10" {
		t.Fatalf("name = %q", top.Name())
	}
	if ChainTopology(5, 0.1).NumNodes() != 5 {
		t.Fatal("chain wrong")
	}
	if StarTopology(4, 0).NumReceivers() != 3 {
		t.Fatal("star wrong")
	}
	if TreeTopology([]int{2, 2}, 0).NumNodes() != 7 {
		t.Fatal("tree wrong")
	}
	if NationalTopology(2, 2, 2, 3).NumReceivers() != 2+4+24 {
		t.Fatal("national wrong")
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Start: 0, BinWidth: 0.1, Bins: []float64{1, 5, 2}}
	if s.Sum() != 8 {
		t.Fatalf("sum = %v", s.Sum())
	}
	v, at := s.Max()
	if v != 5 || at != 0.1 {
		t.Fatalf("max = %v@%v", v, at)
	}
	if got := s.Window(0.1, 0.3); got != 7 {
		t.Fatalf("window = %v", got)
	}
}

func TestRunDataSmallSHARQFEC(t *testing.T) {
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Topology:   ChainTopology(4, 0.08),
		Seed:       1,
		NumPackets: 64,
		Until:      60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate != 1 {
		t.Fatalf("completion = %v", res.CompletionRate)
	}
	if !res.Verified {
		t.Fatal("payloads not verified")
	}
	if res.AvgDataRepair.Sum() == 0 {
		t.Fatal("no data traffic recorded")
	}
}

func TestRunDataSmallSRM(t *testing.T) {
	res, err := RunData(DataConfig{
		Protocol:   SRM,
		Topology:   ChainTopology(4, 0.08),
		Seed:       1,
		NumPackets: 64,
		Until:      90,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate != 1 {
		t.Fatalf("completion = %v", res.CompletionRate)
	}
	if !res.Verified {
		t.Fatal("payloads not verified")
	}
}

func TestRunDataAllVariantsComplete(t *testing.T) {
	for _, p := range Protocols() {
		res, err := RunData(DataConfig{
			Protocol:   p,
			Topology:   TreeTopology([]int{2, 2}, 0.06),
			Seed:       7,
			NumPackets: 32,
			Until:      90,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.CompletionRate < 1 {
			t.Fatalf("%s completion = %v", p, res.CompletionRate)
		}
	}
}

func TestRunDataUnknownProtocol(t *testing.T) {
	if _, err := RunData(DataConfig{Protocol: "nope"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunRTTSmall(t *testing.T) {
	res, err := RunRTT(RTTConfig{
		Topology: Figure10Topology(),
		Sender:   3,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ratios) != 10 {
		t.Fatalf("probes = %d", len(res.Ratios))
	}
	if res.Able[len(res.Able)-1] < res.Receivers/2 {
		t.Fatalf("only %d/%d receivers could estimate", res.Able[len(res.Able)-1], res.Receivers)
	}
	if f := res.FinalFractionWithin(0.25); f < 0.5 {
		t.Fatalf("fraction within 25%% = %v, want > 0.5 (paper: >50%% within a few %%)", f)
	}
	if m := res.MedianRatio(len(res.Ratios) - 1); m < 0.7 || m > 1.3 {
		t.Fatalf("median ratio = %v", m)
	}
}

func TestRunRTTBadSender(t *testing.T) {
	if _, err := RunRTT(RTTConfig{Topology: ChainTopology(3, 0), Sender: 99}); err == nil {
		t.Fatal("invalid sender accepted")
	}
}

func TestRunZCRElectionChain(t *testing.T) {
	res, err := RunZCRElection(ChainTopology(5, 0), 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("chain election incorrect: %+v", res.PerZone)
	}
}

func TestRunZCRElectionFigure10(t *testing.T) {
	res, err := RunZCRElection(Figure10Topology(), 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("figure10 election incorrect: %+v", res.PerZone)
	}
	if res.Takeovers == 0 {
		t.Fatal("no takeovers recorded")
	}
}

// TestScalingSweepSessionTraffic is E13 (§5.1) on one sweep point:
// scoping cuts session-message deliveries and per-node state against
// the flat all-pairs session on the same hierarchy.
func TestScalingSweepSessionTraffic(t *testing.T) {
	rep, err := RunScalingSweep(ScalingSweepConfig{
		Regions: 2, Cities: 3, Suburbs: 2, Subscribers: []int{4}, Seed: 6, Seconds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Points[0]
	if r := float64(p.FlatDeliveries) / float64(p.ScopedDeliveries); !(r > 2) {
		t.Fatalf("scoped session traffic reduction = %vx (%d flat / %d scoped deliveries), want substantially > 1",
			r, p.FlatDeliveries, p.ScopedDeliveries)
	}
	if p.ScopedStateMeasured >= int64(p.FlatStateAnalytic) {
		t.Fatalf("scoped state %d not below flat %d", p.ScopedStateMeasured, p.FlatStateAnalytic)
	}
}

func TestFigureReports(t *testing.T) {
	if !strings.Contains(Figure1Report(), "27.0%") {
		t.Fatal("Figure1Report missing calibration")
	}
	if !strings.Contains(Figure8Report(), "630") {
		t.Fatal("Figure8Report missing suburb row")
	}
	if !strings.Contains(Figure8ReportFor(2, 2, 2, 10), "Suburb") {
		t.Fatal("custom Figure8 report broken")
	}
}

func TestRunLateJoin(t *testing.T) {
	res, err := RunLateJoin(52, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion < 1 {
		t.Fatalf("late joiner completion %.4f", res.Completion)
	}
	if res.LocalRepairFrac < 0.8 {
		t.Fatalf("late-join repairs only %.0f%% local", 100*res.LocalRepairFrac)
	}
	if res.CatchUpSeconds <= 0 || res.CatchUpSeconds > 60 {
		t.Fatalf("catch-up took %.1fs", res.CatchUpSeconds)
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunReceiverReports(t *testing.T) {
	res, err := RunReceiverReports(53)
	if err != nil {
		t.Fatal(err)
	}
	// Figure-10 worst compound loss is ≈28.3%; the aggregated view must
	// land near the true measured worst.
	if res.TrueWorstLoss < 0.2 || res.TrueWorstLoss > 0.4 {
		t.Fatalf("true worst loss %.3f outside the expected band", res.TrueWorstLoss)
	}
	diff := res.SourceWorstLoss - res.TrueWorstLoss
	if diff < -0.05 || diff > 0.05 {
		t.Fatalf("aggregated view %.3f vs true %.3f", res.SourceWorstLoss, res.TrueWorstLoss)
	}
	if res.SourceMembers < res.Receivers*9/10 {
		t.Fatalf("aggregation covers %d of %d receivers", res.SourceMembers, res.Receivers)
	}
	// The whole point: the source hears O(zones) reporters, not O(n).
	if res.DirectReporters >= res.Receivers/2 {
		t.Fatalf("source heard %d direct reporters for %d receivers", res.DirectReporters, res.Receivers)
	}
}

// TestFailoverAndReportsPinned pins the failover, receiver-report,
// timer-sweep and late-join runners' whole results at one seed each, so
// a change to how they are driven shows as a drift. The failover
// experiment (§3.2/§5.2) is RunChaos's default scenario: the crashed
// ZCR's zone elects a live replacement, and the survivors, the zone's
// among them, still complete every group.
func TestFailoverAndReportsPinned(t *testing.T) {
	fo, err := RunChaos(ChaosConfig{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if fo.CompletionRate != 1 {
		t.Errorf("RunChaos(Seed 51) survivor completion = %v, want 1", fo.CompletionRate)
	}
	if want := []Reelection{{Crashed: 8, Zone: 2, NewZCR: 11, CrashAt: 9, RecoverySeconds: 5.1999999999999815, ZoneCompletion: 1}}; !slices.Equal(fo.Reelections, want) {
		t.Errorf("RunChaos(Seed 51).Reelections = %+v, want %+v", fo.Reelections, want)
	}
	rr, err := RunReceiverReports(53)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ReceiverReportResult{
		SourceWorstLoss: 0.3125, SourceMembers: 152, TrueWorstLoss: 0.287109375,
		DirectReporters: 7, Receivers: 112,
	}); *rr != want {
		t.Errorf("RunReceiverReports(53) = %+v, want %+v", *rr, want)
	}

	pts, err := RunTimerSweep(54, []float64{0.5, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// MeanRecovery is a float sum whose order is not part of the
	// contract: it is pinned to 1e-12 relative, everything else exactly.
	wantPts := []TimerSweepPoint{
		{Multiplier: 0.5, C1: 1, C2: 1, D1: 0.5, D2: 0.5, NACKs: 337, Repairs: 1313, DupShares: 883, MeanRecovery: 0.08631510460348436, Completion: 1},
		{Multiplier: 1, C1: 2, C2: 2, D1: 1, D2: 1, NACKs: 236, Repairs: 782, DupShares: 921, MeanRecovery: 0.22447727557890954, Completion: 1},
		{Multiplier: 2, C1: 4, C2: 4, D1: 2, D2: 2, NACKs: 392, Repairs: 674, DupShares: 667, MeanRecovery: 0.7180093468388565, Completion: 1},
		{Multiplier: 4, C1: 8, C2: 8, D1: 4, D2: 4, NACKs: 344, Repairs: 610, DupShares: 403, MeanRecovery: 1.3074260787808298, Completion: 1},
	}
	for i, want := range wantPts {
		got := pts[i]
		if math.Abs(got.MeanRecovery-want.MeanRecovery) > 1e-12*want.MeanRecovery {
			t.Errorf("RunTimerSweep(54)[%d].MeanRecovery = %v, want %v", i, got.MeanRecovery, want.MeanRecovery)
		}
		got.MeanRecovery = want.MeanRecovery
		if got != want {
			t.Errorf("RunTimerSweep(54)[%d] = %+v, want %+v", i, got, want)
		}
	}

	for _, tc := range []struct {
		joinAt float64
		want   LateJoinResult
	}{
		// 0 is the default join, after the stream ends.
		{0, LateJoinResult{Joiner: 12, JoinAt: 9.6, Completion: 1, LocalRepairFrac: 0.9813432835820896, CatchUpSeconds: 2.5170101457214287}},
		// Mid-stream: groups are still being sent when the joiner arrives.
		{7.5, LateJoinResult{Joiner: 12, JoinAt: 7.5, Completion: 1, LocalRepairFrac: 0.7571428571428571, CatchUpSeconds: 1.52521597824445}},
	} {
		lj, err := RunLateJoin(52, tc.joinAt)
		if err != nil {
			t.Fatal(err)
		}
		if *lj != tc.want {
			t.Errorf("RunLateJoin(52, %v) = %+v, want %+v", tc.joinAt, *lj, tc.want)
		}
	}
}

func TestRunTimerSweep(t *testing.T) {
	pts, err := RunTimerSweep(54, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Completion < 0.98 {
			t.Fatalf("multiplier %v: completion %.3f", pt.Multiplier, pt.Completion)
		}
	}
	// Wider timer windows must suppress more duplicate shares at the
	// cost of slower recovery — the trade-off §7 describes.
	if pts[1].DupShares >= pts[0].DupShares {
		t.Fatalf("wider windows did not reduce duplicates: %d vs %d", pts[1].DupShares, pts[0].DupShares)
	}
	if pts[1].MeanRecovery <= pts[0].MeanRecovery {
		t.Fatalf("wider windows did not slow recovery: %.3f vs %.3f",
			pts[1].MeanRecovery, pts[0].MeanRecovery)
	}
}

func TestRunEnsemble(t *testing.T) {
	res, err := RunEnsemble(DataConfig{
		Protocol:   SHARQFEC,
		Topology:   ChainTopology(4, 0.08),
		NumPackets: 64,
		Until:      60,
	}, Seeds(9, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	if res.MeanCompletion < 1 {
		t.Fatalf("mean completion %v", res.MeanCompletion)
	}
	if res.MeanPktsPerReceiver <= 0 || res.StdPktsPerReceiver < 0 {
		t.Fatalf("stats: %v ± %v", res.MeanPktsPerReceiver, res.StdPktsPerReceiver)
	}
	if res.MeanSeries.Sum() <= 0 {
		t.Fatal("empty mean series")
	}
	// Mean of series sums equals mean of sums.
	if d := res.MeanSeries.Sum() - res.MeanPktsPerReceiver; d > 1e-6 || d < -1e-6 {
		t.Fatalf("series mean inconsistent: %v vs %v", res.MeanSeries.Sum(), res.MeanPktsPerReceiver)
	}
}

func TestRunEnsembleNoSeeds(t *testing.T) {
	if _, err := RunEnsemble(DataConfig{Protocol: SHARQFEC}, nil); err == nil {
		t.Fatal("empty ensemble accepted")
	}
}

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	a, b := Seeds(5, 8), Seeds(5, 8)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Seeds not deterministic")
		}
		if seen[a[i]] {
			t.Fatal("duplicate seed")
		}
		seen[a[i]] = true
	}
}

func TestEnsembleParallelMatchesSerial(t *testing.T) {
	// Parallel replicas must not perturb determinism: the ensemble's
	// per-seed results equal individually-run results.
	cfg := DataConfig{Protocol: ECSRM, Topology: ChainTopology(3, 0.1), NumPackets: 32, Until: 60}
	ens, err := RunEnsemble(cfg, Seeds(77, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range ens.Seeds {
		c := cfg
		c.Seed = seed
		solo, err := RunData(c)
		if err != nil {
			t.Fatal(err)
		}
		if solo.NACKsSent != ens.Runs[i].NACKsSent || solo.RepairsSent != ens.Runs[i].RepairsSent {
			t.Fatalf("seed %d diverged under parallel execution", seed)
		}
	}
}

func TestRunDataTrace(t *testing.T) {
	var buf strings.Builder
	_, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Topology:   ChainTopology(3, 0),
		NumPackets: 16,
		Until:      30,
		Telemetry:  &TelemetryConfig{PacketTrace: &buf},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "+ 6.0000 n0 z0 DATA 1000") {
		t.Fatalf("trace missing the first transmission:\n%.300s", out)
	}
	if !strings.Contains(out, "SESSION") || !strings.Contains(out, "r 6.0") {
		t.Fatal("trace missing deliveries or session lines")
	}
}

func TestRunDataUnderCongestion(t *testing.T) {
	// Beyond the paper's Bernoulli model: loss from drop-tail queue
	// overflow. A chain with zero configured link loss but tiny queues
	// still loses packets to congestion bursts (repair bursts share the
	// data path); the protocol must recover them all.
	res, err := RunData(DataConfig{
		Protocol:   SHARQFEC,
		Topology:   ChainTopology(4, 0.06),
		Seed:       91,
		NumPackets: 128,
		Until:      90,
		QueueLimit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate < 1 {
		t.Fatalf("completion %.4f under drop-tail congestion", res.CompletionRate)
	}
	if !res.Verified {
		t.Fatal("payloads not verified under congestion")
	}
}
