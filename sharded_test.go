package sharqfec

// Shard-count invariance gate for the zone-sharded parallel engine:
// the same config and seed must yield byte-identical DataResults at
// every shard count. The five cases mirror the sequential determinism
// suite's coverage — plain SHARQFEC, SRM, ECSRM under Gilbert bursts,
// a ZCR crash plan and a backbone flap plan (the chaos seeds are
// expressed as RunData+FaultPlan here; RunChaos hard-wires telemetry,
// which sharded runs reject) — plus adaptive rate control under burst
// loss. The K=1 digests are pinned: a drift
// means the sharded family's results changed, breaking comparability
// with recorded large-N experiments.

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"
)

var shardMatrixCases = []struct {
	name   string
	cfg    DataConfig
	golden string
}{
	{
		name:   "sharqfec-seed21",
		cfg:    DataConfig{Protocol: SHARQFEC, Seed: 21},
		golden: "951f9816c99dcb0e6a9972cb0f2b2a3d631d5a36bd27777fb4fa6fe66602c4fa",
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
}

// TestShardCountInvarianceMatrix runs every case at 1, 2 and 4 shards
// and requires all three digests to match the pinned golden.
func TestShardCountInvarianceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest suite")
	}
	for _, tc := range shardMatrixCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int{1, 2, 4} {
				cfg := tc.cfg
				cfg.Shards = k
				res, err := RunData(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got := dataDigest(res); got != tc.golden {
					t.Errorf("shards=%d digest drifted:\n got  %s\n want %s", k, got, tc.golden)
				}
				if res.CompletionRate <= 0 {
					t.Errorf("shards=%d: completion rate %v; the run did nothing", k, res.CompletionRate)
				}
			}
		})
	}
}

// TestShardsMatchSequentialOnLosslessTopologies is the cross-engine
// differential: the two deterministic families differ only in which
// stream a link direction draws its Bernoulli loss from, so where no
// such draw is ever taken the one data driver must report the same
// DataResult — every series bin, every total — on the sequential engine
// and at any shard count, for both protocols. The faulted input keeps
// link loss at zero (Gilbert models own their randomness) while
// exercising rerouting around a downed link, loss models, a crash, the
// hierarchy swap and a late-joining restart; the adaptive input sizes
// injection with the burst-fitting controller under Gilbert loss (SRM
// has no FEC and ignores it).
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
								t.Errorf("shards=%d diverged from the sequential engine:\n seq %+v\n got %+v", k, ref, res)
							}
						}
					})
				}
			})
		}
	}
}

// TestShardedRejectsUnsupportedConfigs pins the error surface: the
// combinations the sharded engine cannot yet honor must fail loudly,
// never silently fall back to sequential.
func TestShardedRejectsUnsupportedConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  DataConfig
	}{
		{"telemetry", DataConfig{Protocol: SHARQFEC, Shards: 2, Telemetry: &TelemetryConfig{}}},
		{"packet-trace", DataConfig{Protocol: SHARQFEC, Shards: 2, TraceWriter: &bytes.Buffer{}}},
		{"negative-shards", DataConfig{Protocol: SHARQFEC, Shards: -3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunData(tc.cfg); err == nil {
				t.Error("want an error, got success")
			}
		})
	}
}

// TestShardedStaticRateControlMatchesOff mirrors the sequential seam
// pin: static rate control must be a rename of off, sharded too.
func TestShardedStaticRateControlMatchesOff(t *testing.T) {
	run := func(rc *RateControlConfig) string {
		t.Helper()
		res, err := RunData(DataConfig{Protocol: SHARQFEC, Seed: 21, Shards: 2, RateControl: rc})
		if err != nil {
			t.Fatal(err)
		}
		return dataDigest(res)
	}
	if off, static := run(nil), run(&RateControlConfig{Mode: RateControlStatic}); off != static {
		t.Errorf("sharded static rate control diverged from off:\n off    %s\n static %s", off, static)
	}
}

// TestShardMatrixHarvest prints the current K=1 digests for re-pinning
// after an intentional behavior change:
//
//	SHARD_HARVEST=1 go test -run TestShardMatrixHarvest -v
//
// It only prints; pins are updated by hand.
func TestShardMatrixHarvest(t *testing.T) {
	if os.Getenv("SHARD_HARVEST") == "" {
		t.Skip("harvest helper; run with SHARD_HARVEST=1 and -v")
	}
	for _, tc := range shardMatrixCases {
		cfg := tc.cfg
		cfg.Shards = 1
		res, err := RunData(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Printf("HARVEST %s %s\n", tc.name, dataDigest(res))
	}
}
