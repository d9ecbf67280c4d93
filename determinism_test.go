package sharqfec

// Determinism gate for the fast-path overhaul: the optimized GF(256)
// kernels, the memoized codec, the specialized event queue, and
// pooled netsim fan-out must not change a single simulated outcome.
// These digests were captured from the pre-optimization scalar/heap
// implementation; any behavioural drift in the hot paths fails here
// byte-for-byte.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
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

// TestFixedSeedRunDigests pins the full observable output of fixed-seed
// runs across every protocol family and the fault engine. The golden
// hashes come from the pre-overhaul implementation (scalar GF kernels,
// container/heap queue, unpooled fan-out).
func TestFixedSeedRunDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest suite")
	}
	t.Run("sharqfec-seed21", func(t *testing.T) {
		res, err := RunData(DataConfig{Protocol: SHARQFEC, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, dataDigest(res), goldenSHARQFEC21)
	})
	t.Run("srm-seed22", func(t *testing.T) {
		res, err := RunData(DataConfig{Protocol: SRM, Seed: 22, NumPackets: 512})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, dataDigest(res), goldenSRM22)
	})
	t.Run("ecsrm-gilbert-seed5", func(t *testing.T) {
		res, err := RunData(DataConfig{
			Protocol: ECSRM, Seed: 5, NumPackets: 256, Until: 30,
			Faults: BurstLossPlan(8),
		})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, dataDigest(res), goldenECSRMGilbert5)
	})
	t.Run("chaos-crash-seed31", func(t *testing.T) {
		res, err := RunChaos(ChaosConfig{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, chaosDigest(res), goldenChaosCrash31)
	})
	t.Run("chaos-backbone-seed11", func(t *testing.T) {
		res, err := RunChaos(ChaosConfig{
			Seed: 11, NumPackets: 512, Faults: BackboneFlapPlan(), Until: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, chaosDigest(res), goldenChaosBackbone11)
	})
}

func checkDigest(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("fixed-seed run digest drifted:\n got  %s\n want %s", got, want)
	}
}

// Golden digests of the pre-optimization implementation.
const (
	goldenSHARQFEC21      = "b23dad0c7a20877fa034f206d132f44481571ae6f32ab2e61c9eccee347fe6cc"
	goldenSRM22           = "d316ecabed5b998cbacedd88b4917aeaef1bbbae956cec179cd6b8430384a1f6"
	goldenECSRMGilbert5   = "2b5da0d48cb4e05cc61ab45efc03120e3f9064be8a2801e52bfe50f8eb689ef4"
	goldenChaosCrash31    = "b032a4e5ed4e8d416e4b8167a8a9c2abfa5149595768c3bd1712b6665a02c985"
	goldenChaosBackbone11 = "5c38ba696a2c54e7962c1b0855253611e80617d4dc12ac5b8b84fd61f72b27a1"
)

// TestStaticRateControlDigestMatchesOff pins the rate-control seam: an
// explicit static controller must reproduce the built-in default
// byte-for-byte — same digest, both against the pre-seam golden hash —
// so `-ratecontrol=static` is a rename of `off`, never a behavior
// change.
func TestStaticRateControlDigestMatchesOff(t *testing.T) {
	run := func(rc *RateControlConfig) string {
		t.Helper()
		res, err := RunData(DataConfig{
			Protocol: SHARQFEC, Seed: 21, RateControl: rc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dataDigest(res)
	}
	off := run(nil)
	static := run(&RateControlConfig{Mode: RateControlStatic})
	if off != static {
		t.Errorf("static rate control diverged from off:\n off    %s\n static %s", off, static)
	}
	checkDigest(t, static, goldenSHARQFEC21)
}
