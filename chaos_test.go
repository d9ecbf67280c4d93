package sharqfec

import (
	"reflect"
	"strings"
	"testing"
)

// TestRunChaosZCRCrash is the headline dynamics scenario: the first
// leaf-zone ZCR crashes mid-stream, the zone re-elects a live
// replacement, and every surviving receiver still recovers the whole
// stream.
func TestRunChaosZCRCrash(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reelections) != 1 {
		t.Fatalf("got %d re-elections, want 1", len(res.Reelections))
	}
	re := res.Reelections[0]
	if re.Crashed != 8 {
		t.Errorf("crashed node = %d, want 8", re.Crashed)
	}
	if re.NewZCR < 0 || re.NewZCR == re.Crashed {
		t.Errorf("new ZCR = %d, want a live replacement", re.NewZCR)
	}
	if re.RecoverySeconds < 0 {
		t.Error("zone never agreed on a replacement ZCR")
	}
	if re.RecoverySeconds > 30 {
		t.Errorf("re-election took %.1fs, want well under the run", re.RecoverySeconds)
	}
	if res.CompletionRate != 1 {
		t.Errorf("survivor completion = %v, want 1 despite the crash", res.CompletionRate)
	}
	if re.ZoneCompletion != 1 {
		t.Errorf("zone completion = %v, want 1 after the zone lost its ZCR", re.ZoneCompletion)
	}
	if !res.Verified {
		t.Error("recovered payloads did not match the source")
	}
	if res.LocalRepairFrac == 0 {
		t.Error("no zone-local repairs observed")
	}
	if len(res.FaultLog) != 1 || !strings.Contains(res.FaultLog[0], "crash 8") {
		t.Errorf("fault log = %v, want one crash entry", res.FaultLog)
	}
}

// TestRunChaosBackboneFlap takes a backbone link down mid-burst and
// back up; routing heals around it and delivery still completes.
func TestRunChaosBackboneFlap(t *testing.T) {
	res, err := RunChaos(ChaosConfig{
		Seed:       11,
		NumPackets: 512,
		Faults:     BackboneFlapPlan(),
		Until:      60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate != 1 {
		t.Errorf("completion = %v, want 1 (reroute over the mesh ring)", res.CompletionRate)
	}
	if !res.Verified {
		t.Error("recovered payloads did not match the source")
	}
	if len(res.FaultLog) != 2 {
		t.Errorf("fault log = %v, want down+up", res.FaultLog)
	}
}

// TestRunChaosDeterminism runs a mixed fault scenario twice at one seed
// and requires identical results.
func TestRunChaosDeterminism(t *testing.T) {
	run := func() *ChaosResult {
		res, err := RunChaos(ChaosConfig{
			Topology:   ChainTopology(6, 0.08),
			Seed:       42,
			NumPackets: 64,
			Until:      50,
			Faults: NewFaultPlan().
				Crash(9, 1).
				LinkDown(10, 3).LinkUp(12, 3).
				GilbertLink(14, 4, 0.2, 5),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged:\n a: %+v\n b: %+v", a, b)
	}
}

func TestRunChaosRejectsSRM(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Protocol: SRM}); err == nil {
		t.Fatal("RunChaos accepted SRM, want error (no ZCRs to re-elect)")
	}
}

// TestEmptyFaultPlanZeroDrift is the byte-identity contract: attaching
// a nil or empty plan to RunData must reproduce the fault-free result
// exactly, for both protocol families.
func TestEmptyFaultPlanZeroDrift(t *testing.T) {
	for _, proto := range []Protocol{SHARQFEC, SRM} {
		run := func(plan *FaultPlan) *DataResult {
			res, err := RunData(DataConfig{
				Protocol:   proto,
				Topology:   ChainTopology(4, 0.08),
				Seed:       1,
				NumPackets: 64,
				Until:      90,
				Faults:     plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		bare := run(nil)
		empty := run(NewFaultPlan())
		if !reflect.DeepEqual(bare, empty) {
			t.Errorf("%s: empty fault plan drifted from fault-free run:\n bare:  %+v\n empty: %+v", proto, bare, empty)
		}
	}
}

// TestGilbertDegradesSRMMore checks the burst-loss claim: at equal mean
// loss, Gilbert–Elliott bursts inflate plain-ARQ SRM's NACK traffic
// while full SHARQFEC absorbs bursts inside FEC groups and NACKs less.
func TestGilbertDegradesSRMMore(t *testing.T) {
	nacks := func(proto Protocol, plan *FaultPlan) int {
		res, err := RunData(DataConfig{
			Protocol:   proto,
			Seed:       5,
			NumPackets: 256,
			Until:      30,
			Faults:     plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CompletionRate != 1 {
			t.Fatalf("%s completion = %v, want 1", proto, res.CompletionRate)
		}
		return res.NACKsSent
	}
	srmBern := nacks(SRM, nil)
	srmGE := nacks(SRM, BurstLossPlan(8))
	shqBern := nacks(SHARQFEC, nil)
	shqGE := nacks(SHARQFEC, BurstLossPlan(8))
	srmRatio := float64(srmGE) / float64(srmBern)
	shqRatio := float64(shqGE) / float64(shqBern)
	if srmRatio <= shqRatio {
		t.Errorf("burst-loss NACK inflation: SRM ×%.2f vs SHARQFEC ×%.2f, want SRM hit harder", srmRatio, shqRatio)
	}
	if shqRatio >= 1 {
		t.Errorf("SHARQFEC NACKs grew ×%.2f under bursts, want FEC groups to absorb them", shqRatio)
	}
}

func TestParseFaultPlanFacade(t *testing.T) {
	p, err := ParseFaultPlan(strings.NewReader("9 crash 8\n10.5 link-down 3\n# note\n12 link-up 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Fatal("parsed plan reports empty")
	}
	want := []string{"9 crash 8", "10.5 link-down 3", "12 link-up 3"}
	if !reflect.DeepEqual(p.Events(), want) {
		t.Errorf("Events() = %v, want %v", p.Events(), want)
	}
	if _, err := ParseFaultPlan(strings.NewReader("9 melt-down 8")); err == nil {
		t.Error("bad keyword accepted")
	}
	var nilPlan *FaultPlan
	if !nilPlan.Empty() {
		t.Error("nil plan should be empty")
	}
}

// TestRunChaosRestart crashes a ZCR and restarts it as a late joiner;
// the node must count as live again and catch up on the stream.
func TestRunChaosRestart(t *testing.T) {
	res, err := RunChaos(ChaosConfig{
		Seed:       13,
		NumPackets: 256,
		Faults:     NewFaultPlan().Crash(8, 8).Restart(20, 8),
		Until:      90,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate != 1 {
		t.Errorf("completion = %v, want 1 including the restarted node", res.CompletionRate)
	}
	if len(res.FaultLog) != 2 {
		t.Errorf("fault log = %v, want crash+restart", res.FaultLog)
	}
}
