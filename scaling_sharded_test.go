package sharqfec

// Sharded scaling-sweep gates: the census must measure exactly the
// same sweep — not just statistically — at every shard count, and the
// flat cutoff must swap the O(N²) flat run for the analytic model
// without disturbing the scoped measurement.

import (
	"reflect"
	"strings"
	"testing"
)

// TestScalingSweepShardCountInvariance runs the smallest sweep on one
// shard and on two and requires identical points. Any divergence means
// the parallel engine reordered or dropped session traffic.
func TestScalingSweepShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full census sweeps")
	}
	base := ScalingSweepConfig{
		Subscribers: []int{2},
		Seed:        11,
		Seconds:     5,
	}
	one, err := RunScalingSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 2
	par, err := RunScalingSweep(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Points, par.Points) {
		t.Errorf("2-shard sweep diverged from one shard:\n one %+v\n two %+v",
			one.Points, par.Points)
	}
}

// TestDesignatedCensusShardInvariance covers the E21 configuration:
// with ZCRs pre-designated (deployment model, DesignateZCRs) the census
// must still measure identically at every shard count, and — since
// designation removes the bootstrap challenge storm but nothing else —
// it must observe strictly less control traffic than the elected run
// while converging to the same steady-state session tables.
func TestDesignatedCensusShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("several census runs")
	}
	top := NationalTopology(3, 3, 3, 2)
	measure := func(shards int, designate bool) scalingMeasure {
		t.Helper()
		m, err := runSessionCensus(top, SHARQFEC, 7, 5, shards, designate)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := measure(0, true)
	if ref.peakState <= 0 || ref.ctrlLink <= 0 {
		t.Fatalf("designated census measured nothing: %+v", ref)
	}
	for _, k := range []int{1, 2, 4} {
		if got := measure(k, true); got != ref {
			t.Errorf("shards=%d designated census %+v, want shards=0's %+v", k, got, ref)
		}
	}
	full := measure(0, false)
	if full.ctrlLink <= ref.ctrlLink {
		t.Errorf("designation should remove bootstrap challenge traffic: designated %d >= elected %d",
			ref.ctrlLink, full.ctrlLink)
	}
	if ref.peakState <= 0 || full.peakState <= 0 {
		t.Error("both runs should build session state")
	}
}

// TestScalingSweepFlatCutoff pins the analytic-flat fallback: above
// the cutoff the flat side must come from the model, flagged in both
// the point and the rendering, while the scoped side stays measured.
func TestScalingSweepFlatCutoff(t *testing.T) {
	rep, err := RunScalingSweep(ScalingSweepConfig{
		Subscribers: []int{2},
		Seed:        11,
		Seconds:     5,
		FlatCutoff:  1, // everything is above the cutoff
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Points[0]
	if !p.FlatAnalytic {
		t.Fatal("point above the flat cutoff not flagged FlatAnalytic")
	}
	if p.FlatStateMeasured != 0 || p.FlatMsgs != 0 {
		t.Errorf("flat side claims measurements above the cutoff: state %d msgs %d",
			p.FlatStateMeasured, p.FlatMsgs)
	}
	if p.ScopedStateMeasured <= 0 {
		t.Error("scoped side should still be measured")
	}
	if p.FlatStateAnalytic != p.Receivers {
		t.Errorf("analytic flat state %d, want all-pairs %d", p.FlatStateAnalytic, p.Receivers)
	}
	if p.StateRatioMeasured <= 0 {
		t.Error("hybrid state ratio not computed")
	}
	if !strings.Contains(rep.String(), "flat analytic") {
		t.Error("rendering does not flag the analytic flat column")
	}
}
