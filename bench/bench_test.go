package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sharqfec"
)

func TestHiPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{3, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := hiPercentile(c.n); got != c.want {
			t.Errorf("hiPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	v := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	for i, want := range []float64{3.5, 13.5, 31.0} {
		if got := quantile(v, float64(i+1)/4); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartile %d = %g, want %g", i+1, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	inf := math.Inf(1)
	if got := quantile([]float64{1, 2, inf, inf}, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with unrecovered tail = %g, want +Inf", got)
	}
}

func TestValidateNames(t *testing.T) {
	ok := []metricDef{{Name: "a.b-c_1", Unit: "ms", Better: "lower"}}
	many := func(n int) []metricDef {
		out := make([]metricDef, n)
		for i := range out {
			out[i] = metricDef{Name: "m" + strings.Repeat("x", i%8) + string(rune('a'+i%26)) + string(rune('a'+i/26)), Better: "lower"}
		}
		return out
	}
	two := []string{"w1", "w2"}
	for name, c := range map[string]struct {
		workloads  []string
		e2e, layer []metricDef
		valid      bool
	}{
		"declared":          {workloadNames(), declaredEndToEnd(), declaredPerLayer(), true},
		"minimal":           {two, ok, []metricDef{{Name: "l", Better: "higher"}}, true},
		"one workload":      {[]string{"w1"}, ok, ok, false},
		"nine workloads":    {[]string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}, ok, ok, false},
		"17 end-to-end":     {two, many(17), ok, false},
		"129 per-layer":     {two, ok, many(129), false},
		"128 per-layer":     {two, ok, many(128), true},
		"space in name":     {two, []metricDef{{Name: "a b", Better: "lower"}}, many(1), false},
		"leading dot":       {two, []metricDef{{Name: ".a", Better: "lower"}}, many(1), false},
		"too long":          {two, []metricDef{{Name: strings.Repeat("a", 65), Better: "lower"}}, many(1), false},
		"used twice":        {two, ok, ok, false},
		"workload = metric": {[]string{"w1", "a.b-c_1"}, ok, many(1), false},
		"bad direction":     {two, []metricDef{{Name: "a", Better: "up"}}, many(1), false},
	} {
		if err := validateNames(c.workloads, c.e2e, c.layer); (err == nil) != c.valid {
			t.Errorf("%s: validateNames = %v, want valid = %v", name, err, c.valid)
		}
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json to the tables this
// package emits from: same workloads, same metrics, units, directions
// and bounds, and a command that stays inside the benchmark's paths.
func TestBenchmarkJSONAgrees(t *testing.T) {
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d emitted", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := doc.Workloads[i]; d.Name != w.Name || d.Why != w.Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: declared %q, emitted %q (why at most 200 characters, one line)", i, d.Name, w.Name)
		}
	}
	same := func(kind string, declared, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Fatalf("%s: %d metrics declared, %d emitted", kind, len(declared), len(emitted))
		}
		for i, e := range emitted {
			d := declared[i]
			if d.Name != e.Name || d.Unit != e.Unit || d.Better != e.Better || d.Bound != e.Bound {
				t.Errorf("%s metric %d: declared %+v, emitted %+v", kind, i, d, e)
			}
			if len(e.Unit) > 16 {
				t.Errorf("%s: unit %q too long", e.Name, e.Unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, declaredEndToEnd())
	layer := declaredPerLayer()
	for i := range layer {
		layer[i].Bound = 0 // per_layer carries no bounds
	}
	same("per_layer", doc.PerLayer, layer)
	hasSetup := false
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

// TestHarnessSmoke runs the untraced harness end to end on a small
// scenario: a 6-node lossy chain, 64 packets.
func TestHarnessSmoke(t *testing.T) {
	w := &workload{Name: "smoke", SimPasses: 3, setup: func(seed uint64) (*instance, error) {
		return setupData(seed, dataScenario{top: sharqfec.ChainTopology(6, 0.05), packets: 64})
	}}
	d, err := runUntraced(w, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed != 0 || len(d.Samples) != w.SimPasses || len(d.SetupS) != 1 {
		t.Fatalf("failed %d (%v), %d passes, %d set-up samples", d.Failed, d.Errors, len(d.Samples), len(d.SetupS))
	}
	again, err := runUntraced(w, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range d.Fingerprints {
		if fp == "" || fp != again.Fingerprints[i] {
			t.Errorf("pass %d: fingerprints %q and %q across two runs", i, fp, again.Fingerprints[i])
		}
	}
	if d.Fingerprints[0] == d.Fingerprints[1] {
		t.Error("two seeds gave one fingerprint")
	}
	for name, v := range endToEndOf(d) {
		// A pass this small can fall inside one tick of the CPU clock.
		if positive := v > 0 || (strings.HasPrefix(name, "cpu_") && v == 0); !positive || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive finite value", name, v)
		}
	}
	if got := d.Sim["deliveries_per_rcvr"]; got < 64 {
		t.Errorf("deliveries_per_rcvr = %g, want at least the 64 data packets", got)
	}
}

func TestKindCounterReassemblesSplitLines(t *testing.T) {
	c := &kindCounter{byKind: map[string]float64{}}
	trace := `{"t":1,"ev":"packet_lost","node":3}` + "\n" + `{"t":2,"ev":"nack_sent","node":4}` + "\n"
	for _, cut := range []int{5, 20, len(trace) - 3} {
		*c = kindCounter{byKind: map[string]float64{}}
		for _, part := range []string{trace[:cut], trace[cut:]} {
			if _, err := c.Write([]byte(part)); err != nil {
				t.Fatal(err)
			}
		}
		if c.lines != 2 || c.byKind["packet_lost"] != 1 || c.byKind["nack_sent"] != 1 {
			t.Errorf("cut at %d: %d lines, kinds %v", cut, c.lines, c.byKind)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "pass_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_deliveries_per_s", Better: "higher", Bound: 0.10}
	sum := func(rounds ...float64) metricSummary { return metricSummary{Value: median(rounds), Rounds: rounds} }
	for name, c := range map[string]struct {
		def  metricDef
		a, b metricSummary
		want string
	}{
		"same":                      {lower, sum(100, 101, 102), sum(100, 101, 102), verdictOK},
		"within bound":              {lower, sum(100, 101, 102), sum(105, 106, 107), verdictOK},
		"beyond bound":              {lower, sum(100, 101, 102), sum(115, 116, 117), verdictRegressed},
		"faster":                    {lower, sum(100, 101, 102), sum(50, 51, 52), verdictOK},
		"higher is better, dropped": {higher, sum(100, 101, 102), sum(80, 81, 82), verdictRegressed},
		"higher is better, rose":    {higher, sum(100, 101, 102), sum(130, 131, 132), verdictOK},
		"noisy, overlapping":        {lower, sum(90, 100, 120), sum(95, 118, 125), verdictUnresolved},
		"noisy, all rounds worse":   {lower, sum(90, 100, 120), sum(140, 150, 170), verdictRegressed},
		"noisy, all rounds better":  {lower, sum(90, 100, 120), sum(60, 70, 85), verdictOK},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", name, got, c.want)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench.run", "", 0)
	w := tr.begin("workload.fig17_data", wFig17Data, root)
	tr.end(tr.begin("pass", wFig17Data, w))
	tr.end(w)
	tr.end(root)
	b, err := tr.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ts   float64
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want 3", len(doc.TraceEvents))
	}
	pass := doc.TraceEvents[2]
	if pass.Name != "pass" || pass.Args.Parent != w || pass.Dur < 0 || pass.Ts < doc.TraceEvents[1].Ts {
		t.Errorf("pass span %+v does not nest under span %d", pass, w)
	}
}

// spin burns CPU in this package for d.
func spin(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var spinSink uint64

// TestCPUProfileReader profiles a busy loop of this package and expects
// the stdlib-only pprof reader to find at least 80 % of the samples
// there.
func TestCPUProfileReader(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spinSink = spin(600 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var here, total, ticks int64
	for _, s := range samples {
		total += s.weight
		ticks += s.count
		if _, pkg := leafOf(s.stack); pkg == "sharqfec/bench" {
			here += s.weight
		}
	}
	if ticks < 20 {
		t.Fatalf("only %d profiler ticks in a 600 ms profile", ticks)
	}
	if share := float64(here) / float64(total); share < 0.8 {
		t.Errorf("%.0f%% of samples in sharqfec/bench, want at least 80%%", 100*share)
	}
	shares, n, err := cpuShares(prof.Bytes())
	if err != nil || int64(n) != ticks {
		t.Fatalf("cpuShares: %d ticks, err %v", n, err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || shares["other.cpu_share"] < 0.8 {
		t.Errorf("shares sum to %g with other = %g; the busy loop belongs to no layer", sum, shares["other.cpu_share"])
	}
}

func TestSampleLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"sharqfec/internal/eventq.(*Queue).Step", "sharqfec.runSHARQFEC"}, "eventq"},
		{[]string{"runtime.asyncPreempt", "sharqfec/internal/fec.addMulSlice"}, "fec"},
		{[]string{"sharqfec/internal/telemetry/census.(*Engine).ObserveHop"}, "telemetry"},
		{[]string{"sharqfec/internal/scoping.(*Hierarchy).Contains"}, "topology"},
		{[]string{"sharqfec/internal/simrand.(*Rand).Float64"}, "other"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "sharqfec/internal/core.(*Agent).handleData"}, "runtime.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "runtime.alloc"},
		{[]string{"gcWriteBarrier", "sharqfec/internal/netsim.(*Network).forward"}, "runtime.alloc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm"}, "runtime.sched"},
		{[]string{"internal/runtime/maps.ctrlGroup.matchH2", "runtime.mapaccess2_fast64"}, "runtime.map"},
		{[]string{"runtime.mapassign_fast64", "sharqfec/internal/session.(*Manager).HandleSession"}, "runtime.map"},
		{[]string{"aeshashbody", "runtime.mapaccess1"}, "runtime.map"},
		{[]string{"runtime.memmove", "sharqfec/internal/packet.(*Data).MarshalBinary"}, "other"},
		{[]string{"crypto/internal/fips140/sha256.blockSHANI"}, "other"},
		{nil, "other"},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
