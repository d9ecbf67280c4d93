package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sharqfec"
)

// setUp sets a workload up in this process and times it from process
// start, so a cold start (runtime, package initialisation) is counted.
func setUp(w *workload, seed uint64) (*instance, float64, error) {
	inst, err := w.setup(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	return inst, time.Since(processStart).Seconds(), nil
}

// runUntraced is one closed-loop run of a workload in this process:
// set-up, then passes back to back (pass i runs seed+i) until both the
// workload's SimPasses and the measuring time are spent. An operation
// is one pass. coldSetups further set-up times come from fresh child
// processes afterwards, so each sample pays a cold start.
func runUntraced(w *workload, seed uint64, seconds float64, coldSetups int) (*runDetail, error) {
	inst, setupS, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	d := &runDetail{Workload: w.Name, Seed: seed, SetupS: []float64{setupS}}
	var simOuts []*passOut
	start := time.Now()
	for i := 0; i < w.SimPasses || time.Since(start).Seconds() < seconds; i++ {
		s, out, err := timePass(inst, seed+uint64(i), false)
		d.Samples = append(d.Samples, s)
		fp := ""
		if out != nil {
			fp = out.Fingerprint
		}
		d.Fingerprints = append(d.Fingerprints, fp)
		if err == nil && i == 0 && fp != inst.warm.Fingerprint {
			err = fmt.Errorf("seed %d: timed pass and warm-up pass of the same seed differ", seed)
		}
		if err != nil {
			d.Failed++
			d.Errors = append(d.Errors, err.Error())
			continue
		}
		if i < w.SimPasses {
			simOuts = append(simOuts, out)
		}
	}
	if d.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if len(simOuts) > 0 {
		d.Sim = simMetrics(w, simOuts)
		for name, v := range d.Sim {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("%s: %s is %v", w.Name, name, v)
			}
		}
	}
	for i := 0; i < coldSetups; i++ {
		s, err := childSetupSeconds(w.Name, seed)
		if err != nil {
			return nil, err
		}
		d.SetupS = append(d.SetupS, s)
	}
	return d, nil
}

// self re-executes this binary and waits for it.
func self(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	return out, nil
}

func childSetupSeconds(workload string, seed uint64) (float64, error) {
	out, err := self("-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-setup-only")
	if err != nil {
		return 0, err
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return s, nil
}

// tracedResult is the ledger of one workload: every per-layer metric
// the workload itself yields (counts, CPU shares, harness figures and
// its simulated metrics); probe metrics are merged in by the caller.
type tracedResult struct {
	Layer          map[string]float64
	ProfileSamples int
	Receivers      int
	Attempted      int
	Errors         []string
}

// profileSeconds is how much pass time one CPU profile should cover:
// the profiler samples at 100 Hz, so shorter profiles give shares too
// coarse to read.
const profileSeconds = 3.0

// runTraced measures the per-layer numbers of one workload. It runs
// SimPasses untraced passes as the reference, one pass with the counts
// armed, and enough passes under the CPU profiler to cover
// profileSeconds; spans record each step.
func runTraced(w *workload, seed uint64, tr *tracer, parent int) (*tracedResult, error) {
	res := &tracedResult{Layer: map[string]float64{}}
	ws := tr.begin("workload."+w.Name, w.Name, parent)
	defer tr.end(ws)
	timed := func(span string, seed uint64, counts bool, inst *instance) (passSample, *passOut) {
		id := tr.begin(span, w.Name, ws)
		s, out, err := timePass(inst, seed, counts)
		tr.end(id)
		res.Attempted++
		if err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
		return s, out
	}

	id := tr.begin("setup", w.Name, ws)
	inst, err := w.setup(seed)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}

	var ref []passSample
	var outs []*passOut
	cpu, wallS := 0.0, 0.0
	for i := 0; i < w.SimPasses; i++ {
		s, out := timed("pass", seed+uint64(i), false, inst)
		if out == nil {
			continue
		}
		ref = append(ref, s)
		outs = append(outs, out)
		cpu += s.CPUSec
		wallS += s.WallMs / 1e3
	}
	if len(outs) == 0 {
		return res, fmt.Errorf("%s: no reference pass succeeded: %s", w.Name, strings.Join(res.Errors, "; "))
	}
	refWall := sortedCopy(perPassColumn("pass_p50_ms", ref))
	refMs := quantile(refWall, 0.5)
	res.Receivers = outs[0].Receivers
	res.Layer["bench.core_util"] = cpu / wallS
	res.Layer["bench.pass_hi_ms"] = quantile(refWall, hiPercentile(len(ref))/100)
	for name, v := range simMetrics(w, outs) {
		res.Layer[name] = v
	}

	if _, out := timed("pass.counts", seed, true, inst); out != nil {
		for name, v := range out.Counts {
			res.Layer[name] = v
		}
	}

	passes := int(math.Ceil(profileSeconds * 1e3 / refMs))
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	profMs := 0.0
	for i := 0; i < passes; i++ {
		s, _ := timed("pass.profile", seed+uint64(i), false, inst)
		profMs += s.WallMs
	}
	pprof.StopCPUProfile()
	res.Layer["bench.trace_overhead_frac"] = profMs/float64(passes)/refMs - 1
	shares, n, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	res.ProfileSamples = n
	for name, v := range shares {
		res.Layer[name] = v
	}

	switch w.Name {
	case wBurst:
		// The same burst scenario with no telemetry and the static
		// controller: what the observability of this workload costs.
		twin := &instance{pass: dataScenario{top: sharqfec.Figure10Topology(), packets: 1024, burst: true}.pass}
		var plainMs []float64
		for i := 0; i < w.SimPasses; i++ {
			s, _ := timed("pass.unobserved", seed+uint64(i), false, twin)
			plainMs = append(plainMs, s.WallMs)
		}
		res.Layer["telemetry.overhead_frac"] = refMs/median(plainMs) - 1
	case wNational:
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Layer["session.kb_per_rcvr"] = rss * 1024 / float64(res.Receivers)
	}
	return res, nil
}

// fillLayer returns values with every declared per-layer metric
// present: a metric the workload does not produce reads 0.
func fillLayer(values map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range declaredPerLayer() {
		out[d.Name] = values[d.Name]
	}
	return out
}
