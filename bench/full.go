package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// rounds is how many times the full run measures each workload. If a
// time cap ever forces a cut, cut this before the pass counts, and never
// below 2: the across-rounds fingerprint check needs two.
const rounds = 3

// runFull is the whole benchmark: every workload, rounds interleaved
// (A B C D A B C D …) so a slow minute on a shared machine spreads over
// all of them, each (workload, round) in a fresh child process for a
// clean heap and an honest peak RSS; then the traced run and the probes
// in this process. It writes result.json and trace.json under outDir
// and returns the number of failed operations.
func runFull(seed uint64, seconds float64, outDir string) (int, error) {
	hdr := newHeader(seed, seconds)
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d rounds=%d seconds/round=%g degraded=%v\n",
		hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.CPUModel, hdr.Commit, seed, rounds, seconds, hdr.Degraded)

	details := make([][]*runDetail, len(workloads))
	for r := 0; r < rounds; r++ {
		for i, w := range workloads {
			// A child that dies before writing its detail must not leave an
			// earlier invocation's file to be read as this round's.
			path := filepath.Join(outDir, fmt.Sprintf("run.%s.r%d.json", w.Name, r))
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return 0, err
			}
			_, err := self("-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-detail", path)
			// The child exits non-zero for failed passes, which its detail
			// counts; any other non-zero exit fails the run.
			d := new(runDetail)
			if rerr := readJSON(path, d); rerr != nil || (err != nil && d.Failed == 0) {
				return 0, fmt.Errorf("round %d of %s: %w", r, w.Name, errors.Join(err, rerr))
			}
			details[i] = append(details[i], d)
			fmt.Printf("round %d %-17s %3d passes, %d failed, p50 %.1f ms\n",
				r, w.Name, len(d.Samples), d.Failed, hostMetrics(d.Samples, d.SetupS, nil)["pass_p50_ms"])
		}
	}

	res := result{Header: hdr}
	failed := 0
	tr := newTracer()
	root := tr.begin("bench.run", "", 0)
	for i := range workloads {
		w := &workloads[i]
		wr := workloadResult{Name: w.Name}
		var all []passSample
		for _, d := range details[i] {
			wr.Ops += len(d.Samples)
			wr.FailedOps += d.Failed
			wr.Errors = append(wr.Errors, d.Errors...)
			all = append(all, d.Samples...)
			// A seed's result must not depend on the round it ran in.
			first := details[i][0]
			for p, fp := range d.Fingerprints {
				if p < len(first.Fingerprints) && fp != first.Fingerprints[p] {
					wr.FailedOps++
					wr.Errors = append(wr.Errors, fmt.Sprintf("seed %d: fingerprint differs between rounds", seed+uint64(p)))
				}
			}
		}
		wr.SimFingerprint = combineFingerprints(details[i][0].Fingerprints[:w.SimPasses])
		wr.EndToEnd = summarize(w, details[i])

		traced, err := runTraced(w, seed, tr, root)
		if err != nil {
			return 0, err
		}
		wr.Ops += traced.Attempted
		wr.FailedOps += len(traced.Errors)
		wr.Errors = append(wr.Errors, traced.Errors...)
		wr.PerLayer = traced.Layer
		wr.PassHiPct = hiPercentile(len(all))
		wr.PerLayer["bench.pass_hi_ms"] = quantile(sortedCopy(perPassColumn("pass_p50_ms", all)), wr.PassHiPct/100)
		if w.Name == wNational {
			// From the untraced children: this process has run other
			// workloads too, so its own peak RSS is not national's alone.
			wr.PerLayer["session.kb_per_rcvr"] = wr.EndToEnd["peak_rss_mb"].Value * 1024 / float64(traced.Receivers)
		}
		failed += wr.FailedOps
		res.Workloads = append(res.Workloads, wr)
	}
	probes, err := runProbes(seed, tr, root)
	if err != nil {
		return 0, err
	}
	tr.end(root)
	res.Probes = probes

	printResult(&res)
	if err := writeJSON(filepath.Join(outDir, "result.json"), &res); err != nil {
		return 0, err
	}
	trace, err := tr.chromeTrace()
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace.json"), trace, 0o644); err != nil {
		return 0, err
	}
	fmt.Printf("wrote %s and %s\n", filepath.Join(outDir, "result.json"), filepath.Join(outDir, "trace.json"))
	return failed, nil
}

func printResult(res *result) {
	for _, wr := range res.Workloads {
		fmt.Printf("\n== %s: ops %d, failed_ops %d, sim_fingerprint %s\n", wr.Name, wr.Ops, wr.FailedOps, wr.SimFingerprint)
		for _, e := range wr.Errors {
			fmt.Printf("   FAILED: %s\n", e)
		}
		for _, d := range endToEnd {
			if s, ok := wr.EndToEnd[d.Name]; ok {
				fmt.Printf("  %-30s %14.6g %-6s q1 %.6g q3 %.6g n %d (%s is better, bound %g%%)\n",
					d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N, d.Better, 100*d.Bound)
			}
		}
		fmt.Printf("  -- per layer (bench.pass_hi_ms is p%g of %d passes)\n", wr.PassHiPct, wr.EndToEnd["pass_p50_ms"].N)
		printMetrics(os.Stdout, "  ", perLayer, wr.PerLayer)
	}
	fmt.Printf("\n== probes (workload-independent)\n")
	printMetrics(os.Stdout, "  ", perLayer, res.Probes)
}
