// Command bench is the repository's benchmark: four simulator
// workloads measured end to end (host time and simulated protocol cost)
// and, in a traced run, layer by layer from outside the program. See
// README.md in this directory.
//
//	go run ./bench -seed 1998                       # all workloads, 3 interleaved rounds, traced run, probes
//	go run ./bench -workload fig17_data -seed 7 -seconds 10 -trace 0   # one workload, as the driver runs it
//	go run ./bench -compare A.json B.json           # two result files against the declared bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one result line; empty runs all of them")
		seed         = flag.Uint64("seed", 1998, "workload seed; pass i of a run uses seed+i")
		seconds      = flag.Float64("seconds", 10, "measuring time of one run of one workload")
		trace        = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result.json, trace.json and per-run details")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		setupOnly    = flag.Bool("setup-only", false, "internal: set the workload up, print the seconds it took, exit")
		detail       = flag.String("detail", "", "internal: also write this run's per-pass detail to the named JSON file")
	)
	flag.Parse()
	if err := validateNames(workloadNames(), declaredEndToEnd(), declaredPerLayer()); err != nil {
		fatal(err)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		var a, b result
		if err := readJSON(flag.Arg(0), &a); err != nil {
			fatal(err)
		}
		if err := readJSON(flag.Arg(1), &b); err != nil {
			fatal(err)
		}
		if n := compareResults(os.Stdout, &a, &b); n > 0 {
			fmt.Printf("\n%d regressed\n", n)
			os.Exit(1)
		}
	case *workloadName == "":
		failed, err := runFull(*seed, *seconds, *outDir)
		if err != nil {
			fatal(err)
		}
		if failed > 0 {
			fatal(fmt.Errorf("%d failed operations", failed))
		}
	default:
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		if *setupOnly {
			_, setupS, err := setUp(w, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Println(setupS)
			return
		}
		res, err := runOne(w, *seed, *seconds, *trace == 1, *outDir, *detail)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// driverColdSetups is how many further set-ups, each in a fresh process,
// a driver's run times beside its own, so that setup_s is a median of
// five. A round of the full run (-detail) takes its own only: there
// setup_s is the median over the rounds.
const driverColdSetups = 4

// runOne is a single-workload run as the driver makes it: untraced it
// yields the end-to-end metrics, traced the per-layer ones (and writes
// the trace under outDir). Metrics are printed by name before the
// result line.
func runOne(w *workload, seed uint64, seconds float64, traced bool, outDir, detail string) (*driverResult, error) {
	res := &driverResult{Metrics: map[string]metricValue{}}
	if !traced {
		coldSetups := driverColdSetups
		if detail != "" {
			coldSetups = 0
		}
		d, err := runUntraced(w, seed, seconds, coldSetups)
		if err != nil {
			return nil, err
		}
		if detail != "" {
			if err := writeJSON(detail, d); err != nil {
				return nil, err
			}
		}
		for _, e := range d.Errors {
			fmt.Println("FAILED:", e)
		}
		values := endToEndOf(d)
		printMetrics(os.Stdout, w.Name+" ", endToEnd, values)
		for _, def := range declaredEndToEnd() {
			res.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
		}
		res.Attempted, res.Failed = len(d.Samples), d.Failed
		res.Correct = d.Failed == 0
		return res, nil
	}

	tr := newTracer()
	root := tr.begin("bench.run", "", 0)
	t, err := runTraced(w, seed, tr, root)
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(seed, tr, root)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	for name, v := range probes {
		t.Layer[name] = v
	}
	for _, e := range t.Errors {
		fmt.Println("FAILED:", e)
	}
	values := fillLayer(t.Layer)
	printMetrics(os.Stdout, w.Name+" ", declaredPerLayer(), values)
	fmt.Printf("%s cpu profile: %d samples\n", w.Name, t.ProfileSamples)
	for _, def := range declaredPerLayer() {
		res.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
	}
	res.Attempted, res.Failed = t.Attempted, len(t.Errors)
	res.Correct = res.Failed == 0

	chrome, err := tr.chromeTrace()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace."+w.Name+".json")
	if err := os.WriteFile(path, chrome, 0o644); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(outDir, "layers."+w.Name+".json"), values); err != nil {
		return nil, err
	}
	fmt.Println("wrote", path)
	return res, nil
}
