package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricValue is one metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of a single-workload run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is everything one untraced process measured on one
// workload: what a round of the full run contributes.
type runDetail struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Samples      []passSample       `json:"samples"`
	Fingerprints []string           `json:"fingerprints"` // per pass, in seed order
	Sim          map[string]float64 `json:"sim"`
	SetupS       []float64          `json:"setup_s"`
	PeakRSSMB    float64            `json:"peak_rss_mb"`
	Failed       int                `json:"failed"`
	Errors       []string           `json:"errors,omitempty"`
}

// hostMetrics computes the host-time end-to-end metrics from timed
// passes, set-up samples and peak-RSS readings.
func hostMetrics(samples []passSample, setup, rss []float64) map[string]float64 {
	deliveries, wallS := 0.0, 0.0
	for _, s := range samples {
		deliveries += s.Deliveries
		wallS += s.WallMs / 1e3
	}
	m := map[string]float64{
		"sim_deliveries_per_s": deliveries / wallS,
		"peak_rss_mb":          median(rss),
		"setup_s":              median(setup),
	}
	for _, name := range []string{"pass_p50_ms", "cpu_s_per_pass", "allocs_per_pass", "alloc_mb_per_pass"} {
		m[name] = median(perPassColumn(name, samples))
	}
	return m
}

// endToEndOf merges a run's host-time and simulated metrics.
func endToEndOf(d *runDetail) map[string]float64 {
	m := hostMetrics(d.Samples, d.SetupS, []float64{d.PeakRSSMB})
	for k, v := range d.Sim {
		m[k] = v
	}
	return m
}

// header records where and how a full run was made.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Rounds     int     `json:"rounds"`
	Seconds    float64 `json:"seconds_per_round"`
	// Degraded marks a host with fewer than two processors: the sharded
	// workloads then run their shards one after another.
	Degraded bool `json:"degraded"`
}

func newHeader(seed uint64, seconds float64) header {
	return header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit(), Seed: seed, Rounds: rounds, Seconds: seconds,
		Degraded: runtime.NumCPU() < 2,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision: the build's VCS stamp when the
// binary has one, else git's answer, else "unknown" (the driver's
// checkouts are not git repositories).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// metricSummary is one end-to-end metric of a full run: its value
// (median over all timed passes of all rounds, or over rounds), the
// quartiles of the same samples, and the value each round alone gives.
type metricSummary struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Rounds []float64 `json:"rounds"`
}

type workloadResult struct {
	Name           string                   `json:"name"`
	Ops            int                      `json:"ops"`
	FailedOps      int                      `json:"failed_ops"`
	SimFingerprint string                   `json:"sim_fingerprint"`
	EndToEnd       map[string]metricSummary `json:"end_to_end"`
	PerLayer       map[string]float64       `json:"per_layer"`
	PassHiPct      float64                  `json:"pass_hi_percentile"`
	Errors         []string                 `json:"errors,omitempty"`
}

// result is the JSON a full run writes and -compare reads.
type result struct {
	Header    header             `json:"header"`
	Workloads []workloadResult   `json:"workloads"`
	Probes    map[string]float64 `json:"probes"`
}

// perPassColumn returns the per-pass samples behind a metric whose
// value is a median over passes, or nil for the others.
func perPassColumn(name string, samples []passSample) []float64 {
	var f func(passSample) float64
	switch name {
	case "pass_p50_ms":
		f = func(s passSample) float64 { return s.WallMs }
	case "cpu_s_per_pass":
		f = func(s passSample) float64 { return s.CPUSec }
	case "allocs_per_pass":
		f = func(s passSample) float64 { return s.Mallocs }
	case "alloc_mb_per_pass":
		f = func(s passSample) float64 { return s.AllocMB }
	case "sim_deliveries_per_s":
		f = func(s passSample) float64 { return s.Deliveries / (s.WallMs / 1e3) }
	default:
		return nil
	}
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	return v
}

// summarize pools the rounds of one workload into its end-to-end
// metrics.
func summarize(w *workload, rounds []*runDetail) map[string]metricSummary {
	var pooled runDetail
	var rss []float64
	perRound := make([]map[string]float64, len(rounds))
	for i, d := range rounds {
		pooled.Samples = append(pooled.Samples, d.Samples...)
		pooled.SetupS = append(pooled.SetupS, d.SetupS...)
		rss = append(rss, d.PeakRSSMB)
		perRound[i] = endToEndOf(d)
	}
	values := hostMetrics(pooled.Samples, pooled.SetupS, rss)
	for k, v := range rounds[0].Sim {
		values[k] = v
	}
	out := map[string]metricSummary{}
	for _, def := range endToEnd {
		v, ok := values[def.Name]
		if !ok || !def.appliesTo(w.Name) {
			continue
		}
		s := metricSummary{Value: v, Unit: def.Unit}
		for _, r := range perRound {
			s.Rounds = append(s.Rounds, r[def.Name])
		}
		spread := perPassColumn(def.Name, pooled.Samples)
		if spread == nil {
			spread = s.Rounds
		}
		sorted := sortedCopy(spread)
		s.Q1, s.Q3, s.N = quantile(sorted, 0.25), quantile(sorted, 0.75), len(sorted)
		out[def.Name] = s
	}
	return out
}

// printMetrics writes "name value unit" rows in declaration order.
func printMetrics(w io.Writer, prefix string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			fmt.Fprintf(w, "%s%-30s %14.6g %s\n", prefix, d.Name, v, d.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
