package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare, per workload × end-to-end metric, against the
// metric's declared bound.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening returns by what share of base the value cur is worse, in
// the metric's own direction (negative when it is better).
func worsening(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// spreadOf is the run-to-run spread of a metric as a share of its
// value: the range of the per-round values.
func spreadOf(s metricSummary) float64 {
	if len(s.Rounds) < 2 || s.Value == 0 {
		return 0
	}
	sorted := sortedCopy(s.Rounds)
	return (sorted[len(sorted)-1] - sorted[0]) / math.Abs(s.Value)
}

// roundsApart says how the rounds of b sit against those of a: +1 when
// every round of b is worse than every round of a, -1 when every one is
// better, 0 when they overlap.
func roundsApart(better string, a, b metricSummary) int {
	allWorse, allBetter := true, true
	for _, x := range a.Rounds {
		for _, y := range b.Rounds {
			w := worsening(better, x, y)
			allWorse = allWorse && w > 0
			allBetter = allBetter && w < 0
		}
	}
	switch {
	case len(a.Rounds) == 0 || len(b.Rounds) == 0:
		return 0
	case allWorse:
		return 1
	case allBetter:
		return -1
	}
	return 0
}

// judge applies the bound: b may be worse than a by at most bound.
// Where either side's round-to-round spread exceeds the bound the
// medians cannot settle it, and the verdict is unresolved unless the
// rounds of the two sides do not overlap at all.
func judge(def metricDef, a, b metricSummary) string {
	worse := worsening(def.Better, a.Value, b.Value)
	if math.Max(spreadOf(a), spreadOf(b)) > def.Bound {
		switch apart := roundsApart(def.Better, a, b); {
		case apart < 0:
			return verdictOK
		case apart > 0 && worse > def.Bound:
			return verdictRegressed
		}
		return verdictUnresolved
	}
	if worse > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareResults prints, for every workload and end-to-end metric, both
// medians, the ratio B/A with its base, both quartile pairs and the
// verdict, then whether the simulated fingerprints agree. It returns
// the number of regressed rows.
func compareResults(w io.Writer, a, b *result) int {
	regressed := 0
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "A: commit %s seed %d, %d rounds × %g s   B: commit %s seed %d, %d rounds × %g s\n",
		a.Header.Commit, a.Header.Seed, a.Header.Rounds, a.Header.Seconds,
		b.Header.Commit, b.Header.Seed, b.Header.Rounds, b.Header.Seconds)
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "\n== %s: missing from B\n", wa.Name)
			regressed++
			continue
		}
		fp := "same"
		if wa.SimFingerprint != wb.SimFingerprint {
			fp = "CHANGED (" + wa.SimFingerprint + " → " + wb.SimFingerprint + ")"
		}
		fmt.Fprintf(w, "\n== %s: failed_ops %d → %d, sim_fingerprint %s\n", wa.Name, wa.FailedOps, wb.FailedOps, fp)
		fmt.Fprintf(w, "  %-22s %12s %12s %18s %25s %25s  %s\n", "metric", "A", "B", "B/A (base A)", "A q1..q3", "B q1..q3", "verdict")
		for _, def := range endToEnd {
			sa, okA := wa.EndToEnd[def.Name]
			sb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			v := judge(def, sa, sb)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "  %-22s %12.6g %12.6g %9.4f of %-8.4g %25s %25s  %s (bound %g%%, %s is better)\n",
				def.Name, sa.Value, sb.Value, sb.Value/sa.Value, sa.Value,
				fmt.Sprintf("%.5g..%.5g", sa.Q1, sa.Q3), fmt.Sprintf("%.5g..%.5g", sb.Q1, sb.Q3),
				v, 100*def.Bound, def.Better)
		}
		if wb.FailedOps > wa.FailedOps {
			regressed++
		}
	}
	return regressed
}
