// Command sharqfec-sim runs a single reliable-multicast simulation and
// prints its traffic series and recovery summary.
//
// Usage:
//
//	sharqfec-sim [flags]
//
//	-protocol  srm | sharqfec | sharqfec-ns | sharqfec-ni |
//	           sharqfec-ns-ni | ecsrm            (default sharqfec)
//	-topology  figure10 | chain:N | star:N | tree:FxF (default figure10)
//	-loss      per-link loss for chain/star/tree      (default 0.08)
//	-packets   original data packets                  (default 1024)
//	-seed      RNG seed                               (default 1)
//	-until     simulated end time, seconds            (default 30)
//	-series    also print the per-0.1 s traffic series
//	-faults    fault-plan file replayed against the run; one
//	           "<seconds> <keyword> <args...>" event per line
//	           (link-down/link-up <link>, crash/restart/leave <node>,
//	           partition-zone/heal-zone <zone>,
//	           gilbert-link <link> <mean> <burst>,
//	           gilbert-all <mean> <burst>, gilbert-equal-mean <burst>)
//	-packet-trace      write an ns-style packet trace ("+" transmissions,
//	                   "r" deliveries) to this file; like -trace-events
//	                   it arms telemetry
//	-cpuprofile        write a pprof CPU profile of the run to this file
//	-memprofile        write a pprof heap profile (after the run) to
//	                   this file
//	-trace             write a runtime/trace execution trace to this file
//	-trace-events      write a JSONL protocol-event trace to this file
//	-metrics-out       write the per-zone metrics time series to this
//	                   file (CSV, or a JSON array when the file name
//	                   ends in .json)
//	-metrics-interval  virtual seconds between snapshots (default 1;
//	                   0 means the default, else at least 0.001)
//	-spans             assemble causal recovery spans and print the
//	                   per-zone recovery-latency report
//	-perfetto          write the recovery spans as Chrome trace-event
//	                   JSON (Perfetto / chrome://tracing); implies -spans
//	-flight-recorder   keep a ring of the last N control-plane events
//	                   (N clamped to [16, 65536]) and print it after
//	                   the telemetry lines
//	-slo               SLO spec file: evaluate streaming health
//	                   objectives during the run, print the per-zone
//	                   verdict table, and exit 1 on any violation
//	                   ("<metric> [pNN] <=|>= <value> [window=W]
//	                   [fast=F] [min=N]" per line, '#' comments,
//	                   optional "interval <seconds>")
//	-ratecontrol       preemptive-FEC sizing policy: static | adaptive
//	                   (default static, the paper's EWMA predictor;
//	                   adaptive sizes redundancy from an online
//	                   Gilbert–Elliott burst-loss fit)
//	-rc-budget         adaptive repair budget as a fraction of the
//	                   group size (default 0.5)
//	-census            arm the cost-census engine: per-class link and
//	                   zone-boundary traffic matrices, protocol-state
//	                   accounting and scheduler shape; prints the
//	                   census digest and adds the census columns to
//	                   -metrics-out exports
//	-shards            run on N zone shards in parallel (0 and 1 are
//	                   one shard); every report is identical at every
//	                   N, and from N = 2 up same-time lines of the
//	                   -trace-events and -packet-trace files interleave
//	                   by shard (their sorted lines are identical)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"

	"sharqfec"
	"sharqfec/internal/telemetry/census"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sharqfec-sim: ")

	// Registered before the profiler defers so they still flush on an
	// SLO-violation exit (defers run LIFO; this one runs last).
	sloViolated := false
	defer func() {
		if sloViolated {
			os.Exit(1)
		}
	}()

	protoFlag := flag.String("protocol", "sharqfec", "protocol variant")
	topoFlag := flag.String("topology", "figure10", "topology (figure10 | chain:N | star:N | tree:FxF)")
	lossFlag := flag.Float64("loss", 0.08, "per-link loss for chain/star/tree topologies")
	packets := flag.Int("packets", 1024, "original data packets (multiple of 16)")
	seed := flag.Uint64("seed", 1, "RNG seed")
	until := flag.Float64("until", 30, "simulated end time (s)")
	series := flag.Bool("series", false, "print per-bin traffic series")
	tracePath := flag.String("packet-trace", "", "write an ns-style packet trace to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	execTrace := flag.String("trace", "", "write a runtime/trace execution trace to this file")
	faultsPath := flag.String("faults", "", "fault-plan file to replay against the run")
	eventsPath := flag.String("trace-events", "", "write a JSONL protocol-event trace to this file")
	metricsPath := flag.String("metrics-out", "", "write per-zone metrics time series to this file (.json for JSON, else CSV)")
	metricsInterval := flag.Float64("metrics-interval", 1, "virtual seconds between metrics snapshots (0 = default; else >= 0.001)")
	spansFlag := flag.Bool("spans", false, "assemble causal recovery spans and print the recovery report")
	perfettoPath := flag.String("perfetto", "", "write recovery spans as Chrome trace-event JSON (implies -spans)")
	flightRec := flag.Int("flight-recorder", 0, "keep a ring of the last N control-plane events and print it after the run")
	sloPath := flag.String("slo", "", "SLO spec file; exit 1 when any objective is violated")
	rcFlag := flag.String("ratecontrol", "static", "rate-control policy (static | adaptive)")
	rcBudget := flag.Float64("rc-budget", 0, "adaptive repair budget as a fraction of group size (0 = default 0.5)")
	censusFlag := flag.Bool("census", false, "arm the cost-census engine and print its traffic/state digest")
	shardsFlag := flag.Int("shards", 0, "run on N zone shards in parallel (0 and 1 = one shard; the report is identical at every N; from N >= 2 same-time lines of the two text traces interleave by shard)")
	flag.Parse()

	proto, err := sharqfec.ParseProtocol(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			log.Fatal(err)
		}
		defer trace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained state
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	top, err := sharqfec.ParseTopology(*topoFlag, *lossFlag)
	if err != nil {
		log.Fatal(err)
	}

	cfg := sharqfec.DataConfig{
		Protocol:   proto,
		Topology:   top,
		Seed:       *seed,
		NumPackets: *packets,
		Until:      *until,
		Shards:     *shardsFlag,
	}
	rcMode, err := sharqfec.ParseRateControlMode(*rcFlag)
	if err != nil {
		log.Fatal(err)
	}
	cfg.RateControl = &sharqfec.RateControlConfig{Mode: rcMode, Budget: *rcBudget}
	if *faultsPath != "" {
		f, err := os.Open(*faultsPath)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := sharqfec.ParseFaultPlan(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = plan
	}
	wantSpans := *spansFlag || *perfettoPath != ""
	var slo *sharqfec.SLOSpec
	if *sloPath != "" {
		f, err := os.Open(*sloPath)
		if err != nil {
			log.Fatal(err)
		}
		slo, err = sharqfec.ParseSLOSpec(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	// The two text traces are telemetry exporters; their files are
	// closed, and the close checked, once the run has flushed them.
	var traceFiles []*os.File
	createTrace := func(path string) *os.File {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		traceFiles = append(traceFiles, f)
		return f
	}
	if *eventsPath != "" || *tracePath != "" || *metricsPath != "" || wantSpans || *flightRec > 0 || slo != nil || *censusFlag {
		cfg.Telemetry = &sharqfec.TelemetryConfig{
			MetricsInterval: *metricsInterval,
			Spans:           wantSpans,
			FlightRecorder:  *flightRec,
			SLO:             slo,
			Census:          *censusFlag,
		}
		if *eventsPath != "" {
			cfg.Telemetry.Events = createTrace(*eventsPath)
		}
		if *tracePath != "" {
			cfg.Telemetry.PacketTrace = createTrace(*tracePath)
		}
	}
	res, err := sharqfec.RunData(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range traceFiles {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, res.Telemetry); err != nil {
			log.Fatal(err)
		}
	}
	if *perfettoPath != "" {
		f, err := os.Create(*perfettoPath)
		if err != nil {
			log.Fatal(err)
		}
		err = res.Telemetry.WritePerfetto(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("protocol:         %s\n", res.Protocol)
	fmt.Printf("topology:         %s (%d receivers)\n", res.Topology, res.Receivers)
	fmt.Printf("completion:       %.2f%%\n", 100*res.CompletionRate)
	fmt.Printf("payloads verified: %v\n", res.Verified)
	fmt.Printf("NACKs sent:       %d\n", res.NACKsSent)
	fmt.Printf("repairs sent:     %d (preemptively injected: %d)\n", res.RepairsSent, res.RepairsInjected)
	if rcMode == sharqfec.RateControlAdaptive {
		fmt.Printf("rate control:     %s", rcMode)
		if t := res.Telemetry; t != nil {
			fmt.Printf(" (%d decisions, max h %d)", t.ControllerDecisions, t.ControllerMaxH)
		}
		fmt.Println()
	}
	fmt.Printf("session packets:  %d\n", res.SessionPackets)
	fmt.Printf("avg pkts/receiver:     %.1f (data+repair)\n", res.AvgDataRepair.Sum())
	fmt.Printf("avg NACKs/receiver:    %.1f\n", res.AvgNACKs.Sum())
	fmt.Printf("source-visible pkts:   %.0f data+repair, %.0f NACKs\n",
		res.SourceDataRepair.Sum(), res.SourceNACKs.Sum())
	peak, at := res.AvgDataRepair.Max()
	fmt.Printf("peak bin:              %.1f pkts/receiver at t=%.1fs\n", peak, at)
	if len(res.FaultLog) > 0 {
		fmt.Printf("fault drops:           %d\n", res.FaultDrops)
		fmt.Println("faults applied:")
		for _, f := range res.FaultLog {
			fmt.Printf("  %s\n", f)
		}
	}
	if t := res.Telemetry; t != nil {
		fmt.Printf("telemetry:             %d events (%d traced), %d snapshots\n",
			t.EventsEmitted, t.EventsWritten, t.NumSamples())
		fmt.Printf("NACK suppression:      %.1f%%\n", 100*t.SuppressionRatio)
		fmt.Printf("zone-local repairs:    %.1f%%\n", 100*t.LocalRepairFrac)
		if fr := t.FlightRecord(); *flightRec > 0 {
			fmt.Printf("flight recorder (last %d control-plane events):\n", len(fr))
			for _, line := range fr {
				fmt.Printf("  %s\n", line)
			}
		}
		if wantSpans {
			fmt.Println()
			fmt.Print(t.RecoveryReport().String())
		}
	}
	if cs := res.Telemetry.CensusSummary(); cs != nil {
		fmt.Println("\ncost census (link crossings by class):")
		fmt.Printf("  %-8s %12s %14s %14s\n", "class", "pkts", "bytes", "boundary pkts")
		for c := census.Class(0); c < census.NumClasses; c++ {
			fmt.Printf("  %-8s %12d %14d %14d\n",
				c, cs.LinkPkts[c], cs.LinkBytes[c], cs.BoundaryPkts[c])
		}
		fmt.Printf("preemptive shares:     %d\n", cs.FECShares)
		fmt.Printf("peak RTT entries/node: %d\n", cs.PeakRTT)
		fmt.Printf("scheduler:             %d dispatched, depth %d, free %d, %.0f ev/s\n",
			cs.Queue.Dispatched, cs.Queue.Depth, cs.Queue.Free, cs.Queue.FireRate)
	}
	if hr := res.Telemetry.HealthReport(); hr != nil {
		fmt.Println()
		fmt.Print(hr.String())
		if d := res.Telemetry.TriggeredDumps(); len(d) > 0 {
			fmt.Printf("forensic dumps:        %d (first at t=%.3fs: %s)\n",
				len(d), d[0].T, d[0].Reason)
		}
		sloViolated = !hr.Passed()
	}

	if *series {
		fmt.Println("\n# t(s)\tdata+repair/rcvr\tNACKs/rcvr")
		for i, v := range res.AvgDataRepair.Bins {
			t := res.AvgDataRepair.Start + float64(i)*res.AvgDataRepair.BinWidth
			n := 0.0
			if i < len(res.AvgNACKs.Bins) {
				n = res.AvgNACKs.Bins[i]
			}
			fmt.Printf("%.1f\t%.3f\t%.3f\n", t, v, n)
		}
	}
}

// writeMetrics renders the time series to path: JSON when the name ends
// in .json, CSV otherwise.
func writeMetrics(path string, t *sharqfec.TelemetryReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = t.WriteMetricsJSON(f)
	} else {
		err = t.WriteMetricsCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
