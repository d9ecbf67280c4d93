// Command sharqfec-trace replays a JSONL protocol-event trace (as
// written by sharqfec-sim -trace-events) offline and prints the same
// causal recovery-span report the live run produced — no simulator, no
// topology file: the trace preamble carries the zone hierarchy.
//
// Usage:
//
//	sharqfec-trace [flags] <trace.jsonl | ->
//
//	-spans     also list every recovery span, one line each
//	-perfetto  write the spans as Chrome trace-event JSON loadable in
//	           Perfetto / chrome://tracing
//	-slo       SLO spec file: re-derive the health verdicts from the
//	           trace and print the per-zone table. When the trace was
//	           recorded under an SLO, the replayed alert sequence must
//	           match the recorded health_alert/health_clear events
//	           exactly — any drift is a fatal error (the offline
//	           replay gate). Exit status is also non-zero when the
//	           replayed verdict is FAIL.
//
// A trace file of "-" reads from stdin. The trace is read once, in one
// pass that feeds the span assembler and, under -slo, the health engine
// and the recorded-alert sink together; nothing of it is kept, so memory
// does not grow with the trace's length. The exit status is non-zero
// when the trace is malformed or span accounting is broken (a loss
// without a terminal decode / loss_unrecovered event).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"sharqfec/internal/analysis"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/health"
	"sharqfec/internal/telemetry/spans"
)

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "sharqfec-trace:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, reads the trace from the
// named file or stdin, writes the reports to stdout, and returns what
// makes the exit status non-zero.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sharqfec-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listSpans := fs.Bool("spans", false, "list every recovery span, one line each")
	perfettoPath := fs.String("perfetto", "", "write recovery spans as Chrome trace-event JSON")
	sloPath := fs.String("slo", "", "SLO spec file: re-derive health verdicts from the trace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if fs.NArg() != 1 {
		return errors.New("usage: sharqfec-trace [-spans] [-perfetto out.json] [-slo spec] <trace.jsonl | ->")
	}
	in := stdin
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	asm := spans.NewAssembler()
	sinks := []telemetry.Sink{asm.Sink()}
	var eng *health.Engine
	var recorded []telemetry.Event
	if *sloPath != "" {
		f, err := os.Open(*sloPath)
		if err != nil {
			return err
		}
		spec, err := health.ParseSpec(f)
		f.Close()
		if err != nil {
			return err
		}
		eng = health.NewEngine(spec, nil)
		sinks = append(sinks, eng.Sink(), func(e telemetry.Event) {
			if e.Kind == telemetry.KindHealthAlert || e.Kind == telemetry.KindHealthClear {
				recorded = append(recorded, e)
			}
		})
	}
	until, err := telemetry.Replay(in, sinks...)
	if err != nil {
		return err
	}

	rep := analysis.BuildRecoveryReport(asm)
	fmt.Fprint(stdout, rep.String())
	if *listSpans {
		fmt.Fprintln(stdout)
		for _, s := range asm.Spans() {
			fmt.Fprintln(stdout, s.Format())
		}
	}
	if *perfettoPath != "" {
		f, err := os.Create(*perfettoPath)
		if err != nil {
			return err
		}
		err = spans.WritePerfetto(f, asm.Spans(), asm.View(), nil)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if eng != nil {
		eng.Finish(until)
		if err := healthVerdict(eng, recorded, stdout); err != nil {
			return err
		}
	}
	if rep.OpenSpans > 0 {
		return fmt.Errorf("span accounting broken: %d spans never saw a terminal event", rep.OpenSpans)
	}
	return nil
}

// healthVerdict prints the finished engine's SLO table and enforces the
// replay-equality gate against the health events the trace recorded.
// Drift or a FAIL verdict is an error.
func healthVerdict(eng *health.Engine, recorded []telemetry.Event, stdout io.Writer) error {
	fmt.Fprintln(stdout)
	hr := eng.Report()
	fmt.Fprint(stdout, hr.String())
	if len(recorded) > 0 {
		derived := eng.Emitted()
		if !slices.Equal(derived, recorded) {
			return fmt.Errorf("replay drift: trace recorded %d health events, replay derived %d — offline and live verdicts disagree",
				len(recorded), len(derived))
		}
		fmt.Fprintf(stdout, "replay gate: %d recorded health events reproduced exactly\n", len(recorded))
	}
	if !hr.Passed() {
		return fmt.Errorf("SLO FAIL: %d violations", hr.Violations())
	}
	return nil
}
