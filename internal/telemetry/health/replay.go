package health

import (
	"io"

	"sharqfec/internal/telemetry"
)

// Replay feeds a JSONL event trace through a fresh engine under spec
// and returns the finished engine plus the health events the live run
// recorded into the trace (empty when it ran without an SLO). The
// engine ignores recorded health events during ingestion and re-derives
// its own, so comparing Emitted() against the recorded slice is the
// replay-equality gate: a live run and its trace must produce the
// identical verdict sequence.
//
// The run_info preamble event carries the live run's end time; without
// one, the last event's timestamp closes the final window instead.
func Replay(r io.Reader, spec *Spec) (*Engine, []telemetry.Event, error) {
	eng := NewEngine(spec, nil)
	sink := eng.Sink()
	var recorded []telemetry.Event
	until := 0.0
	haveRunInfo := false
	err := telemetry.ReadEvents(r, func(e telemetry.Event) {
		switch e.Kind {
		case telemetry.KindRunInfo:
			until = e.F
			haveRunInfo = true
		case telemetry.KindHealthAlert, telemetry.KindHealthClear:
			recorded = append(recorded, e)
		}
		if !haveRunInfo && e.T > until {
			until = e.T
		}
		sink(e)
	})
	if err != nil {
		return nil, nil, err
	}
	eng.Finish(until)
	return eng, recorded, nil
}

// SameAlerts reports whether two health event sequences are identical
// (events are flat value structs, so equality is exact).
func SameAlerts(a, b []telemetry.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
