package spans

import (
	"io"

	"sharqfec/internal/telemetry"
)

// Replay feeds a JSONL event trace (as written by telemetry.EventWriter
// via sharqfec-sim -trace-events) through a fresh assembler and returns
// it. Because the trace preamble carries the zone hierarchy and every
// correlated field survives the JSONL round trip, the result is
// identical to what live assembly produced during the run.
func Replay(r io.Reader) (*Assembler, error) {
	a := NewAssembler()
	if err := telemetry.ReadEvents(r, a.Sink()); err != nil {
		return nil, err
	}
	return a, nil
}
