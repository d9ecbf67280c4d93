package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// kindByName inverts kindNames for trace replay.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, int(numKinds))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// KindByName resolves an event-kind name from a JSONL trace.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// jsonEvent mirrors one EventWriter line; pointer fields distinguish
// "absent" (sentinel value) from an explicit zero.
type jsonEvent struct {
	T      *float64 `json:"t"`
	Ev     *string  `json:"ev"`
	Node   *int64   `json:"node"`
	Zone   *int64   `json:"zone"`
	Group  *int64   `json:"group"`
	Origin *int64   `json:"origin"`
	Hops   *int64   `json:"hops"`
	A      int64    `json:"a"`
	B      int64    `json:"b"`
	F      float64  `json:"f"`
}

// MaxID bounds the node and zone ids a trace line may carry:
// 4,194,303, four times the 10⁶-receiver sessions the simulator
// targets. Replay sinks size tables by these ids, so an unbounded id in
// a hostile trace would size a table by it.
const MaxID = 1<<22 - 1

// MaxTime bounds an event's time in seconds. A billion seconds is far
// past any run, and below it the six-decimal times EventWriter writes
// parse back to the same text.
const MaxTime = 1e9

// Replay reads a JSONL trace (as EventWriter writes it) once, feeding
// each event to every sink in order, and returns the run's end: the
// run_info event's time, or the last event's time when the trace has
// none. Blank lines are skipped and lines are capped at 1 MiB; a line
// that does not parse, or the first read error, stops the read with an
// error naming the line.
func Replay(r io.Reader, sinks ...Sink) (until float64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	line, haveRunInfo := 0, false
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		e, err := ParseEventLine(raw)
		if err != nil {
			return until, fmt.Errorf("trace line %d: %w", line, err)
		}
		switch {
		case e.Kind == KindRunInfo:
			until, haveRunInfo = e.F, true
		case !haveRunInfo && e.T > until:
			until = e.T
		}
		for _, sink := range sinks {
			sink(e)
		}
	}
	if err := sc.Err(); err != nil {
		return until, fmt.Errorf("trace line %d: %w", line, err)
	}
	return until, nil
}

// ParseEventLine decodes one EventWriter JSONL line back into the Event
// it was written from, restoring the sentinel values of omitted fields,
// so encode → decode → encode reproduces the input bytes exactly. It
// refuses times outside [0, MaxTime] and node, zone and origin ids
// outside [-1, MaxID].
func ParseEventLine(line []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, err
	}
	if je.T == nil || je.Ev == nil || je.Node == nil {
		return Event{}, fmt.Errorf(`event line missing required "t"/"ev"/"node": %s`, line)
	}
	k, ok := kindByName[*je.Ev]
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", *je.Ev)
	}
	if !(*je.T >= 0 && *je.T <= MaxTime) {
		return Event{}, fmt.Errorf("event time %g outside [0, %g]", *je.T, MaxTime)
	}
	for _, id := range []struct {
		name string
		v    *int64
	}{{"node", je.Node}, {"zone", je.Zone}, {"origin", je.Origin}} {
		if id.v != nil && (*id.v < -1 || *id.v > MaxID) {
			return Event{}, fmt.Errorf("%s id %d outside [-1, %d]", id.name, *id.v, MaxID)
		}
	}
	e := Event{
		T:      *je.T,
		Kind:   k,
		Node:   topology.NodeID(*je.Node),
		Zone:   scoping.NoZone,
		Group:  -1,
		A:      je.A,
		B:      je.B,
		F:      je.F,
		Origin: topology.NoNode,
	}
	if je.Zone != nil {
		e.Zone = scoping.ZoneID(*je.Zone)
	}
	if je.Group != nil {
		e.Group = *je.Group
	}
	if je.Hops != nil {
		e.Hops = *je.Hops
		if je.Origin != nil {
			e.Origin = topology.NodeID(*je.Origin)
		}
	}
	return e, nil
}
