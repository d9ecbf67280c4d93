package telemetry

import (
	"bufio"
	"io"
	"strconv"

	"sharqfec/internal/scoping"
)

// EventWriter is a JSONL sink: one JSON object per event, assembled
// with strconv.Append* into a reusable buffer so steady-state writing
// does not allocate. Errors are sticky: the first write failure stops
// all output and is reported by Err and Flush (the same surfacing
// contract stats.Tracer follows).
//
// Line shape (fields with sentinel values are omitted):
//
//	{"t":6.0123,"ev":"nack_sent","node":14,"zone":2,"group":3,"a":1,"b":2,"f":0.01}
type EventWriter struct {
	w   *bufio.Writer
	buf []byte
	n   uint64
	err error
}

// NewEventWriter wraps w; call Flush when the run completes.
func NewEventWriter(w io.Writer) *EventWriter {
	return &EventWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 160)}
}

// Sink returns the writing sink for Bus.Attach.
func (ew *EventWriter) Sink() Sink { return ew.write }

func (ew *EventWriter) write(e Event) {
	if ew.err != nil {
		return
	}
	b := ew.buf[:0]
	b = append(b, `{"t":`...)
	// The shortest form that parses back to the same float64: a replay
	// reads exactly the times the live run used, so latencies it derives
	// match the live ones to the last bit.
	b = strconv.AppendFloat(b, e.T, 'g', -1, 64)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	if e.Zone != scoping.NoZone {
		b = append(b, `,"zone":`...)
		b = strconv.AppendInt(b, int64(e.Zone), 10)
	}
	if e.Group >= 0 {
		b = append(b, `,"group":`...)
		b = strconv.AppendInt(b, e.Group, 10)
	}
	if e.Hops > 0 {
		b = append(b, `,"origin":`...)
		b = strconv.AppendInt(b, int64(e.Origin), 10)
		b = append(b, `,"hops":`...)
		b = strconv.AppendInt(b, e.Hops, 10)
	}
	if e.A != 0 {
		b = append(b, `,"a":`...)
		b = strconv.AppendInt(b, e.A, 10)
	}
	if e.B != 0 {
		b = append(b, `,"b":`...)
		b = strconv.AppendInt(b, e.B, 10)
	}
	if e.F != 0 {
		b = append(b, `,"f":`...)
		b = strconv.AppendFloat(b, e.F, 'g', -1, 64)
	}
	b = append(b, "}\n"...)
	ew.buf = b
	if _, err := ew.w.Write(b); err != nil {
		ew.err = err
		return
	}
	ew.n++
}

// Count returns the number of lines written successfully.
func (ew *EventWriter) Count() uint64 { return ew.n }

// Err returns the first write error, if any.
func (ew *EventWriter) Err() error { return ew.err }

// Flush drains the buffer and returns the first error seen (write or
// flush).
func (ew *EventWriter) Flush() error {
	if err := ew.w.Flush(); err != nil && ew.err == nil {
		ew.err = err
	}
	return ew.err
}
