package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"

	"sharqfec/internal/packet"
	"sharqfec/internal/scoping"
)

// EventWriter is a text sink: one line per event, assembled with
// strconv.Append* into a reusable buffer so steady-state writing does
// not allocate. It has two renderers. NewEventWriter writes JSONL, one
// JSON object per event (fields with sentinel values are omitted):
//
//	{"t":6.0123,"ev":"nack_sent","node":14,"zone":2,"group":3,"a":1,"b":2,"f":0.01}
//
// NewPacketTraceWriter writes the ns-style packet trace: a line such
// as "+ 6.0000 n0 z0 DATA 1000" per packet_sent, one such as
// "r 6.0311 n14 from=n0 z0 DATA 1000" per packet_delivered (time, node,
// sender, scope, packet type and size), and nothing for any other kind.
//
// Errors are sticky: the first write failure stops all output and is
// reported by Err and Flush, so a full-disk or closed-pipe trace cannot
// silently truncate.
type EventWriter struct {
	w *bufio.Writer
	// render appends e's line to an empty b, or nothing for a kind it
	// skips.
	render func(b []byte, e Event) []byte
	buf    []byte
	n      uint64
	err    error

	// tBits and tText are the last JSONL time and its rendering: most
	// lines share the previous line's T, so it is rendered once.
	tBits uint64
	tText []byte
}

// NewEventWriter returns the JSONL writer over w; call Flush when the
// run completes.
func NewEventWriter(w io.Writer) *EventWriter {
	ew := newWriter(w, nil)
	// tBits 0 is +0, whose rendering is "0"; 32 bytes hold any
	// shortest-form float64, so the text never regrows.
	ew.tText = append(make([]byte, 0, 32), '0')
	ew.render = ew.appendJSON
	return ew
}

// NewPacketTraceWriter returns the packet-trace writer over w; call
// Flush when the run completes.
func NewPacketTraceWriter(w io.Writer) *EventWriter { return newWriter(w, appendPacketLine) }

func newWriter(w io.Writer, render func([]byte, Event) []byte) *EventWriter {
	return &EventWriter{w: bufio.NewWriter(w), render: render, buf: make([]byte, 0, 160)}
}

// Sink returns the writing sink for Bus.Attach.
func (ew *EventWriter) Sink() Sink { return ew.write }

func (ew *EventWriter) write(e Event) {
	if ew.err != nil {
		return
	}
	b := ew.render(ew.buf[:0], e)
	ew.buf = b
	if len(b) == 0 {
		return
	}
	if _, err := ew.w.Write(b); err != nil {
		ew.err = err
		return
	}
	ew.n++
}

func (ew *EventWriter) appendJSON(b []byte, e Event) []byte {
	b = append(b, `{"t":`...)
	// The shortest form that parses back to the same float64: a replay
	// reads exactly the times the live run used, so latencies it derives
	// match the live ones to the last bit. Equal bits, not ==: -0 and 0
	// render differently.
	if bits := math.Float64bits(e.T); bits != ew.tBits {
		ew.tBits = bits
		ew.tText = strconv.AppendFloat(ew.tText[:0], e.T, 'g', -1, 64)
	}
	b = append(b, ew.tText...)
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
	return append(b, "}\n"...)
}

// appendPacketLine renders a packet_sent or packet_delivered event as
// a packet-trace line; A holds the packet type and B its wire size.
func appendPacketLine(b []byte, e Event) []byte {
	switch e.Kind {
	case KindPacketSent:
		b = append(b, "+ "...)
	case KindPacketDelivered:
		b = append(b, "r "...)
	default:
		return b
	}
	b = strconv.AppendFloat(b, e.T, 'f', 4, 64) // as %.4f
	b = append(b, " n"...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	if e.Kind == KindPacketDelivered {
		b = append(b, " from=n"...)
		b = strconv.AppendInt(b, int64(e.Origin), 10)
	}
	b = append(b, " z"...)
	b = strconv.AppendInt(b, int64(e.Zone), 10)
	b = append(b, ' ')
	b = append(b, packet.Type(e.A).String()...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.B, 10)
	return append(b, '\n')
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
