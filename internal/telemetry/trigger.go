package telemetry

import (
	"fmt"
	"slices"
)

// TriggeredDump is one flight-recorder snapshot rendered as text, with
// the reason that forced it.
type TriggeredDump struct {
	T      float64
	Reason string
	Events []string
}

// Snapshot is one flight-recorder snapshot as taken: a copy of the
// ring's events, rendered only when Render is called.
type Snapshot struct {
	T      float64
	Reason string
	Events []Event
}

// Render formats the snapshot's events with Event.Format.
func (s Snapshot) Render() TriggeredDump {
	return TriggeredDump{T: s.T, Reason: s.Reason, Events: FormatEvents(s.Events)}
}

// RenderDumps renders every snapshot in order (nil for none).
func RenderDumps(snaps []Snapshot) []TriggeredDump {
	if len(snaps) == 0 {
		return nil
	}
	out := make([]TriggeredDump, len(snaps))
	for i, s := range snaps {
		out[i] = s.Render()
	}
	return out
}

// MaxAutoDumps caps how many alert-triggered snapshots a run keeps:
// an alert storm should not turn the forensic path into an allocator.
// Explicit Fire calls (end-of-run anomalies) are never capped.
const MaxAutoDumps = 16

// DumpTrigger is the single bus-driven forensic path: every
// health_alert event snapshots the flight recorder's ring, so the dump
// carries the control-plane history that led into the violation — for
// any run with a recorder, not just RunChaos. Like the Recorder it is
// built for the single-threaded simulator sink chain.
type DumpTrigger struct {
	rec   *Recorder
	auto  int
	snaps []Snapshot
}

// NewDumpTrigger watches rec.
func NewDumpTrigger(rec *Recorder) *DumpTrigger { return &DumpTrigger{rec: rec} }

// Sink returns the alert-watching sink for Bus.Attach. Attach it after
// the recorder's sink, so a dump includes the triggering alert itself.
func (d *DumpTrigger) Sink() Sink {
	return func(e Event) {
		if e.Kind != KindHealthAlert || d.auto >= MaxAutoDumps {
			return
		}
		d.auto++
		d.fire(e.T, fmt.Sprintf("health_alert slo=%d zone=%d value=%g", e.A, int(e.Zone), e.F))
	}
}

// Fire snapshots the ring for an out-of-band reason (e.g. an anomalous
// end of run).
func (d *DumpTrigger) Fire(t float64, reason string) { d.fire(t, reason) }

// fire copies the ring's events: one allocation per snapshot, and no
// text until someone reads it.
func (d *DumpTrigger) fire(t float64, reason string) {
	d.snaps = append(d.snaps, Snapshot{T: t, Reason: reason, Events: d.rec.Events()})
}

// Snapshots returns every snapshot taken so far, oldest first (a copy
// of the list, nil when nothing fired). The snapshots' event slices are
// shared and must not be modified.
func (d *DumpTrigger) Snapshots() []Snapshot {
	return slices.Clone(d.snaps)
}
