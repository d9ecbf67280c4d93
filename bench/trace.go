package main

import (
	"encoding/json"
	"time"
)

// span is one interval of the benchmark's own work around a call into a
// layer: bench.run ▸ workload.<name> ▸ setup | pass | pass.counts |
// pass.profile, and probe.<layer>.<metric>. Times are microseconds from
// the recorder's start; Parent is a span ID, 0 for a root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload,omitempty"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, workload string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, StartUs: t.now()})
	return id
}

func (t *tracer) end(id int) {
	t.spans[id-1].EndUs = t.now()
}

// chromeTrace renders the spans as Chrome trace-event JSON (complete
// "X" events), one thread row per workload, loadable in Perfetto or
// chrome://tracing.
func (t *tracer) chromeTrace() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	rows := map[string]int{"": 0}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid, ok := rows[s.Workload]
		if !ok {
			tid = len(rows)
			rows[s.Workload] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: s.StartUs, Dur: s.EndUs - s.StartUs, Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload},
		})
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
}
