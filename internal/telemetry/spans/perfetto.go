package spans

import (
	"encoding/json"
	"io"
	"strconv"

	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
)

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// traceEvent is one Chrome trace-event object. Args is a plain map:
// encoding/json marshals map keys sorted, so output stays byte-stable
// across runs.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the Chrome trace-event JSON envelope Perfetto loads.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// CounterSample is one point on a Perfetto counter track: the named
// series' values at virtual time T, attached to the zone's process
// track (or the global pid-0 track when Zone is scoping.NoZone). The
// census engine's epoch history renders through these.
type CounterSample struct {
	Name   string
	Zone   scoping.ZoneID
	T      float64
	Values map[string]float64
}

// WritePerfetto renders spans as a Chrome trace-event JSON file
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one
// process track per leaf zone, one thread track per node, one complete
// ("X") slice per recovery span, with mechanism/blame/hop detail in the
// slice args, and one counter ("C") track per CounterSample name/zone
// pair (nil counters for none), e.g. the census engine's per-zone state
// and scheduler series. Virtual seconds map to trace microseconds.
func WritePerfetto(w io.Writer, sps []Span, view *telemetry.ZoneView, counters []CounterSample) error {
	const usPerSec = 1e6
	var evs []traceEvent

	meta := func(pid, tid int64, kind, name string) {
		evs = append(evs, traceEvent{
			Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	// zoneTrack returns the zone's process track (pid = zone + 1; pid 0
	// holds nodes outside any known zone), naming it on first use.
	named := map[int64]bool{}
	zoneTrack := func(z scoping.ZoneID) int64 {
		pid := int64(z) + 1
		if !named[pid] {
			named[pid] = true
			name := "unzoned"
			if z != scoping.NoZone {
				name = "zone " + itoa(int64(z)) + " (level " + itoa(int64(view.Level(z))) + ")"
			}
			meta(pid, 0, "process_name", name)
		}
		return pid
	}
	// Name each node's thread track within its zone's.
	type track struct{ pid, tid int64 }
	seen := map[track]bool{}
	for _, s := range sps {
		tr := track{zoneTrack(view.LeafZone(s.Node)), int64(s.Node)}
		if !seen[tr] {
			seen[tr] = true
			meta(tr.pid, tr.tid, "thread_name", "node "+itoa(tr.tid))
		}
	}

	for _, s := range sps {
		dur := (s.End - s.Start) * usPerSec
		args := map[string]any{
			"mechanism":        s.Mechanism.String(),
			"recovered":        s.Recovered,
			"repairs_heard":    s.RepairsHeard,
			"nacks_sent":       s.NACKsSent,
			"nacks_suppressed": s.NACKsSuppressed,
		}
		if s.BlameZone != scoping.NoZone {
			args["blame_zone"] = int64(s.BlameZone)
			args["blame_level"] = s.BlameLevel
			args["repairer"] = int64(s.Repairer)
			args["hops"] = s.Hops
		}
		if s.Escalations > 0 {
			args["escalations"] = s.Escalations
		}
		if s.MaxBackoff > 0 {
			args["max_backoff"] = s.MaxBackoff
		}
		if s.LateData {
			args["late_data"] = true
		}
		if s.DupLoss > 0 {
			args["dup_loss"] = s.DupLoss
		}
		cat := s.Mechanism.String()
		evs = append(evs, traceEvent{
			Name: "g" + itoa(s.Group) + "/s" + itoa(s.Seq),
			Cat:  cat,
			Ph:   "X",
			Ts:   s.Start * usPerSec,
			Dur:  &dur,
			Pid:  zoneTrack(view.LeafZone(s.Node)),
			Tid:  int64(s.Node),
			Args: args,
		})
	}

	for _, c := range counters {
		pid := zoneTrack(c.Zone)
		args := make(map[string]any, len(c.Values))
		for k, v := range c.Values {
			args[k] = v
		}
		evs = append(evs, traceEvent{
			Name: c.Name, Ph: "C", Ts: c.T * usPerSec, Pid: pid, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{DisplayTimeUnit: "ms", TraceEvents: evs})
}
