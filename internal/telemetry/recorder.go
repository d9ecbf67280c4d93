package telemetry

// Recorder is a fixed-capacity ring buffer of the most recent
// control-plane events — the flight recorder RunChaos dumps when a run
// ends anomalously. It skips per-packet transport events and the static
// trace preamble, so the ring holds control-plane history rather than
// the last few milliseconds of data deliveries; health alerts and
// clears pass, so a dump triggered by an alert shows the alert itself
// in the tail. The buffer is allocated once up front; recording never
// allocates.
type Recorder struct {
	buf  []Event
	next int
	n    int
}

// NewRecorder returns a recorder keeping the last capacity
// control-plane events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Sink returns the recording sink for Bus.Attach.
func (r *Recorder) Sink() Sink {
	return func(e Event) {
		switch e.Kind {
		case KindPacketSent, KindPacketDelivered, KindPacketLost,
			KindZoneInfo, KindZoneMember, KindRunInfo:
			return
		}
		r.buf[r.next] = e
		r.next = (r.next + 1) % len(r.buf)
		if r.n < len(r.buf) {
			r.n++
		}
	}
}

// Len returns how many events the ring currently holds.
func (r *Recorder) Len() int { return r.n }

// Events returns the recorded events oldest-first, in one freshly
// allocated slice (non-nil even when the ring is empty).
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// FormatEvents renders evs with Event.Format, one line per event: the
// text form of a flight record, made only when it is read. It returns
// nil for nil evs.
func FormatEvents(evs []Event) []string {
	if evs == nil {
		return nil
	}
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Format()
	}
	return out
}
