package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceEvents bounds a tracer's ring buffer when the caller
// passes no capacity.
const DefaultTraceEvents = 16384

// droppedTotal counts ring-overwritten events across every tracer in
// the process — the exportable form of the per-ring Dropped counters,
// so /metrics can expose one obs_trace_dropped_total without walking
// job tables.
var droppedTotal atomic.Int64

// TraceDroppedTotal reports how many trace events have been overwritten
// after their ring filled, process-wide across all tracers.
func TraceDroppedTotal() int64 { return droppedTotal.Load() }

// Attr is one key/value annotation on a span or instant event. Values
// must be JSON-serializable.
type Attr struct {
	Key   string
	Value any
}

// A constructs an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// event is one recorded trace event in Chrome trace-event terms: a
// complete slice (ph X) or an instant (ph i).
type event struct {
	name  string
	ph    byte
	track string
	ts    float64 // microseconds
	dur   float64 // microseconds, X only
	attrs []Attr
}

// Trace records spans and instants into a bounded ring buffer and
// exports them as Chrome trace-event JSON that loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Two timelines coexist: Start/End/Instant stamp events with wall-clock
// time since the tracer was created (for live pipelines — searches,
// jobs), while SliceAt/InstantAt take explicit timestamps in seconds
// (for simulated timelines — the step simulator's power-cycle trace).
// Each distinct track renders as its own named Perfetto thread.
//
// All methods are safe for concurrent use and nil-safe: a nil *Trace
// records nothing and returns nil spans, so instrumented code can
// thread an optional tracer without guards.
type Trace struct {
	anchor time.Time

	mu      sync.Mutex
	tc      TraceContext
	ring    []event // grows on demand, up to bound events
	bound   int
	n       int // total events recorded; a full ring's write position is n % bound
	dropped int64
}

// ringStart is how many events a tracer's ring first makes room for.
const ringStart = 16

// NewTrace returns a tracer whose ring buffer holds up to capacity
// events (<= 0 selects DefaultTraceEvents). The ring grows as events
// arrive, so a short-lived trace pays only for what it records. Once
// full, new events overwrite the oldest and the dropped count grows.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Trace{anchor: time.Now(), bound: capacity}
}

// traceKey is the context key WithTrace stores a tracer under.
type traceKey struct{}

// WithTrace returns a copy of ctx that carries tr, the way a run hands
// its tracer down through every layer that records spans. A nil tr
// returns ctx unchanged.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the tracer ctx carries, or nil — which, like every
// *Trace, is safe to record into.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// now returns microseconds since the tracer's creation.
func (t *Trace) now() float64 { return float64(time.Since(t.anchor)) / float64(time.Microsecond) }

// AnchorUnixMicros returns the tracer's creation instant as Unix
// microseconds — the wall-clock zero of every recorded timestamp, used
// to align this tracer's events with another process's when stitching.
func (t *Trace) AnchorUnixMicros() float64 {
	if t == nil {
		return 0
	}
	return float64(t.anchor.UnixMicro())
}

// SetContext attaches a distributed trace identity to the tracer; the
// export carries it in metadata so cross-process segments stitch by
// trace ID.
func (t *Trace) SetContext(tc TraceContext) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tc = tc
	t.mu.Unlock()
}

// Context returns the tracer's distributed identity (zero when unset).
func (t *Trace) Context() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tc
}

// record appends one event to the ring.
func (t *Trace) record(ev event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < t.bound {
		if len(t.ring) == cap(t.ring) {
			grown := make([]event, len(t.ring), min(max(2*cap(t.ring), ringStart), t.bound))
			copy(grown, t.ring)
			t.ring = grown
		}
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.n%t.bound] = ev
		t.dropped++
		droppedTotal.Add(1)
	}
	t.n++
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Dropped returns how many events were overwritten after the ring
// filled.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is one in-flight wall-clock slice. End it exactly once; a nil
// span (from a nil tracer) ends harmlessly.
type Span struct {
	t     *Trace
	track string
	name  string
	start float64
	attrs []Attr
}

// Start opens a wall-clock span on the given track. The span is
// recorded when End is called.
func (t *Trace) Start(track, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, track: track, name: name, start: t.now(), attrs: attrs}
}

// End closes the span, recording it with any extra attributes appended.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	end := s.t.now()
	s.t.record(event{name: s.name, ph: 'X', track: s.track,
		ts: s.start, dur: end - s.start, attrs: append(s.attrs, attrs...)})
}

// Instant records a wall-clock point event on the given track.
func (t *Trace) Instant(track, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.record(event{name: name, ph: 'i', track: track, ts: t.now(), attrs: attrs})
}

// SliceBetween records a completed wall-clock slice with explicit start
// and end instants — for phases whose boundaries are only known after
// the fact (queue wait measured at dequeue, admission measured across a
// handler). Instants before the tracer's creation produce negative
// timestamps, which Perfetto renders fine.
func (t *Trace) SliceBetween(track, name string, start, end time.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	ts := float64(start.Sub(t.anchor)) / float64(time.Microsecond)
	dur := float64(end.Sub(start)) / float64(time.Microsecond)
	if dur < 0 {
		dur = 0
	}
	t.record(event{name: name, ph: 'X', track: track, ts: ts, dur: dur, attrs: attrs})
}

// SliceAt records a complete slice on an explicit timeline: start and
// end are in seconds (e.g. simulated time). Inverted slices are
// clamped to zero duration.
func (t *Trace) SliceAt(track, name string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	dur := (end - start) * 1e6
	if dur < 0 {
		dur = 0
	}
	t.record(event{name: name, ph: 'X', track: track, ts: start * 1e6, dur: dur, attrs: attrs})
}

// InstantAt records a point event at an explicit time in seconds.
func (t *Trace) InstantAt(track, name string, at float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.record(event{name: name, ph: 'i', track: track, ts: at * 1e6, attrs: attrs})
}

// jsonEvent is the wire form of one Chrome trace event.
type jsonEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// jsonTrace is the container format Perfetto accepts.
type jsonTrace struct {
	TraceEvents     []jsonEvent    `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// snapshot returns the buffered events in recording order.
func (t *Trace) snapshot() ([]event, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]event, 0, len(t.ring))
	if t.n > t.bound { // ring wrapped: oldest is at n % bound
		head := t.n % t.bound
		evs = append(evs, t.ring[head:]...)
		evs = append(evs, t.ring[:head]...)
	} else {
		evs = append(evs, t.ring...)
	}
	return evs, t.dropped
}

// TraceEvent is the portable wire form of one recorded event — what a
// node ships to a peer so the peer can stitch the two segments into one
// Perfetto export.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"` // "X" slice, "i" instant
	Track string         `json:"track"`
	TS    float64        `json:"ts_us"`
	Dur   float64        `json:"dur_us,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Events snapshots the buffered events in portable form, oldest first.
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	evs, _ := t.snapshot()
	out := make([]TraceEvent, 0, len(evs))
	for _, ev := range evs {
		te := TraceEvent{Name: ev.name, Phase: string(ev.ph), Track: ev.track, TS: ev.ts, Dur: ev.dur}
		if len(ev.attrs) > 0 {
			te.Args = make(map[string]any, len(ev.attrs))
			for _, a := range ev.attrs {
				te.Args[a.Key] = a.Value
			}
		}
		out = append(out, te)
	}
	return out
}

// WriteJSON renders the buffered events as Chrome trace-event JSON.
// Events are sorted by timestamp, every track gets a thread_name
// metadata record, and the trace identity plus the dropped count (when
// the ring overflowed, the export is marked truncated) land in
// metadata.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	tc := t.Context()
	return WriteStitched(w, tc, []Process{{Name: "chrysalis", Trace: t}})
}

// Process is one node's (or subsystem's) contribution to a stitched
// multi-process export. Exactly one of Trace or Events is set: Trace
// for the local ring, Events for a segment shipped from a peer.
type Process struct {
	// Name labels the Perfetto process row (e.g. the node's base URL).
	Name string
	// Trace is the local tracer whose ring this process renders.
	Trace *Trace
	// Events is a pre-snapshotted segment (a peer's Trace.Events()).
	Events []TraceEvent
	// OffsetMicros shifts this process's timestamps onto the stitched
	// timeline — typically the difference between this segment's anchor
	// and the stitch root's anchor, in wall-clock microseconds.
	OffsetMicros float64
}

// WriteStitched renders several processes' trace segments as one
// Chrome trace-event JSON document: each Process gets its own pid (and
// process_name row in Perfetto), tracks stay per-process threads, and
// every event is shifted by its process's offset so all segments share
// one timeline. tc, when valid, lands in metadata as the stitched
// trace's identity; any ring overflow marks the export truncated.
func WriteStitched(w io.Writer, tc TraceContext, procs []Process) error {
	out := jsonTrace{DisplayTimeUnit: "ms"}
	var dropped int64
	for pi, p := range procs {
		pid := pi + 1
		var evs []TraceEvent
		if p.Trace != nil {
			evs = p.Trace.Events()
			dropped += p.Trace.Dropped()
		} else {
			evs = append(evs, p.Events...) // copy: the sort below must not reorder caller data
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		out.TraceEvents = append(out.TraceEvents, jsonEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": p.Name},
		})
		// Assign tids in first-appearance order so related tracks group.
		tids := make(map[string]int)
		for _, ev := range evs {
			if _, ok := tids[ev.Track]; !ok {
				tids[ev.Track] = len(tids) + 1
				out.TraceEvents = append(out.TraceEvents, jsonEvent{
					Name: "thread_name", Ph: "M", PID: pid, TID: tids[ev.Track],
					Args: map[string]any{"name": ev.Track},
				})
			}
		}
		for _, ev := range evs {
			je := jsonEvent{Name: ev.Name, Ph: ev.Phase, TS: ev.TS + p.OffsetMicros,
				PID: pid, TID: tids[ev.Track], Args: ev.Args}
			if ev.Phase == "X" {
				d := ev.Dur
				je.Dur = &d
			}
			if ev.Phase == "i" {
				je.S = "t" // thread-scoped instant
			}
			out.TraceEvents = append(out.TraceEvents, je)
		}
	}
	// Sort data events by shifted timestamp, keeping the metadata rows
	// (ph M) ahead of everything so Perfetto names processes up front.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := out.TraceEvents[i], out.TraceEvents[j]
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if am {
			return false // metadata keeps emission order
		}
		return a.TS < b.TS
	})
	// Backdated events (a phase that began before the ring's anchor, a
	// peer segment with a negative offset) can land before t=0; shift
	// the whole timeline so the earliest event is the origin — Perfetto
	// renders negative timestamps poorly and consumers expect ts >= 0.
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if shift := -ev.TS; shift > 0 { // first data event is the minimum
			for i := range out.TraceEvents {
				if out.TraceEvents[i].Ph != "M" {
					out.TraceEvents[i].TS += shift
				}
			}
		}
		break
	}
	meta := make(map[string]any)
	if tc.Valid() {
		meta["trace_id"] = tc.TraceID
		meta["span_id"] = tc.SpanID
	}
	if dropped > 0 {
		meta["dropped_events"] = dropped
		meta["truncated"] = true
	}
	if len(meta) > 0 {
		out.Metadata = meta
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
