package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestRingOverflowCounted is the regression test for the silent-drop
// bug: overflowing the ring must grow the per-ring and process-wide
// dropped counters and mark the export truncated.
func TestRingOverflowCounted(t *testing.T) {
	const capacity = 8
	before := TraceDroppedTotal()
	tr := NewTrace(capacity)
	for i := 0; i < capacity*3; i++ {
		tr.InstantAt("flood", "tick", float64(i))
	}
	if got := tr.Len(); got != capacity {
		t.Fatalf("ring holds %d events, want %d", got, capacity)
	}
	if got, want := tr.Dropped(), int64(capacity*2); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	if delta := TraceDroppedTotal() - before; delta < int64(capacity*2) {
		t.Fatalf("TraceDroppedTotal grew by %d, want >= %d", delta, capacity*2)
	}

	out := decode(t, tr)
	if out.Metadata == nil {
		t.Fatal("truncated export must carry metadata")
	}
	if v, ok := out.Metadata["truncated"].(bool); !ok || !v {
		t.Fatalf("metadata truncated = %v, want true", out.Metadata["truncated"])
	}
	if v, ok := out.Metadata["dropped_events"].(float64); !ok || int64(v) != int64(capacity*2) {
		t.Fatalf("metadata dropped_events = %v, want %d", out.Metadata["dropped_events"], capacity*2)
	}

	// The surviving events must be the newest capacity ticks, oldest
	// first — the ring overwrites, it does not stop recording.
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("Events() returned %d, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if want := float64((capacity*2 + i)) * 1e6; ev.TS != want {
			t.Fatalf("event %d ts = %v, want %v", i, ev.TS, want)
		}
	}
}

func TestTraceContextInExport(t *testing.T) {
	tr := NewTrace(16)
	tc := NewTraceContext()
	tr.SetContext(tc)
	if got := tr.Context(); got != tc {
		t.Fatalf("Context() = %+v, want %+v", got, tc)
	}
	tr.Instant("a", "x")
	out := decode(t, tr)
	if out.Metadata["trace_id"] != tc.TraceID || out.Metadata["span_id"] != tc.SpanID {
		t.Fatalf("export metadata missing identity: %v", out.Metadata)
	}
}

func TestSliceBetweenBackdates(t *testing.T) {
	tr := NewTrace(16)
	// A phase that started before the tracer existed must land at a
	// negative timestamp with the true duration.
	start := time.Now().Add(-3 * time.Millisecond)
	tr.SliceBetween("queue", "wait", start, start.Add(2*time.Millisecond))
	// An inverted slice clamps to zero duration.
	tr.SliceBetween("queue", "inverted", start.Add(time.Millisecond), start)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].TS >= 0 {
		t.Fatalf("backdated slice ts = %v, want negative", evs[0].TS)
	}
	if d := evs[0].Dur; d < 1900 || d > 2100 {
		t.Fatalf("backdated slice dur = %vus, want ~2000", d)
	}
	if evs[1].Dur != 0 {
		t.Fatalf("inverted slice dur = %v, want 0", evs[1].Dur)
	}
}

func TestWriteStitchedMultiProcess(t *testing.T) {
	tc := NewTraceContext()
	local := NewTrace(32)
	local.SetContext(tc)
	local.SliceAt("serve", "admission", 0, 0.001)
	local.SliceAt("serve", "peer-hop", 0.001, 0.005)

	// The peer's segment arrives pre-snapshotted, anchored 2ms later on
	// the shared wall clock.
	remote := []TraceEvent{
		{Name: "search", Phase: "X", Track: "search", TS: 0, Dur: 1500},
		{Name: "breaker-open", Phase: "i", Track: "cluster", TS: 1600},
	}

	var buf bytes.Buffer
	err := WriteStitched(&buf, tc, []Process{
		{Name: "http://a", Trace: local},
		{Name: "http://b", Events: remote, OffsetMicros: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out jsonTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("stitched export invalid JSON: %v\n%s", err, buf.String())
	}

	procs := map[int]string{}
	var dataByPID = map[int]int{}
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procs[ev.PID] = ev.Args["name"].(string)
		case ev.Ph != "M":
			dataByPID[ev.PID]++
		}
	}
	if len(procs) != 2 || procs[1] != "http://a" || procs[2] != "http://b" {
		t.Fatalf("process rows = %v, want pids 1,2 named a,b", procs)
	}
	if dataByPID[1] != 2 || dataByPID[2] != 2 {
		t.Fatalf("data events per pid = %v, want 2 each", dataByPID)
	}
	if out.Metadata["trace_id"] != tc.TraceID {
		t.Fatalf("stitched metadata trace_id = %v, want %s", out.Metadata["trace_id"], tc.TraceID)
	}

	// The peer's events must be shifted onto the shared timeline.
	for _, ev := range out.TraceEvents {
		if ev.PID == 2 && ev.Name == "search" && ev.TS != 2000 {
			t.Fatalf("remote search ts = %v, want 2000 (offset applied)", ev.TS)
		}
	}

	// Data events must be globally time-ordered after the metadata block.
	lastMeta := -1
	prevTS := -1e18
	for i, ev := range out.TraceEvents {
		if ev.Ph == "M" {
			if lastMeta != i-1 {
				t.Fatalf("metadata row at index %d after data began", i)
			}
			lastMeta = i
			continue
		}
		if ev.TS < prevTS {
			t.Fatalf("event %d out of order: ts %v after %v", i, ev.TS, prevTS)
		}
		prevTS = ev.TS
	}
}
