package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// decode parses an exported trace back into its wire form.
func decode(t *testing.T, tr *Trace) jsonTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var out jsonTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return out
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x", "y", A("k", 1))
	sp.End()
	tr.Instant("x", "i")
	tr.SliceAt("x", "s", 0, 1)
	tr.InstantAt("x", "i", 0.5)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace should report zero events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	var out jsonTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil trace export invalid: %v", err)
	}
	if len(out.TraceEvents) != 0 {
		t.Fatalf("nil trace exported %d events", len(out.TraceEvents))
	}
}

// TestTraceContextRoundTrip checks that a tracer attached with
// WithTrace comes back from TraceFrom, including through a derived
// context, and that the absent cases (no tracer, nil tracer) read as a
// nil tracer.
func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace(8)
	ctx, cancel := context.WithCancel(WithTrace(context.Background(), tr))
	defer cancel()
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %p, want %p", got, tr)
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(background) = %p, want nil", got)
	}
	bg := context.Background()
	if WithTrace(bg, nil) != bg {
		t.Fatal("WithTrace(ctx, nil) should return ctx unchanged")
	}
}

func TestSpansAndExport(t *testing.T) {
	tr := NewTrace(64)
	outer := tr.Start("search", "run", A("budget", 400))
	inner := tr.Start("search", "generation 1")
	inner.End(A("evals", 40), A("best", 1.5))
	tr.Instant("search", "converged")
	outer.End(A("evals", 40))
	tr.SliceAt("power", "powered", 0.001, 0.004, A("cycle", 1))
	tr.InstantAt("ckpt", "checkpoint", 0.003)

	out := decode(t, tr)
	var slices, instants, metas int
	seenTracks := map[string]bool{}
	var lastTS float64 = -1
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
			if ev.Name == "thread_name" {
				seenTracks[ev.Args["name"].(string)] = true
			}
			continue
		case "X":
			slices++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("X event %q has invalid dur", ev.Name)
			}
		case "i":
			instants++
			if ev.S != "t" {
				t.Errorf("instant %q missing scope", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.TS < lastTS {
			t.Errorf("event %q at ts=%g out of order (prev %g)", ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
		if ev.PID != 1 || ev.TID < 1 {
			t.Errorf("event %q has pid/tid %d/%d", ev.Name, ev.PID, ev.TID)
		}
	}
	if slices != 3 || instants != 2 {
		t.Fatalf("got %d slices and %d instants, want 3 and 2", slices, instants)
	}
	for _, track := range []string{"search", "power", "ckpt"} {
		if !seenTracks[track] {
			t.Errorf("missing thread_name metadata for track %q", track)
		}
	}
	// Span attributes survive the round trip.
	found := false
	for _, ev := range out.TraceEvents {
		if ev.Name == "generation 1" {
			found = true
			if ev.Args["evals"].(float64) != 40 || ev.Args["best"].(float64) != 1.5 {
				t.Errorf("generation span args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("generation span missing from export")
	}
}

func TestRingBounds(t *testing.T) {
	tr := NewTrace(8)
	for i := 0; i < 20; i++ {
		tr.InstantAt("t", "e", float64(i))
	}
	if tr.Len() != 8 {
		t.Fatalf("ring length = %d, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12", tr.Dropped())
	}
	out := decode(t, tr)
	// The ring keeps the newest events: 12..19.
	var minTS = 1e18
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < minTS {
			minTS = ev.TS
		}
	}
	if minTS != 12e6 {
		t.Fatalf("oldest surviving event at ts=%g µs, want 12e6", minTS)
	}
	if out.Metadata["dropped_events"].(float64) != 12 {
		t.Fatalf("metadata dropped_events = %v, want 12", out.Metadata["dropped_events"])
	}
}

// TestRingGrowsLazily: the ring grows only as events arrive and never
// past its bound, and below, at and past the bound it keeps the newest
// events in recording order and counts every overwritten one, in Dropped
// and in the process-wide total alike.
func TestRingGrowsLazily(t *testing.T) {
	const bound = 40 // not a power of two: the last growth is clamped
	for _, recorded := range []int{0, 1, ringStart, ringStart + 1, bound - 1, bound, bound + 1, 3*bound + 7} {
		tr := NewTrace(bound)
		before := TraceDroppedTotal()
		for i := 0; i < recorded; i++ {
			tr.InstantAt("t", "e", float64(i))
		}
		kept := min(recorded, bound)
		if c := cap(tr.ring); c > bound || (recorded < ringStart && c > ringStart) {
			t.Errorf("%d events: ring capacity %d, bound %d", recorded, c, bound)
		}
		if tr.Len() != kept {
			t.Errorf("%d events: Len %d, want %d", recorded, tr.Len(), kept)
		}
		dropped := int64(recorded - kept)
		if tr.Dropped() != dropped || TraceDroppedTotal()-before != dropped {
			t.Errorf("%d events: dropped %d (total +%d), want %d", recorded, tr.Dropped(), TraceDroppedTotal()-before, dropped)
		}
		evs := tr.Events()
		for i, ev := range evs {
			if want := float64(recorded-kept+i) * 1e6; ev.TS != want {
				t.Fatalf("%d events: event %d at ts %g µs, want %g", recorded, i, ev.TS, want)
			}
		}
	}
}

// TestTraceConcurrency spawns concurrent span writers (run under -race).
func TestTraceConcurrency(t *testing.T) {
	tr := NewTrace(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("t", "op")
				tr.InstantAt("u", "tick", float64(i))
				sp.End(A("i", i))
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatal("export missing traceEvents")
	}
	if tr.Len() != 1024 {
		t.Fatalf("ring length = %d, want full 1024", tr.Len())
	}
}
