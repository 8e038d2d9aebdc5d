package sim

import (
	"testing"

	"chrysalis/internal/solar"
)

func TestTracerEventOrdering(t *testing.T) {
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	var rec EventRecorder
	cfg.Trace = rec.Trace
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("setup should complete")
	}
	if len(rec.Events) == 0 {
		t.Fatal("no events recorded")
	}
	// Counts must match the result counters.
	if got := rec.Count(EvPowerOn); got != res.PowerCycles {
		t.Errorf("power-on events %d != cycles %d", got, res.PowerCycles)
	}
	if got := rec.Count(EvCheckpoint); got != res.Checkpoints {
		t.Errorf("checkpoint events %d != checkpoints %d", got, res.Checkpoints)
	}
	if got := rec.Count(EvResume); got != res.Resumes {
		t.Errorf("resume events %d != resumes %d", got, res.Resumes)
	}
	if got := rec.Count(EvRetry); got != res.TileRetries {
		t.Errorf("retry events %d != retries %d", got, res.TileRetries)
	}
	if got := rec.Count(EvTileDone); got != res.TilesDone {
		t.Errorf("tile-done events %d != tiles done %d", got, res.TilesDone)
	}
	if got := rec.Count(EvDone); got != 1 {
		t.Errorf("done events = %d, want 1", got)
	}

	// Time must be non-decreasing; the last event must be EvDone.
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].Time < rec.Events[i-1].Time {
			t.Fatalf("event %d out of order: %v after %v", i, rec.Events[i].Time, rec.Events[i-1].Time)
		}
	}
	if rec.Events[len(rec.Events)-1].Kind != EvDone {
		t.Fatalf("last event = %v, want done", rec.Events[len(rec.Events)-1].Kind)
	}

	// Every tile-done must be preceded by a tile-start of the same tile.
	started := map[int]bool{}
	for _, e := range rec.Events {
		switch e.Kind {
		case EvTileStart:
			started[e.Tile] = true
		case EvTileDone:
			if !started[e.Tile] {
				t.Fatalf("tile %d done without start", e.Tile)
			}
		}
	}
}

func TestTracerProtocolInvariants(t *testing.T) {
	// Under a dark scenario with many brownouts: power-off must alternate
	// with power-on, and every resume happens right after a power-on.
	cfg := harSetup(t, 8, 100e-6, solar.Dark())
	var rec EventRecorder
	cfg.Trace = rec.Trace
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerCycles < 2 {
		t.Skip("scenario did not produce multiple cycles")
	}
	on := false
	for i, e := range rec.Events {
		switch e.Kind {
		case EvPowerOn:
			if on {
				t.Fatalf("event %d: double power-on", i)
			}
			on = true
		case EvPowerOff:
			if !on {
				t.Fatalf("event %d: power-off while off", i)
			}
			on = false
		case EvResume:
			if i == 0 || rec.Events[i-1].Kind != EvPowerOn {
				t.Fatalf("event %d: resume not immediately after power-on", i)
			}
		}
	}
}

func TestRecorderCap(t *testing.T) {
	rec := EventRecorder{Max: 3}
	for i := 0; i < 10; i++ {
		rec.Trace(Event{Kind: EvPowerOn})
	}
	if len(rec.Events) != 3 || rec.Dropped != 7 {
		t.Fatalf("events=%d dropped=%d", len(rec.Events), rec.Dropped)
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EvPowerOn, EvPowerOff, EvTileStart, EvTileDone, EvCheckpoint, EvResume, EvRetry, EvDone}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate string %q", s)
		}
		seen[s] = true
	}
	if EventKind(99).String() != "event(99)" {
		t.Fatal("unknown kind string")
	}
}

func TestTracerNilIsFree(t *testing.T) {
	// Running without a tracer must behave identically (no panic, same
	// result) — guards the emit fast path.
	a := harSetup(t, 8, 100e-6, solar.Bright())
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	b := harSetup(t, 8, 100e-6, solar.Bright())
	var rec EventRecorder
	b.Trace = rec.Trace
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.E2ELatency != rb.E2ELatency || ra.TilesDone != rb.TilesDone {
		t.Fatal("tracing must not perturb the simulation")
	}
}

// Count returns how many events of kind k were recorded.
func (r *EventRecorder) Count(k EventKind) int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
