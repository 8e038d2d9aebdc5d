package sim

import (
	"fmt"

	"chrysalis/internal/units"
)

// EventKind labels the observable transitions of the intermittent
// inference process — the numbered steps of the paper's Figure 4 plus
// the power-gate transitions that drive them.
type EventKind int

const (
	// EvPowerOn fires when the PMIC gates the load on (start of an
	// energy cycle).
	EvPowerOn EventKind = iota
	// EvPowerOff fires at brownout.
	EvPowerOff
	// EvTileStart fires when a tile begins consuming energy (Fig. 4 ①:
	// its data starts streaming from NVM).
	EvTileStart
	// EvTileDone fires when a tile's compute completes (Fig. 4 ⑤: its
	// outputs are written back to NVM).
	EvTileDone
	// EvCheckpoint fires after a tile's volatile state is persisted
	// (Fig. 4 ⑥).
	EvCheckpoint
	// EvResume fires when a checkpoint is restored after an
	// interruption (Fig. 4 ⑦).
	EvResume
	// EvRetry fires when a brownout discards a partially executed tile.
	EvRetry
	// EvDone fires when the whole inference completes.
	EvDone
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvPowerOn:
		return "power-on"
	case EvPowerOff:
		return "power-off"
	case EvTileStart:
		return "tile-start"
	case EvTileDone:
		return "tile-done"
	case EvCheckpoint:
		return "checkpoint"
	case EvResume:
		return "resume"
	case EvRetry:
		return "retry"
	case EvDone:
		return "done"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one observable simulator transition.
type Event struct {
	Kind EventKind
	// Time is the simulation time of the transition.
	Time units.Seconds
	// Tile is the global tile index the event concerns (-1 when not
	// tile-specific).
	Tile int
	// Layer is the index of the layer the tile belongs to (-1 when not
	// tile-specific).
	Layer int
	// Voltage is the capacitor voltage at the event.
	Voltage units.Voltage
}

// Tracer receives simulator events in time order. Implementations must
// be fast; they run inside the stepping loop.
type Tracer func(Event)

// EventRecorder is a Tracer that appends events to memory, with an
// optional cap to bound long runs. (The energy-state flight recorder
// is the separate Recorder type in recorder.go.)
type EventRecorder struct {
	Events []Event
	// Max bounds the recording (0 = unbounded). Once full, further
	// events are counted but not stored.
	Max     int
	Dropped int
}

// Trace implements the Tracer contract for the recorder.
func (r *EventRecorder) Trace(e Event) {
	if r.Max > 0 && len(r.Events) >= r.Max {
		r.Dropped++
		return
	}
	r.Events = append(r.Events, e)
}
