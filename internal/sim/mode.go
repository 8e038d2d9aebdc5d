package sim

import (
	"fmt"
	"math"
)

// Mode selects which simulator core executes a run. The zero value is
// ModeEvent: the event-driven analytic simulator, the default for
// search and serving. ModeStep is the bit-honest fixed-step oracle;
// ModeDifferential runs both and fails loudly on divergence.
type Mode int

const (
	// ModeEvent solves quiet windows in closed form (eventsim.go).
	ModeEvent Mode = iota
	// ModeStep grinds every dt through the step oracle (Run).
	ModeStep
	// ModeDifferential runs the oracle and the event simulator on the
	// same configuration and errors when they diverge beyond
	// DiffRelTol. Slowest; for validation and debugging.
	ModeDifferential
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeEvent:
		return "event"
	case ModeStep:
		return "step"
	case ModeDifferential:
		return "differential"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses the -sim-mode flag values.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "event":
		return ModeEvent, nil
	case "step":
		return ModeStep, nil
	case "differential", "diff":
		return ModeDifferential, nil
	default:
		return 0, fmt.Errorf("sim: unknown mode %q (want event, step or differential)", s)
	}
}

// RunMode executes one inference under the selected simulator mode.
func RunMode(cfg Config, mode Mode) (Result, error) {
	switch mode {
	case ModeStep:
		return Run(cfg)
	case ModeDifferential:
		return runDifferential(cfg)
	default:
		return RunEvent(cfg)
	}
}

// DiffRelTol is the relative tolerance on continuous quantities when
// comparing the event simulator against the step oracle. Discrete
// counters must match exactly.
const DiffRelTol = 1e-6

// runDifferential runs the step oracle and the event simulator on the
// same configuration and returns the event result, or an error naming
// the first diverging quantity. The oracle runs first on a copy with
// observers stripped, so the caller's Trace, Recorder and final
// subsystem state all reflect the event-simulator pass.
func runDifferential(cfg Config) (Result, error) {
	oracle := cfg
	oracle.Trace = nil
	oracle.Record = nil
	stepRes, err := Run(oracle)
	if err != nil {
		return Result{}, err
	}
	evRes, err := RunEvent(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := DiffResults(evRes, stepRes, DiffRelTol); err != nil {
		return evRes, fmt.Errorf("sim: event/step divergence: %w", err)
	}
	return evRes, nil
}

// DiffResults compares an event-simulator result against the step
// oracle's: discrete counters exactly, continuous quantities within
// relTol relative (with a small absolute floor for quantities near
// zero). A nil error means the results agree.
func DiffResults(event, step Result, relTol float64) error {
	if event.Completed != step.Completed {
		return fmt.Errorf("Completed: event=%v step=%v", event.Completed, step.Completed)
	}
	ints := [...]struct {
		name string
		e, s int
	}{
		{"PowerCycles", event.PowerCycles, step.PowerCycles},
		{"Checkpoints", event.Checkpoints, step.Checkpoints},
		{"Resumes", event.Resumes, step.Resumes},
		{"TileRetries", event.TileRetries, step.TileRetries},
		{"TilesDone", event.TilesDone, step.TilesDone},
	}
	for _, c := range ints {
		if c.e != c.s {
			return fmt.Errorf("%s: event=%d step=%d", c.name, c.e, c.s)
		}
	}
	floats := [...]struct {
		name     string
		e, s     float64
		absFloor float64
	}{
		{"E2ELatency", float64(event.E2ELatency), float64(step.E2ELatency), 1e-9},
		{"ActiveTime", float64(event.ActiveTime), float64(step.ActiveTime), 1e-9},
		{"Breakdown.Infer", float64(event.Breakdown.Infer), float64(step.Breakdown.Infer), 1e-12},
		{"Breakdown.NVMIO", float64(event.Breakdown.NVMIO), float64(step.Breakdown.NVMIO), 1e-12},
		{"Breakdown.Static", float64(event.Breakdown.Static), float64(step.Breakdown.Static), 1e-12},
		{"Breakdown.Ckpt", float64(event.Breakdown.Ckpt), float64(step.Breakdown.Ckpt), 1e-12},
		{"Breakdown.Wasted", float64(event.Breakdown.Wasted), float64(step.Breakdown.Wasted), 1e-12},
		{"Breakdown.Harvested", float64(event.Breakdown.Harvested), float64(step.Breakdown.Harvested), 1e-12},
		{"Breakdown.ConversionLoss", float64(event.Breakdown.ConversionLoss), float64(step.Breakdown.ConversionLoss), 1e-12},
		{"Breakdown.CapLeakage", float64(event.Breakdown.CapLeakage), float64(step.Breakdown.CapLeakage), 1e-12},
		{"Breakdown.SpilledHarvest", float64(event.Breakdown.SpilledHarvest), float64(step.Breakdown.SpilledHarvest), 1e-12},
		{"SystemEfficiency", event.SystemEfficiency, step.SystemEfficiency, 1e-12},
	}
	for _, c := range floats {
		if !relClose(c.e, c.s, relTol, c.absFloor) {
			return fmt.Errorf("%s: event=%g step=%g (rel %g)", c.name, c.e, c.s, relDiff(c.e, c.s))
		}
	}
	return nil
}

// relClose reports |a−b| ≤ relTol·max(|a|,|b|) + absFloor, treating
// identical values (including equal infinities) as close.
func relClose(a, b, relTol, absFloor float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Abs(a)
	if s := math.Abs(b); s > scale {
		scale = s
	}
	return math.Abs(a-b) <= relTol*scale+absFloor
}

// relDiff is the symmetric relative difference, for error messages.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}
