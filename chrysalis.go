// Package chrysalis is the public API of the CHRYSALIS EA/IA co-design
// framework for Autonomous Things (AuT), a reproduction of "A Tale of
// Two Domains: Exploring Efficient Architecture Design for Truly
// Autonomous Things" (ISCA 2024).
//
// An AuT couples an energy-harvesting subsystem (solar panel, storage
// capacitor, power-management IC) with an inference subsystem (an
// MSP430-class MCU or a reconfigurable DNN accelerator) and executes
// DNN inference intermittently, checkpointing between tiles. CHRYSALIS
// models both subsystems, evaluates candidate designs with a step-based
// co-simulator, and searches the joint design space with a bi-level
// genetic optimizer to produce the ideal AuT configuration for a given
// workload, environment and SWaP objective.
//
// The three-line version:
//
//	spec := chrysalis.Spec{WorkloadName: "har", Platform: chrysalis.MSP430,
//	        Objective: chrysalis.MinimizeLatTimesSP}
//	res, err := chrysalis.Design(spec)
//	// res.PanelArea, res.Cap, res.Dataflow, res.AvgLatency, ...
//
// Deeper control — custom workloads, custom harvesters, direct
// simulation — is available through the exported wrappers below; the
// experiment harness that regenerates every table and figure of the
// paper lives in cmd/experiments.
package chrysalis

import (
	"context"

	"chrysalis/internal/core"
	"chrysalis/internal/dnn"
	"chrysalis/internal/explore"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// Quantity aliases so callers do not need the internal units package.
type (
	// Energy is joules.
	Energy = units.Energy
	// Power is watts.
	Power = units.Power
	// Seconds is a duration in seconds.
	Seconds = units.Seconds
	// Capacitance is farads.
	Capacitance = units.Capacitance
	// AreaCM2 is square centimeters.
	AreaCM2 = units.AreaCM2
	// Bytes is a data size.
	Bytes = units.Bytes
)

// Platform selects the inference-hardware family.
type Platform = explore.PlatformKind

// Platform values.
const (
	// MSP430 is the existing-AuT platform: MSP430FR5994 + LEA (Table IV).
	MSP430 = explore.MSP
	// Accelerator is the future-AuT reconfigurable array (Table V).
	Accelerator = explore.Accel
)

// Objective selects the design target.
type Objective = explore.Objective

// Objective values.
const (
	// MinimizeLatency minimizes average inference latency subject to a
	// solar-panel area bound.
	MinimizeLatency = explore.Lat
	// MinimizeSP minimizes solar-panel area subject to a latency bound.
	MinimizeSP = explore.SP
	// MinimizeLatTimesSP minimizes the latency × panel-area product,
	// the paper's overall space-time efficiency metric.
	MinimizeLatTimesSP = explore.LatSP
)

// Spec is the design problem: workload, platform, objective and
// constraints (the paper's Table II inputs).
type Spec = core.Spec

// SearchConfig sizes the HW-level optimizer. Its Progress field, when
// set, receives a callback after every outer-GA generation (generation
// index, cumulative evaluations, best objective value so far), and its
// OnQuality field receives the full GenQuality telemetry record per
// generation — the hooks behind chrysalisd's live SSE telemetry. To end
// a search early, cancel the ctx given to DesignContext. Its Workers
// field sets the candidate-evaluation concurrency (0 = all cores,
// negative = serial); the returned design is bit-identical for any
// worker count. Patience enables the plateau
// early-stop policy (stop after N generations whose relative
// improvement stays below PlateauTol); unlike Workers it changes the
// result, so serving layers include it in cache keys.
type SearchConfig = core.SearchConfig

// Result is the ideal AuT solution (the paper's Table II outputs).
type Result = core.Result

// WarmCache is a process-lifetime warm-start tier for plan ladders:
// attach one to SearchConfig.Warm and consecutive searches reuse the
// budget-independent mapping ladders earlier searches built for the
// same hardware fingerprints, instead of rebuilding them per search.
// It is byte-bounded, safe for concurrent searches, and never affects
// results — warm and cold runs return bit-identical designs.
type WarmCache = explore.WarmCache

// WarmStats is a point-in-time snapshot of a WarmCache's counters.
type WarmStats = explore.WarmStats

// NewWarmCache builds a warm-start tier bounded to roughly maxBytes of
// estimated ladder memory. A non-positive bound returns nil (the
// disabled tier), so callers can thread a size knob through
// unconditionally.
func NewWarmCache(maxBytes int64) *WarmCache { return explore.NewWarmCache(maxBytes) }

// Workload is a DNN task description.
type Workload = dnn.Workload

// Environment supplies the ambient light coefficient k_eh over time.
type Environment = solar.Environment

// SimResult is one simulated inference: the outcome of the event-driven
// or the fixed-step co-simulator.
type SimResult = sim.Result

// SimMode selects the simulator core used by every co-simulation of a
// spec: Simulate*, Verify*, flight replays and chrysalisd jobs. Set it
// on Spec.SimMode; the zero value is SimModeEvent.
type SimMode = sim.Mode

// Simulator modes.
const (
	// SimModeEvent is the event-driven analytic simulator (default):
	// quiet windows are solved in closed form, events are stepped
	// bit-honestly.
	SimModeEvent = sim.ModeEvent
	// SimModeStep is the fixed-step bit-honest oracle.
	SimModeStep = sim.ModeStep
	// SimModeDifferential runs both simulators and fails on divergence.
	SimModeDifferential = sim.ModeDifferential
)

// ParseSimMode parses "event", "step" or "differential" (the -sim-mode
// CLI values).
func ParseSimMode(s string) (SimMode, error) { return sim.ParseMode(s) }

// Design runs the full CHRYSALIS pipeline: describe, evaluate, explore,
// and return the ideal AuT configuration for the spec.
func Design(spec Spec) (Result, error) { return core.Run(spec) }

// DesignContext is Design under a context: cancelling ctx (or passing
// its deadline) ends the search between generations and returns the
// best design found so far.
func DesignContext(ctx context.Context, spec Spec) (Result, error) {
	return core.RunBaseline(ctx, spec, explore.Full)
}

// DesignWithBaseline runs the pipeline under one of the paper's
// Table VI ablated search spaces ("wo/Cap", "wo/SP", "wo/EA", "wo/PE",
// "wo/Cache", "wo/IA") for comparison studies. The name "chrysalis"
// selects the full space.
func DesignWithBaseline(spec Spec, baseline string) (Result, error) {
	for _, b := range explore.Baselines() {
		if b.String() == baseline {
			return core.RunBaseline(context.TODO(), spec, b)
		}
	}
	return Result{}, errUnknownBaseline(baseline)
}

// Report renders a designed configuration as a pre-RTL design
// reference document: hardware tables, per-layer mapping, predicted
// metrics and Fig. 4 style loop nests.
func Report(spec Spec, res Result) (string, error) { return core.Report(spec, res) }

// ReportWithVerification is Report plus a Verify replay.
func ReportWithVerification(spec Spec, res Result) (string, error) {
	return core.ReportWithVerification(spec, res)
}

// Verify replays a designed configuration on the co-simulator selected
// by spec.SimMode (the event-driven simulator by default; the step
// simulator is its fixed-step oracle) and reports the simulated run,
// letting users cross-check the analytic search estimate the way the
// paper validates its model against the physical platform (Fig. 7).
func Verify(spec Spec, res Result) (SimResult, error) { return core.Verify(spec, res) }

// VerifyTraced is Verify with an event callback receiving the replay's
// transitions (power cycles, tile starts/completions, checkpoints,
// resumes, retries) in time order — the hook chrysalisd uses to stream
// live telemetry over SSE. A nil callback behaves like Verify.
func VerifyTraced(spec Spec, res Result, onEvent func(SimEvent)) (SimResult, error) {
	var tr sim.Tracer
	if onEvent != nil {
		tr = sim.Tracer(onEvent)
	}
	run, _, err := core.VerifyFlight(spec, res, tr, nil)
	return run, err
}

// Workloads lists the names of all built-in benchmark networks
// (Tables IV and V plus the Figure 2 workloads).
func Workloads() []string { return dnn.Names() }

// WorkloadByName retrieves a built-in workload.
func WorkloadByName(name string) (Workload, error) { return dnn.ByName(name) }

// ParseWorkload builds a custom workload from its JSON description
// (see internal/dnn's schema: an input shape plus a chained layer
// list). The result can be passed via Spec.Workload.
func ParseWorkload(data []byte) (Workload, error) { return dnn.ParseJSON(data) }

// Baselines lists the comparison-method names accepted by
// DesignWithBaseline.
func Baselines() []string {
	var names []string
	for _, b := range explore.Baselines() {
		names = append(names, b.String())
	}
	return names
}

// BrightEnvironment returns the paper's brighter search environment
// (k_eh = 1 mW/cm²).
func BrightEnvironment() Environment { return solar.Bright() }

// DarkEnvironment returns the paper's darker search environment
// (k_eh = 0.25 mW/cm²).
func DarkEnvironment() Environment { return solar.Dark() }

// DiurnalEnvironment returns a clear-sky day profile peaking at
// peak W/cm² between sunrise and sunset (seconds from scenario start).
func DiurnalEnvironment(peak Power, sunrise, sunset Seconds) (Environment, error) {
	return solar.NewDiurnal(peak, sunrise, sunset)
}

// errUnknownBaseline keeps the error type local without exporting
// internal packages.
type errUnknownBaseline string

func (e errUnknownBaseline) Error() string {
	return "chrysalis: unknown baseline " + string(e) + " (see Baselines())"
}

// PresetInfo describes one built-in deployment scenario.
type PresetInfo struct {
	Name        string
	Domain      string
	Description string
}

// Presets lists the built-in deployment scenarios (the paper's
// land/sea/air/space SWaP taxonomy).
func Presets() []PresetInfo {
	var out []PresetInfo
	for _, p := range core.Presets() {
		out = append(out, PresetInfo{Name: p.Name, Domain: p.Domain, Description: p.Description})
	}
	return out
}

// DesignPreset designs an AuT for a named deployment scenario.
func DesignPreset(preset, workload string, search SearchConfig) (Result, error) {
	return core.RunPreset(preset, workload, search)
}

// SensitivityRow reports the latency response to one perturbed
// parameter around a designed configuration.
type SensitivityRow = core.SensitivityRow

// Sensitivity perturbs the designed configuration one parameter at a
// time (panel ±25%, capacitor ×/÷2, ambient light ±50%) and reports
// the latency response — which tolerance matters before committing to
// hardware.
func Sensitivity(spec Spec, res Result) ([]SensitivityRow, error) {
	return core.Sensitivity(spec, res)
}
