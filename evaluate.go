package chrysalis

import (
	"fmt"

	"chrysalis/internal/accel"
	"chrysalis/internal/energy"
	"chrysalis/internal/explore"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
)

// AccelConfig describes one reconfigurable-accelerator design point
// (Table V): architecture family, PE count (1–168) and per-PE cache
// (128 B – 2 KB).
type AccelConfig = accel.Config

// Accelerator architecture families.
const (
	// TPU is the systolic weight-stationary family.
	TPU = accel.TPU
	// Eyeriss is the row-stationary family.
	Eyeriss = accel.Eyeriss
)

// DesignPoint is one concrete AuT hardware configuration to evaluate
// directly, bypassing the search: the solar panel size (1–30 cm²), the
// storage capacitor (1 µF – 10 mF) and, for the accelerator platform,
// its configuration (a nil Accel means the MSP430 platform).
type DesignPoint = explore.Candidate

// Evaluation is the assessment of one design point: per-environment
// latency/energy/efficiency, the chosen per-layer mappings, and the
// aggregate metrics the objectives optimize.
type Evaluation = explore.Evaluation

// Evaluate assesses a single design point for a spec using the analytic
// evaluator (the paper's Eq. 5 + Eq. 7 fast path): the inner mapping
// search still runs, so the design point is evaluated at its best
// achievable dataflow and tiling.
func Evaluate(spec Spec, dp DesignPoint) (Evaluation, error) {
	sc, err := spec.Scenario()
	if err != nil {
		return Evaluation{}, err
	}
	return explore.EvaluateCandidate(sc, dp)
}

// replay plans a design point under env alone and returns the simulator
// configuration that replays it there. A nil env selects the bright
// environment.
func replay(spec Spec, dp DesignPoint, env Environment) (sim.Config, error) {
	if env == nil {
		env = solar.Bright()
	}
	sc, err := spec.Scenario()
	if err != nil {
		return sim.Config{}, err
	}
	sc.Envs = []solar.Environment{env}
	ev, err := explore.EvaluateCandidate(sc, dp)
	if err != nil {
		return sim.Config{}, err
	}
	return ev.SimConfig(env)
}

// Harvester abstracts the energy transducer so non-solar sources
// (thermal, RF, vibration) can be plugged into the simulator — the
// paper's interface-oriented extensibility (Sec. III-D).
type Harvester = energy.Harvester

// Simulate runs a design point through the co-simulator selected by
// spec.SimMode (the event-driven simulator by default) under one
// environment, with the mapping planned for that environment, and
// returns the detailed run (power cycles, checkpoints, retries, energy
// breakdown). A nil env selects the bright environment.
func Simulate(spec Spec, dp DesignPoint, env Environment) (SimResult, error) {
	cfg, err := replay(spec, dp, env)
	if err != nil {
		return SimResult{}, err
	}
	return sim.RunMode(cfg, spec.SimMode)
}

// SimulateWithHarvester is Simulate with a custom Harvester replacing
// the solar panel entirely. The mapping is planned under the bright
// environment, which acts as the sizing assumption.
func SimulateWithHarvester(spec Spec, dp DesignPoint, h Harvester) (SimResult, error) {
	if h == nil {
		return SimResult{}, fmt.Errorf("chrysalis: harvester must not be nil")
	}
	cfg, err := replay(spec, dp, nil)
	if err != nil {
		return SimResult{}, err
	}
	if cfg.Energy, err = energy.New(energy.Spec{PanelArea: dp.PanelArea, Cap: dp.Cap}, h); err != nil {
		return SimResult{}, err
	}
	return sim.RunMode(cfg, spec.SimMode)
}
