package chrysalis

// Extensions beyond the paper's core evaluation: temperature coupling,
// multi-inference series simulation, and event tracing. These follow
// Sec. III-D's interface-oriented extension model — each plugs into the
// unchanged evaluator.

import (
	"chrysalis/internal/sim"
	"chrysalis/internal/thermal"
)

// --- Thermal coupling ---

// ThermalProfile supplies ambient temperature over scenario time.
type ThermalProfile = thermal.Profile

// ConstantTemp returns a fixed-temperature profile.
func ConstantTemp(celsius float64) ThermalProfile { return thermal.Constant{C: celsius} }

// DayNightTemp returns a sinusoidal day/night temperature swing with
// the given mean, amplitude and time of daily peak.
func DayNightTemp(meanC, swingC float64, peakAt Seconds) ThermalProfile {
	return thermal.DayNight{MeanC: meanC, SwingC: swingC, PeakAt: peakAt}
}

// ThermalDerate wraps an environment with photovoltaic temperature
// derating (−0.4%/°C above 25 °C).
func ThermalDerate(env Environment, p ThermalProfile) (Environment, error) {
	return thermal.NewDeratedEnvironment(env, p)
}

// ThermalKcap returns the effective capacitor leakage coefficient at a
// temperature: electrolytic leakage doubles per +10 °C. Pass base 0 for
// the default coefficient. Use with Spec.Rexc-style low-level runs via
// SimulateSeries options or custom subsystems.
func ThermalKcap(base, celsius float64) float64 { return thermal.AdjustedKcap(base, celsius) }

// --- Multi-inference series ---

// SeriesResult summarizes a back-to-back sequence of inferences.
type SeriesResult = sim.SeriesResult

// SimulateSeries runs n inferences back-to-back on one design point
// with an idle (sensing/sleep) gap between them, carrying capacitor
// state and the clock across inferences so diurnal or cloudy
// environments shape each one. A nil env selects the bright
// environment. Series always run on the fixed-step simulator,
// whatever spec.SimMode says.
func SimulateSeries(spec Spec, dp DesignPoint, env Environment, n int, idle Seconds) (SeriesResult, error) {
	cfg, err := replay(spec, dp, env)
	if err != nil {
		return SeriesResult{}, err
	}
	return sim.RunSeries(cfg, n, idle)
}

// --- Checkpoint policies ---

// CheckpointPolicy selects the inference controller's save strategy.
type CheckpointPolicy = sim.Policy

// Checkpoint policies.
const (
	// CheckpointEveryTile saves after every tile (the paper's Eq. 5
	// accounting; HAWAII-style footprints).
	CheckpointEveryTile = sim.PolicyEveryTile
	// CheckpointAdaptive saves only when capacitor headroom runs low.
	CheckpointAdaptive = sim.PolicyAdaptive
	// CheckpointNone never saves; interruptions restart the inference.
	CheckpointNone = sim.PolicyNone
)

// SimulateWithPolicy is Simulate with an explicit checkpoint policy.
func SimulateWithPolicy(spec Spec, dp DesignPoint, env Environment, policy CheckpointPolicy) (SimResult, error) {
	cfg, err := replay(spec, dp, env)
	if err != nil {
		return SimResult{}, err
	}
	cfg.Policy = policy
	return sim.RunMode(cfg, spec.SimMode)
}

// --- Event tracing ---

// SimEvent is one observable simulator transition (power cycles, tile
// starts/completions, checkpoints, resumes, retries).
type SimEvent = sim.Event

// SimulateTraced is Simulate with an event callback receiving the
// run's transitions in time order.
func SimulateTraced(spec Spec, dp DesignPoint, env Environment, onEvent func(SimEvent)) (SimResult, error) {
	cfg, err := replay(spec, dp, env)
	if err != nil {
		return SimResult{}, err
	}
	if onEvent != nil {
		cfg.Trace = sim.Tracer(onEvent)
	}
	return sim.RunMode(cfg, spec.SimMode)
}
