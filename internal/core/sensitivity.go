package core

import (
	"fmt"
	"math"

	"chrysalis/internal/explore"
	"chrysalis/internal/solar"
	"chrysalis/internal/storage"
	"chrysalis/internal/units"
)

// SensitivityRow reports how the design's average latency responds to
// perturbing one parameter while holding the rest fixed (one-at-a-time
// tornado analysis around the chosen design point).
type SensitivityRow struct {
	Parameter string
	// Low/High describe the perturbed values.
	Low, High string
	// LatLow/LatHigh are the average latencies at the perturbed values
	// (+Inf when the perturbed design is infeasible).
	LatLow, LatHigh units.Seconds
	// Swing is the relative latency span (high−low)/base.
	Swing float64
}

// Sensitivity perturbs the designed configuration one parameter at a
// time — panel area ±25%, capacitor ×/÷2, and the environment's light
// coefficient ±50% — and reports the latency response. Designers use
// it to see which tolerance actually matters before committing to
// hardware.
func Sensitivity(spec Spec, res Result) ([]SensitivityRow, error) {
	sc, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	baseCand, err := candidateFromResult(spec, res)
	if err != nil {
		return nil, err
	}
	base, err := explore.EvaluateCandidate(sc, baseCand)
	if err != nil {
		return nil, err
	}
	if !base.Feasible {
		return nil, fmt.Errorf("core: base design is infeasible; nothing to perturb")
	}
	baseLat := float64(base.AvgLatency)

	evalWith := func(mutate func(*explore.Candidate) bool, scenario explore.Scenario) units.Seconds {
		cand := baseCand
		if cand.Accel != nil {
			cp := *cand.Accel
			cand.Accel = &cp
		}
		if mutate != nil && !mutate(&cand) {
			return units.Seconds(math.Inf(1))
		}
		ev, err := explore.EvaluateCandidate(scenario, cand)
		if err != nil || !ev.Feasible {
			return units.Seconds(math.Inf(1))
		}
		return ev.AvgLatency
	}

	clampPanel := func(a units.AreaCM2) (units.AreaCM2, bool) {
		if a < solar.MinPanelArea || a > solar.MaxPanelArea {
			return 0, false
		}
		return a, true
	}
	clampCap := func(c units.Capacitance) (units.Capacitance, bool) {
		if c < storage.MinCapacitance || c > storage.MaxCapacitance {
			return 0, false
		}
		return c, true
	}

	var rows []SensitivityRow

	// Panel ±25%.
	lowP, okL := clampPanel(baseCand.PanelArea * 0.75)
	highP, okH := clampPanel(baseCand.PanelArea * 1.25)
	row := SensitivityRow{
		Parameter: "panel area ±25%",
		Low:       lowP.String(), High: highP.String(),
		LatLow:  units.Seconds(math.Inf(1)),
		LatHigh: units.Seconds(math.Inf(1)),
	}
	if okL {
		row.LatLow = evalWith(func(c *explore.Candidate) bool { c.PanelArea = lowP; return true }, sc)
	}
	if okH {
		row.LatHigh = evalWith(func(c *explore.Candidate) bool { c.PanelArea = highP; return true }, sc)
	}
	rows = append(rows, row)

	// Capacitor ×/÷2.
	lowC, okL := clampCap(baseCand.Cap / 2)
	highC, okH := clampCap(baseCand.Cap * 2)
	row = SensitivityRow{
		Parameter: "capacitor ×/÷2",
		Low:       lowC.String(), High: highC.String(),
		LatLow:  units.Seconds(math.Inf(1)),
		LatHigh: units.Seconds(math.Inf(1)),
	}
	if okL {
		row.LatLow = evalWith(func(c *explore.Candidate) bool { c.Cap = lowC; return true }, sc)
	}
	if okH {
		row.LatHigh = evalWith(func(c *explore.Candidate) bool { c.Cap = highC; return true }, sc)
	}
	rows = append(rows, row)

	// Environment k_eh ±50% (scaling both search environments).
	dimmer := sc
	dimmer.Envs = scaleEnvs(sc.Envs, 0.5)
	brighter := sc
	brighter.Envs = scaleEnvs(sc.Envs, 1.5)
	rows = append(rows, SensitivityRow{
		Parameter: "ambient light ±50%",
		Low:       "0.5×k_eh", High: "1.5×k_eh",
		LatLow:  evalWith(nil, dimmer),
		LatHigh: evalWith(nil, brighter),
	})

	// Swings relative to the base latency.
	for i := range rows {
		lo, hi := float64(rows[i].LatLow), float64(rows[i].LatHigh)
		if math.IsInf(lo, 1) || math.IsInf(hi, 1) || baseLat <= 0 {
			rows[i].Swing = math.Inf(1)
			continue
		}
		rows[i].Swing = math.Abs(lo-hi) / baseLat
	}
	return rows, nil
}

// scaledEnv wraps an environment with a multiplier on k_eh.
type scaledEnv struct {
	base  solar.Environment
	scale float64
}

func (s scaledEnv) Keh(t units.Seconds) units.Power {
	return units.Power(float64(s.base.Keh(t)) * s.scale)
}
func (s scaledEnv) Name() string { return fmt.Sprintf("%s×%.2g", s.base.Name(), s.scale) }

func scaleEnvs(envs []solar.Environment, k float64) []solar.Environment {
	if envs == nil {
		envs = []solar.Environment{solar.Bright(), solar.Dark()}
	}
	out := make([]solar.Environment, len(envs))
	for i, e := range envs {
		out[i] = scaledEnv{base: e, scale: k}
	}
	return out
}
