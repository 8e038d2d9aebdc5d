package core

import (
	"fmt"
	"sort"

	"chrysalis/internal/explore"
	"chrysalis/internal/solar"
	"chrysalis/internal/thermal"
)

// Preset is a named deployment scenario with the SWaP constraints the
// paper's introduction motivates: "many AuT systems are part of
// mission-critical infrastructures in land, sea, air, and space. Each
// of the AuT faces rigorous and specific SWaP constraints".
type Preset struct {
	Name string
	// Domain is the paper's land/sea/air/space taxonomy.
	Domain string
	// Description explains the scenario.
	Description string
	// Build returns the spec template for a workload name.
	Build func(workload string) Spec
}

// Presets returns the built-in deployment scenarios.
func Presets() []Preset {
	return []Preset{
		{
			Name:        "wearable",
			Domain:      "land",
			Description: "body-worn health monitor: tight size budget, indoor light, relaxed deadline",
			Build: func(w string) Spec {
				return Spec{
					WorkloadName: w,
					Platform:     explore.MSP,
					Objective:    explore.Lat,
					MaxPanel:     6, // wrist-scale panel
					Envs:         []solar.Environment{solar.Dark()},
				}
			},
		},
		{
			Name:        "uav",
			Domain:      "air",
			Description: "micro-UAV perception: weight-limited panel, hard real-time deadline, accelerator platform",
			Build: func(w string) Spec {
				return Spec{
					WorkloadName: w,
					Platform:     explore.Accel,
					Objective:    explore.SP, // lightest panel meeting the deadline
					MaxLatency:   5,
				}
			},
		},
		{
			Name:        "buoy",
			Domain:      "sea",
			Description: "ocean buoy acoustic classifier: generous deck area, overall space-time efficiency",
			Build: func(w string) Spec {
				return Spec{
					WorkloadName: w,
					Platform:     explore.MSP,
					Objective:    explore.LatSP,
				}
			},
		},
		{
			Name:        "orbital",
			Domain:      "space",
			Description: "cubesat payload: strong sun with thermal derating on the hot face, latency objective",
			Build: func(w string) Spec {
				hot, err := thermal.NewDeratedEnvironment(solar.Bright(), thermal.Constant{C: 70})
				envs := []solar.Environment{solar.Bright()}
				if err == nil {
					envs = []solar.Environment{hot}
				}
				return Spec{
					WorkloadName: w,
					Platform:     explore.Accel,
					Objective:    explore.Lat,
					MaxPanel:     15, // deployable face area
					Envs:         envs,
				}
			},
		},
		{
			Name:        "volcano",
			Domain:      "land",
			Description: "remote volcano monitoring: dim ash-filtered light, availability above all",
			Build: func(w string) Spec {
				dim := solar.Constant{K: 0.15e-3, Label: "ash-dimmed"}
				return Spec{
					WorkloadName: w,
					Platform:     explore.MSP,
					Objective:    explore.Lat,
					Envs:         []solar.Environment{dim},
				}
			},
		},
	}
}

// presetByName resolves a preset.
func presetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range Presets() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return Preset{}, fmt.Errorf("core: unknown preset %q (have %v)", name, names)
}

// RunPreset designs an AuT for a preset scenario and workload.
func RunPreset(preset, workload string, search SearchConfig) (Result, error) {
	p, err := presetByName(preset)
	if err != nil {
		return Result{}, err
	}
	spec := p.Build(workload)
	spec.Search = search
	return Run(spec)
}
