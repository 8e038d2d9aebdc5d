// Package solar models the energy-harvesting environment and the solar
// panel of an AuT energy subsystem. It substitutes for the pvlib-based
// describer in the paper: CHRYSALIS consumes an environmental light
// coefficient k_eh (W/cm²) per inference and computes the harvested
// power as P_eh = A_eh · k_eh (paper Eq. 1).
//
// The paper assumes light is stable within a single inference (<5 min)
// but varies across inferences and across the day, so this package
// provides both constant environments (the "brighter"/"darker" pair
// used for search) and a diurnal clear-sky profile for day-scale
// simulation.
package solar

import (
	"fmt"
	"math"

	"chrysalis/internal/units"
)

// Environment supplies the light coefficient k_eh at a given simulation
// time. Implementations must be safe for concurrent use; all provided
// implementations are immutable after construction.
type Environment interface {
	// Keh returns the instantaneous light coefficient in W/cm² at time t
	// (seconds since the start of the scenario).
	Keh(t units.Seconds) units.Power
	// Name identifies the environment in traces and experiment output.
	Name() string
}

// Canonical coefficients for the two search environments used throughout
// the paper's evaluation. The values are calibrated so that the iNAS
// reference operating point in Fig. 7 (P_in = 6 mW) corresponds to a
// 6 cm² panel under the bright environment, squarely inside the paper's
// 1–30 cm² panel design space.
const (
	// KehBright is the brighter environment coefficient: 1 mW/cm².
	KehBright units.Power = 1e-3
	// KehDark is the darker environment coefficient: 0.25 mW/cm².
	KehDark units.Power = 0.25e-3
)

// SteadyEnvironment is implemented by environments whose Keh is
// constant over all of scenario time. The event-driven simulator
// (internal/sim) uses it to prove the harvest term of its closed-form
// segment solver is time-invariant; time-varying environments simply
// don't implement it and fall back to step integration.
type SteadyEnvironment interface {
	Environment
	// SteadyKeh reports whether Keh(t) is the same for every t.
	SteadyKeh() bool
}

// Constant is an Environment with a fixed k_eh, matching the paper's
// assumption of stable light within one inference.
type Constant struct {
	K     units.Power
	Label string
}

// SteadyKeh implements SteadyEnvironment.
func (c Constant) SteadyKeh() bool { return true }

// Bright returns the canonical brighter search environment.
func Bright() Constant { return Constant{K: KehBright, Label: "bright"} }

// Dark returns the canonical darker search environment.
func Dark() Constant { return Constant{K: KehDark, Label: "dark"} }

// Keh implements Environment.
func (c Constant) Keh(units.Seconds) units.Power { return c.K }

// Name implements Environment.
func (c Constant) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("constant(%v/cm²)", c.K)
}

// Diurnal models a clear-sky day: k_eh follows a half-sine between
// sunrise and sunset and is zero at night. Peak is the coefficient at
// solar noon. This extends the paper's constant-per-inference model for
// long-horizon simulations (Sec. III-D "component extensions").
type Diurnal struct {
	Peak    units.Power   // k_eh at solar noon
	Sunrise units.Seconds // seconds since scenario start
	Sunset  units.Seconds
	Label   string
}

// NewDiurnal builds a clear-sky day profile. Sunset must be after
// sunrise and peak must be positive.
func NewDiurnal(peak units.Power, sunrise, sunset units.Seconds) (Diurnal, error) {
	if peak <= 0 {
		return Diurnal{}, fmt.Errorf("solar: peak coefficient must be positive, got %v", peak)
	}
	if sunset <= sunrise {
		return Diurnal{}, fmt.Errorf("solar: sunset (%v) must be after sunrise (%v)", sunset, sunrise)
	}
	return Diurnal{Peak: peak, Sunrise: sunrise, Sunset: sunset}, nil
}

// Keh implements Environment.
func (d Diurnal) Keh(t units.Seconds) units.Power {
	if t <= d.Sunrise || t >= d.Sunset {
		return 0
	}
	frac := float64(t-d.Sunrise) / float64(d.Sunset-d.Sunrise)
	return units.Power(float64(d.Peak) * math.Sin(math.Pi*frac))
}

// Name implements Environment.
func (d Diurnal) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "diurnal"
}

// Panel is a photovoltaic module of a given area. Per paper Eq. 1 the
// electrical output is area times the environment coefficient; module
// inefficiencies are folded into k_eh exactly as in the paper.
type Panel struct {
	Area units.AreaCM2
}

// Paper design-space bounds for the panel (Table IV/V).
const (
	MinPanelArea units.AreaCM2 = 1
	MaxPanelArea units.AreaCM2 = 30
)

// NewPanel validates the paper's design-space bounds (1–30 cm²).
func NewPanel(area units.AreaCM2) (Panel, error) {
	if area < MinPanelArea || area > MaxPanelArea {
		return Panel{}, fmt.Errorf("solar: panel area %v outside design space [%v, %v]",
			area, MinPanelArea, MaxPanelArea)
	}
	return Panel{Area: area}, nil
}

// Power returns P_eh = A_eh · k_eh(t) for the given environment and time.
func (p Panel) Power(env Environment, t units.Seconds) units.Power {
	return units.Power(float64(p.Area) * float64(env.Keh(t)))
}
