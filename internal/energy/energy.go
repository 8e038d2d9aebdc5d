// Package energy composes the harvester, storage capacitor and power
// management IC into the AuT energy subsystem and implements the energy
// controller of the paper's describer (Sec. III-C): the component that
// "emulates the intermittent computing power logic and communicates with
// the inference subsystem describer".
//
// The subsystem exposes two views used by CHRYSALIS:
//
//   - a closed-form view (Eq. 3) used by the analytic evaluator during
//     search, and
//   - a step view used by the step-based simulator, where each step
//     credits harvested energy, debits leakage and load, and runs the
//     PMIC threshold comparator.
package energy

import (
	"fmt"
	"math"

	"chrysalis/internal/pmic"
	"chrysalis/internal/solar"
	"chrysalis/internal/storage"
	"chrysalis/internal/units"
)

// Harvester abstracts the energy-harvesting transducer so users can
// substitute non-solar sources (thermal, RF) as the paper's
// interface-oriented design intends.
type Harvester interface {
	// Power returns the raw harvested power at time t.
	Power(t units.Seconds) units.Power
	// Describe identifies the harvester in traces.
	Describe() string
}

// SolarHarvester adapts a solar panel plus environment to Harvester.
type SolarHarvester struct {
	Panel solar.Panel
	Env   solar.Environment
}

// Power implements Harvester.
func (s SolarHarvester) Power(t units.Seconds) units.Power { return s.Panel.Power(s.Env, t) }

// Describe implements Harvester.
func (s SolarHarvester) Describe() string {
	return fmt.Sprintf("solar %v @ %s", s.Panel.Area, s.Env.Name())
}

// SteadyHarvester is implemented by harvesters whose output power is
// constant over all of scenario time. The event-driven simulator uses
// it to qualify a run for the closed-form segment solver; harvesters
// that don't implement it (or report false) are step-integrated.
type SteadyHarvester interface {
	// SteadyPower returns the time-invariant output power and true, or
	// (0, false) when the output varies with time.
	SteadyPower() (units.Power, bool)
}

// SteadyPower implements SteadyHarvester: a solar harvester is steady
// exactly when its environment advertises a constant coefficient.
func (s SolarHarvester) SteadyPower() (units.Power, bool) {
	if se, ok := s.Env.(solar.SteadyEnvironment); ok && se.SteadyKeh() {
		return s.Power(0), true
	}
	return 0, false
}

// Spec captures the configurable energy-subsystem parameters of the
// paper's design space: panel area and capacitor size, plus technology
// constants (k_cap, thresholds).
type Spec struct {
	PanelArea units.AreaCM2
	Cap       units.Capacitance
	// Storage selects the capacitor technology (zero value:
	// electrolytic, the paper's default). Ignored when Kcap is set.
	Storage storage.Tech
	Kcap    float64       // 0 selects the technology's coefficient
	Rated   units.Voltage // 0 selects 5.0 V
	PMIC    pmic.Config   // zero value selects pmic.Default()
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.Kcap == 0 {
		s.Kcap = storage.DefaultKcap
		if ts, err := storage.SpecFor(s.Storage); err == nil {
			s.Kcap = ts.Kcap
		}
	}
	if s.Rated == 0 {
		s.Rated = 5.0
	}
	if s.PMIC == (pmic.Config{}) {
		s.PMIC = pmic.Default()
	}
	return s
}

// Subsystem is an instantiated energy subsystem.
type Subsystem struct {
	Harvester Harvester
	Cap       *storage.Capacitor
	Ctrl      *pmic.Controller

	spec Spec
}

// New builds the subsystem from a spec and harvester. A nil harvester is
// rejected; spec bounds are validated by the component constructors.
func New(spec Spec, h Harvester) (*Subsystem, error) {
	if h == nil {
		return nil, fmt.Errorf("energy: harvester must not be nil")
	}
	spec = spec.withDefaults()
	if ts, err := storage.SpecFor(spec.Storage); err == nil && spec.Storage != storage.Electrolytic {
		if spec.Cap < ts.Min || spec.Cap > ts.Max {
			return nil, fmt.Errorf("energy: %v capacitor %v outside its range [%v, %v]",
				spec.Storage, spec.Cap, ts.Min, ts.Max)
		}
	}
	cap, err := storage.New(spec.Cap, spec.Kcap, spec.Rated)
	if err != nil {
		return nil, err
	}
	ctrl, err := pmic.NewController(spec.PMIC)
	if err != nil {
		return nil, err
	}
	if spec.PMIC.UOn > spec.Rated {
		return nil, fmt.Errorf("energy: U_on (%v) exceeds capacitor rated voltage (%v)",
			spec.PMIC.UOn, spec.Rated)
	}
	return &Subsystem{Harvester: h, Cap: cap, Ctrl: ctrl, spec: spec}, nil
}

// NewSolar is the common case: a solar panel in a given environment.
func NewSolar(spec Spec, env solar.Environment) (*Subsystem, error) {
	panel, err := solar.NewPanel(spec.PanelArea)
	if err != nil {
		return nil, err
	}
	return New(spec, SolarHarvester{Panel: panel, Env: env})
}

// Spec returns the (default-filled) spec the subsystem was built from.
func (s *Subsystem) Spec() Spec { return s.spec }

// StepReport describes what happened during one simulation step.
type StepReport struct {
	storage.StepResult
	// Harvested is the raw transducer output energy this step (before
	// PMIC conversion losses).
	Harvested units.Energy
	// ConversionLoss is harvested energy lost in the PMIC boost stage
	// plus quiescent draw.
	ConversionLoss units.Energy
	// State is the power-gate state at the end of the step.
	State pmic.State
	// Transition reports whether the gate flipped during this step.
	Transition bool
	// Voltage is the capacitor voltage at the end of the step.
	Voltage units.Voltage
}

// StepInto advances the subsystem by dt at time t with the given load
// demand, writing what happened into rep (the load is only actually
// drawn when the gate is On; callers pass the demand unconditionally
// and read Delivered). The caller owns rep and may reuse it every step.
func (s *Subsystem) StepInto(rep *StepReport, t units.Seconds, load units.Power, dt units.Seconds) {
	raw := s.Harvester.Power(t)
	toCap := s.Ctrl.HarvestToCap(raw)

	effLoad := units.Power(0)
	if s.Ctrl.State() == pmic.On {
		effLoad = s.Ctrl.LoadOnCap(load)
	}
	s.Cap.StepInto(&rep.StepResult, toCap, effLoad, dt)

	rep.State, rep.Transition = s.Ctrl.Update(s.Cap.Voltage())
	harv := units.MulPT(raw, dt)
	rep.Harvested = harv
	rep.ConversionLoss = harv - units.MulPT(toCap, dt)
	rep.Voltage = s.Cap.Voltage()
}

// Reset discharges the capacitor and returns the PMIC to Off.
func (s *Subsystem) Reset() {
	s.Cap.SetVoltage(0)
	s.Ctrl.Reset()
}

// AvailablePerCycle returns the paper's Eq. 3: the energy available to
// the load in one energy cycle whose powered phase lasts execTime, given
// harvesting at the subsystem's time-0 rate. Conversion efficiency is
// applied to both the harvest and the stored-energy discharge so the
// closed form matches what the step simulator delivers to the load.
func (s *Subsystem) AvailablePerCycle(execTime units.Seconds) units.Energy {
	raw := s.Harvester.Power(0)
	pEh := s.Ctrl.HarvestToCap(raw)
	gross := storage.CycleEnergy(s.spec.Cap, s.spec.Kcap, s.spec.PMIC.UOn, s.spec.PMIC.UOff, pEh, execTime)
	if gross <= 0 {
		return 0
	}
	return units.Energy(float64(gross) * s.spec.PMIC.LoadEff)
}

// ChargeLatency returns the time to charge from U_off to U_on at the
// subsystem's time-0 harvest rate (the dominant component of E2E
// latency per the paper's Eq. 7 discussion).
func (s *Subsystem) ChargeLatency() units.Seconds {
	raw := s.Harvester.Power(0)
	pEh := s.Ctrl.HarvestToCap(raw)
	return storage.ChargeTime(s.spec.Cap, s.spec.Kcap, s.spec.PMIC.UOn, s.spec.PMIC.UOff, pEh)
}

// HarvestPower returns the net power reaching the capacitor at time t.
func (s *Subsystem) HarvestPower(t units.Seconds) units.Power {
	return s.Ctrl.HarvestToCap(s.Harvester.Power(t))
}

// SteadyHarvest returns the harvester's constant raw output power when
// it is provably time-invariant (see SteadyHarvester), or (0, false).
func (s *Subsystem) SteadyHarvest() (units.Power, bool) {
	if sh, ok := s.Harvester.(SteadyHarvester); ok {
		return sh.SteadyPower()
	}
	return 0, false
}

// CycleBudget returns the energy deliverable to the load during one
// powered phase (U_on → U_off) when the load draws loadPower
// continuously, plus the duration of that phase. While powered, the
// capacitor supplies the converted load and its own leakage and
// receives harvest; when the harvest covers everything the system
// stays on indefinitely and both results are +Inf.
//
// This is the operational form of the paper's Eq. 8 right-hand side:
// the budget a single InterTempMap tile (plus its checkpoint) must fit.
func (s *Subsystem) CycleBudget(load units.Power) (units.Energy, units.Seconds) {
	spec := s.spec
	harvest := s.HarvestPower(0)
	drawCap := s.Ctrl.LoadOnCap(load)
	vAvg := (float64(spec.PMIC.UOn) + float64(spec.PMIC.UOff)) / 2
	leak := units.Power(spec.Kcap * float64(spec.Cap) * vAvg * vAvg)
	net := float64(drawCap) + float64(leak) - float64(harvest)
	if net <= 0 {
		inf := math.Inf(1)
		return units.Energy(inf), units.Seconds(inf)
	}
	usable := units.CapacitorEnergy(spec.Cap, spec.PMIC.UOn, spec.PMIC.UOff)
	d := float64(usable) / net
	return units.MulPT(load, units.Seconds(d)), units.Seconds(d)
}
