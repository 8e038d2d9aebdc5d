// Package storage models the energy-buffering capacitor of an AuT energy
// subsystem. The paper (Sec. III-B.1) models the capacitor with two
// equations: the stored energy between the system threshold voltages,
// E_store = ½C(U_on² − U_off²), and the leakage current I_R = k_cap·C·U
// (Eq. 2), so larger capacitors buffer more energy per cycle but bleed
// proportionally more.
package storage

import (
	"fmt"
	"math"

	"chrysalis/internal/units"
)

// Paper design-space bounds for capacitor size (Tables IV and V).
const (
	MinCapacitance units.Capacitance = 1e-6  // 1 uF
	MaxCapacitance units.Capacitance = 10e-3 // 10 mF
)

// DefaultKcap is the leakage coefficient for electrolytic capacitors:
// I_leak ≈ 0.01·C·U, the standard rule of thumb for aluminum
// electrolytics (and the physics model referenced in Table III). Units:
// 1/s, so that k·F·V yields amperes.
const DefaultKcap = 0.01

// Capacitor is an electrolytic energy buffer. The zero value is not
// usable; construct with New.
type Capacitor struct {
	// C is the capacitance in farads.
	C units.Capacitance
	// Kcap is the leakage coefficient of Eq. 2 (1/s).
	Kcap float64
	// Rated is the rated (maximum) voltage; charging clamps here.
	Rated units.Voltage

	// v is the current voltage across the capacitor.
	v units.Voltage
}

// New builds a capacitor within the paper's design space. kcap <= 0
// selects DefaultKcap. The capacitor starts fully discharged.
func New(c units.Capacitance, kcap float64, rated units.Voltage) (*Capacitor, error) {
	if c < MinCapacitance || c > MaxCapacitance {
		return nil, fmt.Errorf("storage: capacitance %v outside design space [%v, %v]",
			c, MinCapacitance, MaxCapacitance)
	}
	if rated <= 0 {
		return nil, fmt.Errorf("storage: rated voltage must be positive, got %v", rated)
	}
	if kcap <= 0 {
		kcap = DefaultKcap
	}
	return &Capacitor{C: c, Kcap: kcap, Rated: rated}, nil
}

// Voltage returns the current voltage across the capacitor.
func (c *Capacitor) Voltage() units.Voltage { return c.v }

// SetVoltage forces the capacitor to a voltage, clamped to [0, Rated].
// Simulators use it to start a scenario in a known state.
func (c *Capacitor) SetVoltage(v units.Voltage) {
	c.v = units.Voltage(units.Clamp(float64(v), 0, float64(c.Rated)))
}

// Stored returns the total energy currently stored, ½CV².
func (c *Capacitor) Stored() units.Energy { return units.EnergyAtVoltage(c.C, c.v) }

// UsableAbove returns the energy available before the voltage drops to
// the cutoff uOff: ½C(V² − U_off²). It is zero when V ≤ U_off.
func (c *Capacitor) UsableAbove(uOff units.Voltage) units.Energy {
	if c.v <= uOff {
		return 0
	}
	return units.CapacitorEnergy(c.C, c.v, uOff)
}

// LeakageCurrent returns I_R = k_cap·C·U at the present voltage (Eq. 2).
func (c *Capacitor) LeakageCurrent() units.Current {
	return units.Current(c.Kcap * float64(c.C) * float64(c.v))
}

// LeakagePower returns the instantaneous leakage power I_R·U =
// k_cap·C·U². The paper's Eq. 3 approximates this with U fixed at U_on
// during execution; the step simulator uses the instantaneous value.
func (c *Capacitor) LeakagePower() units.Power {
	return units.Power(c.Kcap * float64(c.C) * float64(c.v) * float64(c.v))
}

// StepResult reports the energy flows during one simulation step.
type StepResult struct {
	// Charged is the energy actually absorbed into the capacitor.
	Charged units.Energy
	// Delivered is the energy actually supplied to the load.
	Delivered units.Energy
	// Leaked is the energy lost to leakage.
	Leaked units.Energy
	// Spilled is harvested energy rejected because the capacitor hit its
	// rated voltage (wasted harvest).
	Spilled units.Energy
	// Starved is load demand that could not be met (load exceeded the
	// stored energy); the simulator treats any starvation as a brownout.
	Starved units.Energy
	// LeakVoltage is the pre-discharge voltage the leakage was debited
	// at: the voltage of the start-of-step energy plus the harvest
	// credit. Recorders integrate its square for the leakage audit.
	LeakVoltage units.Voltage
}

// StepInto advances the capacitor by dt with harvest power in and load
// power out, writing the step's flows into r. Ordering within a step:
// harvest is credited, then load and leakage are debited; the voltage
// never goes below zero or above Rated. All flows are reported so that
// callers can assert energy conservation. Filling a caller-owned
// report keeps the simulator's per-step path free of struct copies.
func (c *Capacitor) StepInto(r *StepResult, in, load units.Power, dt units.Seconds) {
	*r = StepResult{}
	if dt <= 0 {
		return
	}
	e := c.Stored()

	// Credit harvest, spilling anything beyond the rated voltage.
	harvest := units.MulPT(in, dt)
	capMax := units.EnergyAtVoltage(c.C, c.Rated)
	space := capMax - e
	if space < 0 {
		space = 0
	}
	if harvest > space {
		r.Spilled = harvest - space
		harvest = space
	}
	r.Charged = harvest
	e += harvest

	// Debit leakage at the pre-discharge voltage (first-order explicit).
	r.LeakVoltage = units.VoltageForEnergy(c.C, e)
	leak := units.MulPT(c.LeakagePowerAt(r.LeakVoltage), dt)
	if leak > e {
		leak = e
	}
	r.Leaked = leak
	e -= leak

	// Debit load.
	demand := units.MulPT(load, dt)
	if demand > e {
		r.Starved = demand - e
		demand = e
	}
	r.Delivered = demand
	e -= demand

	c.v = units.VoltageForEnergy(c.C, e)
	if c.v > c.Rated {
		c.v = c.Rated
	}
}

// LeakagePowerAt returns the leakage power if the capacitor were at
// voltage v.
func (c *Capacitor) LeakagePowerAt(v units.Voltage) units.Power {
	return units.Power(c.Kcap * float64(c.C) * float64(v) * float64(v))
}

// CycleEnergy returns the paper's Eq. 3 closed form: the energy
// available during one energy cycle of duration t, given harvest power
// pEh and thresholds uOn/uOff:
//
//	E_available = ½C(U_on²−U_off²) + T·(P_eh − k_cap·C·U_on²)
//
// The result can be negative when leakage exceeds harvest; callers treat
// that as an infeasible cycle.
func CycleEnergy(c units.Capacitance, kcap float64, uOn, uOff units.Voltage, pEh units.Power, t units.Seconds) units.Energy {
	store := units.CapacitorEnergy(c, uOn, uOff)
	net := float64(pEh) - kcap*float64(c)*float64(uOn)*float64(uOn)
	return store + units.Energy(net*float64(t))
}

// ChargeTime returns how long the capacitor takes to charge from uOff to
// uOn at constant harvest power pEh, accounting for leakage via the
// average-voltage approximation. Returns +Inf when net charging power is
// non-positive (the system can never turn on).
func ChargeTime(c units.Capacitance, kcap float64, uOn, uOff units.Voltage, pEh units.Power) units.Seconds {
	need := units.CapacitorEnergy(c, uOn, uOff)
	if need <= 0 {
		return 0
	}
	vAvg := (float64(uOn) + float64(uOff)) / 2
	leak := kcap * float64(c) * vAvg * vAvg
	net := float64(pEh) - leak
	if net <= 0 {
		return units.Seconds(math.Inf(1))
	}
	return units.Seconds(float64(need) / net)
}

// Tech identifies an energy-storage technology. The paper's design
// space uses aluminum electrolytics; alternative chemistries trade
// leakage against available sizes and are exposed as a component
// extension (Sec. III-D).
type Tech int

const (
	// Electrolytic is the paper's default: cheap, full 1 µF – 10 mF
	// range, leakage I ≈ 0.01·C·U.
	Electrolytic Tech = iota
	// Ceramic (MLCC) leaks an order of magnitude less but tops out at
	// ~100 µF for practical AuT form factors.
	Ceramic
	// Supercap covers only the large end of the range and self-
	// discharges faster.
	Supercap
)

// String implements fmt.Stringer.
func (t Tech) String() string {
	switch t {
	case Electrolytic:
		return "electrolytic"
	case Ceramic:
		return "ceramic"
	case Supercap:
		return "supercap"
	default:
		return fmt.Sprintf("tech(%d)", int(t))
	}
}

// TechSpec describes a storage technology's leakage coefficient and
// size range.
type TechSpec struct {
	Tech Tech
	Kcap float64
	Min  units.Capacitance
	Max  units.Capacitance
}

// Techs lists the supported technologies.
func Techs() []TechSpec {
	return []TechSpec{
		{Tech: Electrolytic, Kcap: DefaultKcap, Min: MinCapacitance, Max: MaxCapacitance},
		{Tech: Ceramic, Kcap: 0.001, Min: MinCapacitance, Max: 100e-6},
		{Tech: Supercap, Kcap: 0.02, Min: 1e-3, Max: MaxCapacitance},
	}
}

// SpecFor returns the TechSpec of a technology.
func SpecFor(t Tech) (TechSpec, error) {
	for _, s := range Techs() {
		if s.Tech == t {
			return s, nil
		}
	}
	return TechSpec{}, fmt.Errorf("storage: unknown technology %v", t)
}

// NewWithTech builds a capacitor of the given technology, enforcing its
// size range and leakage coefficient.
func NewWithTech(t Tech, c units.Capacitance, rated units.Voltage) (*Capacitor, error) {
	spec, err := SpecFor(t)
	if err != nil {
		return nil, err
	}
	if c < spec.Min || c > spec.Max {
		return nil, fmt.Errorf("storage: %v capacitor %v outside its range [%v, %v]",
			t, c, spec.Min, spec.Max)
	}
	return New(c, spec.Kcap, rated)
}
