// Package units defines the physical quantities used throughout the
// CHRYSALIS models: energy, power, time, capacitance, voltage, area and
// data sizes. Each quantity is a distinct float64 type so that mixing,
// say, joules and watts is a compile-time error, while arithmetic within
// a quantity stays ordinary float math.
//
// Conventions: SI base units everywhere (joules, watts, seconds, farads,
// volts), except panel area which the paper quotes in cm² and data sizes
// which are bytes.
package units

import (
	"fmt"
	"math"
)

// Energy is an amount of energy in joules.
type Energy float64

// Power is a rate of energy in watts.
type Power float64

// Seconds is a duration in seconds. The simulator uses plain seconds
// rather than time.Duration because steps can be fractions of a
// nanosecond-free analytic quantity and we never interact with wall time.
type Seconds float64

// Capacitance is a capacitance in farads.
type Capacitance float64

// Voltage is an electric potential in volts.
type Voltage float64

// AreaCM2 is an area in square centimeters (the unit used by the paper
// for solar panels: 1 cm² to 30 cm²).
type AreaCM2 float64

// Bytes is a data size in bytes.
type Bytes float64

// Data-size scale helpers.
const (
	KB Bytes = 1024
	MB Bytes = 1024 * 1024
)

// MulPT returns the energy delivered by power p over duration t.
func MulPT(p Power, t Seconds) Energy { return Energy(float64(p) * float64(t)) }

// DivET returns the average power of energy e spent over duration t.
// It returns 0 for non-positive durations.
func DivET(e Energy, t Seconds) Power {
	if t <= 0 {
		return 0
	}
	return Power(float64(e) / float64(t))
}

// CapacitorEnergy returns the energy stored in capacitance c between
// voltages hi and lo: ½·C·(hi²−lo²). The result is negative when hi < lo,
// which callers use to represent discharge below a reference level.
func CapacitorEnergy(c Capacitance, hi, lo Voltage) Energy {
	return Energy(0.5 * float64(c) * (float64(hi)*float64(hi) - float64(lo)*float64(lo)))
}

// VoltageForEnergy returns the voltage a capacitor of capacitance c holds
// when charged with energy e above 0 V: sqrt(2E/C). Negative energies
// clamp to 0 V.
func VoltageForEnergy(c Capacitance, e Energy) Voltage {
	if e <= 0 || c <= 0 {
		return 0
	}
	return Voltage(math.Sqrt(2 * float64(e) / float64(c)))
}

// EnergyAtVoltage returns ½·C·V², the total energy stored at voltage v.
func EnergyAtVoltage(c Capacitance, v Voltage) Energy {
	return Energy(0.5 * float64(c) * float64(v) * float64(v))
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ApproxEqual reports whether a and b agree within relative tolerance rel
// (falling back to absolute tolerance for values near zero).
func ApproxEqual(a, b, rel float64) bool {
	diff := math.Abs(a - b)
	if diff < 1e-12 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}

// String implementations keep experiment output readable.

func (e Energy) String() string { return siString(float64(e), "J") }
func (p Power) String() string  { return siString(float64(p), "W") }
func (t Seconds) String() string {
	if math.IsInf(float64(t), 1) {
		return "inf"
	}
	return siString(float64(t), "s")
}
func (c Capacitance) String() string { return siString(float64(c), "F") }
func (v Voltage) String() string     { return siString(float64(v), "V") }
func (a AreaCM2) String() string     { return fmt.Sprintf("%.2fcm²", float64(a)) }

func (b Bytes) String() string {
	switch {
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b/MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b/KB))
	default:
		return fmt.Sprintf("%.0fB", float64(b))
	}
}

// siString renders v with an SI prefix chosen so the mantissa lands in
// [1, 1000) where possible.
func siString(v float64, unit string) string {
	abs := math.Abs(v)
	switch {
	case abs == 0:
		return "0" + unit
	case abs >= 1:
		return trimFmt(v) + unit
	case abs >= 1e-3:
		return trimFmt(v*1e3) + "m" + unit
	case abs >= 1e-6:
		return trimFmt(v*1e6) + "u" + unit
	case abs >= 1e-9:
		return trimFmt(v*1e9) + "n" + unit
	default:
		return trimFmt(v*1e12) + "p" + unit
	}
}

func trimFmt(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros but keep at least one digit after the point,
	// then drop a bare trailing point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
