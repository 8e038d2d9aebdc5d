package storage

import (
	"math"
	"testing"
	"testing/quick"

	"chrysalis/internal/units"
)

func mustCap(t *testing.T, c units.Capacitance) *Capacitor {
	t.Helper()
	cp, err := New(c, 0, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// step runs one StepInto and returns its report by value.
func step(c *Capacitor, in, load units.Power, dt units.Seconds) StepResult {
	var r StepResult
	c.StepInto(&r, in, load, dt)
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0.5e-6, 0, 5); err == nil {
		t.Error("below 1uF should be rejected")
	}
	if _, err := New(20e-3, 0, 5); err == nil {
		t.Error("above 10mF should be rejected")
	}
	if _, err := New(100e-6, 0, 0); err == nil {
		t.Error("zero rated voltage should be rejected")
	}
	c, err := New(100e-6, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kcap != DefaultKcap {
		t.Errorf("default kcap = %v, want %v", c.Kcap, DefaultKcap)
	}
	c2, _ := New(100e-6, 0.02, 5)
	if c2.Kcap != 0.02 {
		t.Errorf("explicit kcap = %v, want 0.02", c2.Kcap)
	}
}

func TestSetVoltageClamping(t *testing.T) {
	c := mustCap(t, 1e-3)
	c.SetVoltage(3)
	if c.Voltage() != 3 {
		t.Fatalf("voltage = %v", c.Voltage())
	}
	c.SetVoltage(-1)
	if c.Voltage() != 0 {
		t.Fatalf("negative set should clamp to 0, got %v", c.Voltage())
	}
	c.SetVoltage(99)
	if c.Voltage() != 5 {
		t.Fatalf("over-rated set should clamp to rated, got %v", c.Voltage())
	}
}

func TestLeakageEq2(t *testing.T) {
	// Eq. 2: I_R = k_cap·C·U. For 1mF at 3V with k=0.01 => 30uA.
	c := mustCap(t, 1e-3)
	c.SetVoltage(3)
	if got := c.LeakageCurrent(); !units.ApproxEqual(float64(got), 30e-6, 1e-12) {
		t.Fatalf("I_R = %v, want 30uA", got)
	}
	// Power = I·U = 90uW.
	if got := c.LeakagePower(); !units.ApproxEqual(float64(got), 90e-6, 1e-12) {
		t.Fatalf("P_leak = %v, want 90uW", got)
	}
}

func TestLeakageScalesWithSize(t *testing.T) {
	small := mustCap(t, 10e-6)
	big := mustCap(t, 10e-3)
	small.SetVoltage(3)
	big.SetVoltage(3)
	if small.LeakagePower() >= big.LeakagePower() {
		t.Fatal("larger capacitor must leak more (paper Fig. 9 premise)")
	}
}

func TestUsableAbove(t *testing.T) {
	c := mustCap(t, 1e-3)
	c.SetVoltage(3)
	got := c.UsableAbove(1.8)
	want := 0.5 * 1e-3 * (9 - 3.24)
	if !units.ApproxEqual(float64(got), want, 1e-9) {
		t.Fatalf("usable = %v, want %v", got, want)
	}
	c.SetVoltage(1.0)
	if c.UsableAbove(1.8) != 0 {
		t.Fatal("below cutoff there is no usable energy")
	}
}

func TestStepChargesTowardHarvest(t *testing.T) {
	c := mustCap(t, 100e-6)
	r := step(c, 6e-3, 0, 1) // 6mW for 1s into 100uF
	if r.Charged <= 0 {
		t.Fatal("should charge")
	}
	if c.Voltage() <= 0 {
		t.Fatal("voltage should rise")
	}
	if r.Starved != 0 || r.Delivered != 0 {
		t.Fatal("no load => no delivery or starvation")
	}
}

func TestStepSpillsAtRatedVoltage(t *testing.T) {
	c := mustCap(t, 1e-6)
	c.SetVoltage(5) // at rated
	r := step(c, 10e-3, 0, 1)
	if r.Spilled <= 0 {
		t.Fatal("full capacitor must spill harvest")
	}
	if c.Voltage() > 5+1e-12 {
		t.Fatalf("voltage exceeded rated: %v", c.Voltage())
	}
}

func TestStepStarvation(t *testing.T) {
	c := mustCap(t, 1e-6) // tiny: ½·1e-6·25 = 12.5uJ max
	c.SetVoltage(5)
	r := step(c, 0, 1 /*1W*/, 1)
	if r.Starved <= 0 {
		t.Fatal("1W from a 1uF cap must starve")
	}
	if c.Voltage() != 0 {
		t.Fatalf("voltage should be drained to 0, got %v", c.Voltage())
	}
}

func TestStepZeroDt(t *testing.T) {
	c := mustCap(t, 100e-6)
	c.SetVoltage(3)
	r := step(c, 1e-3, 1e-3, 0)
	if r != (StepResult{}) {
		t.Fatal("zero dt must be a no-op")
	}
	if c.Voltage() != 3 {
		t.Fatal("voltage must be unchanged")
	}
}

// TestStepIntoReusedReport checks that StepInto overwrites every field
// of a reused report (a stale Spilled or Starved would corrupt the
// caller's ledgers), that LeakVoltage is the pre-discharge voltage the
// leakage debit was computed from, and that the step allocates nothing.
func TestStepIntoReusedReport(t *testing.T) {
	c := mustCap(t, 10e-6)
	c.SetVoltage(5)
	r := StepResult{Charged: 1, Delivered: 1, Leaked: 1, Spilled: 1, Starved: 1, LeakVoltage: 1}
	c.StepInto(&r, 0, 0, 0)
	if r != (StepResult{}) {
		t.Fatalf("zero-dt step left stale fields: %+v", r)
	}
	r = StepResult{Spilled: 1, Starved: 1}
	c.SetVoltage(3)
	before := c.Stored()
	c.StepInto(&r, 1e-3, 0, 1e-3)
	if r.Spilled != 0 || r.Starved != 0 {
		t.Fatalf("stale spill/starvation survived: %+v", r)
	}
	want := units.VoltageForEnergy(c.C, before+r.Charged)
	if r.LeakVoltage != want {
		t.Fatalf("LeakVoltage = %v, want pre-discharge %v", r.LeakVoltage, want)
	}
	if got := units.MulPT(c.LeakagePowerAt(r.LeakVoltage), 1e-3); got != r.Leaked {
		t.Fatalf("leak %v not debited at LeakVoltage (%v)", r.Leaked, got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.StepInto(&r, 1e-3, 2e-3, 1e-3)
	})
	if allocs != 0 {
		t.Fatalf("StepInto allocates %v times per step", allocs)
	}
}

func TestStepEnergyConservation(t *testing.T) {
	// Property: stored_after = stored_before + charged - leaked - delivered.
	f := func(capSel, vSel, inSel, loadSel uint8) bool {
		caps := []units.Capacitance{1e-6, 47e-6, 100e-6, 1e-3, 10e-3}
		c, err := New(caps[int(capSel)%len(caps)], 0, 5)
		if err != nil {
			return false
		}
		c.SetVoltage(units.Voltage(float64(vSel) / 255 * 5))
		before := c.Stored()
		in := units.Power(float64(inSel) / 255 * 20e-3)
		load := units.Power(float64(loadSel) / 255 * 50e-3)
		r := step(c, in, load, 0.1)
		after := c.Stored()
		lhs := float64(after)
		rhs := float64(before) + float64(r.Charged) - float64(r.Leaked) - float64(r.Delivered)
		return units.ApproxEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStepHarvestAccounting(t *testing.T) {
	// Property: charged + spilled == harvested input energy.
	f := func(vSel, inSel uint8) bool {
		c, err := New(10e-6, 0, 5)
		if err != nil {
			return false
		}
		c.SetVoltage(units.Voltage(float64(vSel) / 255 * 5))
		in := units.Power(float64(inSel) / 255 * 30e-3)
		r := step(c, in, 0, 1)
		total := float64(r.Charged) + float64(r.Spilled)
		return units.ApproxEqual(total, float64(in)*1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleEnergyEq3(t *testing.T) {
	// Eq. 3 closed form with hand-computed numbers:
	// C=100uF, U_on=3, U_off=1.8, P=6mW, T=1s, k=0.01.
	// store = ½·1e-4·(9−3.24) = 2.88e-4
	// leak term = 0.01·1e-4·9 = 9e-6 W
	// E = 2.88e-4 + 1·(6e-3 − 9e-6) = 6.279e-3
	got := CycleEnergy(100e-6, 0.01, 3, 1.8, 6e-3, 1)
	if !units.ApproxEqual(float64(got), 6.279e-3, 1e-9) {
		t.Fatalf("CycleEnergy = %v, want 6.279mJ", got)
	}
}

func TestCycleEnergyLeakageDominates(t *testing.T) {
	// A 10mF capacitor at 3V leaks 0.01·0.01·9 = 0.9mW. With only 0.25mW
	// harvested, long cycles go negative => unavailability (Fig. 2b).
	got := CycleEnergy(10e-3, 0.01, 3, 1.8, 0.25e-3, 200)
	if got >= 0 {
		t.Fatalf("expected negative available energy, got %v", got)
	}
}

func TestChargeTime(t *testing.T) {
	// Without leakage: E/P. 100uF from 1.8 to 3V needs 2.88e-4 J; at 6mW
	// that's 48ms ignoring leakage; with leakage slightly more.
	got := ChargeTime(100e-6, 0.01, 3, 1.8, 6e-3)
	ideal := 2.88e-4 / 6e-3
	if float64(got) <= ideal {
		t.Fatalf("leakage should lengthen charge time: got %v, ideal %v", got, ideal)
	}
	if float64(got) > ideal*1.01 {
		t.Fatalf("tiny leakage should not add >1%%: got %v, ideal %v", got, ideal)
	}
}

func TestChargeTimeNeverOn(t *testing.T) {
	// Harvest below leakage => infinite charge time.
	got := ChargeTime(10e-3, 0.01, 3, 1.8, 0.1e-3)
	if !math.IsInf(float64(got), 1) {
		t.Fatalf("expected +Inf, got %v", got)
	}
}

func TestChargeTimeAlreadyCharged(t *testing.T) {
	if got := ChargeTime(100e-6, 0.01, 1.8, 3, 6e-3); got != 0 {
		t.Fatalf("uOn <= uOff should give 0 charge time, got %v", got)
	}
}

func TestStepSequenceReachesEquilibrium(t *testing.T) {
	// Charging a capacitor with no load must asymptote at the rated
	// voltage or the leakage equilibrium, never oscillate above rated.
	c := mustCap(t, 100e-6)
	var prev units.Voltage
	for i := 0; i < 5000; i++ {
		step(c, 1e-3, 0, 0.01)
		v := c.Voltage()
		if v > 5+1e-9 {
			t.Fatalf("voltage exceeded rated at step %d: %v", i, v)
		}
		if v+1e-9 < prev && prev < 4.99 {
			t.Fatalf("voltage decreased while charging below rated: %v -> %v", prev, v)
		}
		prev = v
	}
	if prev < 4.9 {
		t.Fatalf("1mW into 100uF should saturate near rated, got %v", prev)
	}
}

func TestTechSpecs(t *testing.T) {
	if Electrolytic.String() != "electrolytic" || Ceramic.String() != "ceramic" || Supercap.String() != "supercap" {
		t.Fatal("tech names")
	}
	if Tech(9).String() != "tech(9)" {
		t.Fatal("unknown tech name")
	}
	if len(Techs()) != 3 {
		t.Fatal("tech table size")
	}
	if _, err := SpecFor(Tech(9)); err == nil {
		t.Fatal("unknown tech should fail")
	}
	el, _ := SpecFor(Electrolytic)
	ce, _ := SpecFor(Ceramic)
	su, _ := SpecFor(Supercap)
	if ce.Kcap >= el.Kcap {
		t.Fatal("ceramic must leak less than electrolytic")
	}
	if su.Kcap <= el.Kcap {
		t.Fatal("supercap must self-discharge faster than electrolytic")
	}
}

func TestNewWithTech(t *testing.T) {
	// Ceramic at 47uF works and leaks less than electrolytic.
	ce, err := NewWithTech(Ceramic, 47e-6, 5)
	if err != nil {
		t.Fatal(err)
	}
	el, err := NewWithTech(Electrolytic, 47e-6, 5)
	if err != nil {
		t.Fatal(err)
	}
	ce.SetVoltage(3)
	el.SetVoltage(3)
	if ce.LeakagePower() >= el.LeakagePower() {
		t.Fatal("ceramic should leak less at the same size")
	}
	// Out-of-range sizes are rejected per technology.
	if _, err := NewWithTech(Ceramic, 1e-3, 5); err == nil {
		t.Fatal("1mF ceramic should be rejected")
	}
	if _, err := NewWithTech(Supercap, 100e-6, 5); err == nil {
		t.Fatal("100uF supercap should be rejected")
	}
	if _, err := NewWithTech(Tech(9), 100e-6, 5); err == nil {
		t.Fatal("unknown tech should be rejected")
	}
}
