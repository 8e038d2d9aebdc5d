package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"chrysalis/internal/pmic"
	"chrysalis/internal/solar"
	"chrysalis/internal/storage"
	"chrysalis/internal/units"
)

func solarSub(t *testing.T, area units.AreaCM2, cap units.Capacitance, env solar.Environment) *Subsystem {
	t.Helper()
	s, err := NewSolar(Spec{PanelArea: area, Cap: cap}, env)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Spec{Cap: 100e-6}, nil); err == nil {
		t.Error("nil harvester should be rejected")
	}
	if _, err := NewSolar(Spec{PanelArea: 0, Cap: 100e-6}, solar.Bright()); err == nil {
		t.Error("invalid panel should be rejected")
	}
	if _, err := NewSolar(Spec{PanelArea: 8, Cap: 0}, solar.Bright()); err == nil {
		t.Error("invalid capacitance should be rejected")
	}
	bad := Spec{PanelArea: 8, Cap: 100e-6, Rated: 2.0} // UOn default 3.0 > rated 2.0
	if _, err := NewSolar(bad, solar.Bright()); err == nil {
		t.Error("UOn above rated voltage should be rejected")
	}
	badPMIC := Spec{PanelArea: 8, Cap: 100e-6, PMIC: pmic.Config{UOn: 1, UOff: 2, HarvestEff: 0.9, LoadEff: 0.9}}
	if _, err := NewSolar(badPMIC, solar.Bright()); err == nil {
		t.Error("invalid PMIC config should be rejected")
	}
}

func TestSpecDefaults(t *testing.T) {
	s := solarSub(t, 8, 100e-6, solar.Bright())
	got := s.Spec()
	if got.Kcap == 0 || got.Rated == 0 || got.PMIC == (pmic.Config{}) {
		t.Fatalf("defaults not filled: %+v", got)
	}
}

func TestSolarHarvesterDescribe(t *testing.T) {
	s := solarSub(t, 8, 100e-6, solar.Bright())
	d := s.Harvester.Describe()
	if !strings.Contains(d, "solar") || !strings.Contains(d, "bright") {
		t.Fatalf("Describe = %q", d)
	}
}

// step runs one StepInto and returns its report by value.
func step(s *Subsystem, t units.Seconds, load units.Power, dt units.Seconds) StepReport {
	var rep StepReport
	s.StepInto(&rep, t, load, dt)
	return rep
}

func TestChargeThenPowerCycle(t *testing.T) {
	// 8cm² bright = 8mW raw. Charge a 100uF cap, verify the gate turns
	// on near U_on, then draw a heavy load and verify it turns off near
	// U_off.
	s := solarSub(t, 8, 100e-6, solar.Bright())
	var onAt units.Seconds = -1
	var tm units.Seconds
	const dt = 1e-3
	for i := 0; i < 200000; i++ {
		rep := step(s, tm, 0, dt)
		tm += dt
		if rep.State == pmic.On {
			onAt = tm
			if rep.Voltage < s.Spec().PMIC.UOn-0.05 {
				t.Fatalf("turned on at voltage %v, want >= ~U_on", rep.Voltage)
			}
			break
		}
	}
	if onAt < 0 {
		t.Fatal("never turned on")
	}
	// Now draw 50mW, far above harvest: must brown out.
	for i := 0; i < 200000; i++ {
		rep := step(s, tm, 50e-3, dt)
		tm += dt
		if rep.State == pmic.Off {
			if rep.Voltage > s.Spec().PMIC.UOff+0.05 {
				t.Fatalf("turned off at voltage %v, want <= ~U_off", rep.Voltage)
			}
			return
		}
	}
	t.Fatal("never browned out under 50mW load")
}

func TestChargeLatencyMatchesStepSim(t *testing.T) {
	// The Eq.-3-style closed form and the step simulator must agree on
	// charge time within a few percent.
	s := solarSub(t, 8, 1e-3, solar.Bright())
	closed := s.ChargeLatency()

	s2 := solarSub(t, 8, 1e-3, solar.Bright())
	s2.Cap.SetVoltage(s2.Spec().PMIC.UOff) // per-cycle charge starts at U_off
	var tm units.Seconds
	const dt = 1e-3
	for i := 0; i < 10_000_000; i++ {
		rep := step(s2, tm, 0, dt)
		tm += dt
		if rep.State == pmic.On {
			break
		}
	}
	if math.IsInf(float64(closed), 1) {
		t.Fatalf("closed form says never-on but sim turned on at %v", tm)
	}
	if !units.ApproxEqual(float64(tm), float64(closed), 0.05) {
		t.Fatalf("step sim charge %v vs closed form %v", tm, closed)
	}
}

func TestChargeLatencyDarkSlower(t *testing.T) {
	b := solarSub(t, 8, 100e-6, solar.Bright())
	d := solarSub(t, 8, 100e-6, solar.Dark())
	if b.ChargeLatency() >= d.ChargeLatency() {
		t.Fatal("dark environment must charge slower")
	}
}

func TestAvailablePerCycleMatchesEq3(t *testing.T) {
	s := solarSub(t, 6, 100e-6, solar.Bright())
	spec := s.Spec()
	// Recompute Eq. 3 by hand: pEh = HarvestToCap(6mW),
	// store=½·1e-4·(9−3.24), leak=k·C·U_on².
	pEh := 6e-3*spec.PMIC.HarvestEff - float64(spec.PMIC.Quiescent)
	store := 0.5 * 1e-4 * (9 - 3.24)
	leak := spec.Kcap * 1e-4 * 9
	T := 2.0
	want := (store + T*(pEh-leak)) * spec.PMIC.LoadEff
	got := s.AvailablePerCycle(units.Seconds(T))
	if !units.ApproxEqual(float64(got), want, 1e-9) {
		t.Fatalf("AvailablePerCycle = %v, want %v", got, want)
	}
}

func TestAvailablePerCycleClampsNegative(t *testing.T) {
	// Giant capacitor, dark environment, long execution: leakage beats
	// harvest and the closed form goes negative; must clamp to 0.
	s := solarSub(t, 1, 10e-3, solar.Dark())
	if got := s.AvailablePerCycle(1000); got != 0 {
		t.Fatalf("expected 0 for infeasible cycle, got %v", got)
	}
}

func TestResetReturnsToInitialState(t *testing.T) {
	s := solarSub(t, 8, 100e-6, solar.Bright())
	for i := 0; i < 1000; i++ {
		step(s, units.Seconds(i)*1e-3, 0, 1e-3)
	}
	s.Reset()
	if s.Cap.Voltage() != 0 {
		t.Fatal("capacitor should be discharged")
	}
	if s.Ctrl.State() != pmic.Off {
		t.Fatal("controller should be Off")
	}
}

func TestStepEnergyAccounting(t *testing.T) {
	// Property: Harvested == Charged + Spilled + ConversionLoss over any
	// single step (while the load path is separately accounted).
	f := func(areaSel, capSel, vSel uint8) bool {
		areas := []units.AreaCM2{1, 4, 8, 16, 30}
		caps := []units.Capacitance{1e-6, 100e-6, 1e-3, 10e-3}
		s, err := NewSolar(Spec{
			PanelArea: areas[int(areaSel)%len(areas)],
			Cap:       caps[int(capSel)%len(caps)],
		}, solar.Bright())
		if err != nil {
			return false
		}
		s.Cap.SetVoltage(units.Voltage(float64(vSel) / 255 * 5))
		rep := step(s, 0, 5e-3, 0.01)
		lhs := float64(rep.Harvested)
		rhs := float64(rep.Charged) + float64(rep.Spilled) + float64(rep.ConversionLoss)
		return units.ApproxEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadNotDrawnWhileOff(t *testing.T) {
	s := solarSub(t, 8, 100e-6, solar.Bright())
	rep := step(s, 0, 10e-3, 1e-3)
	if rep.Delivered != 0 {
		t.Fatalf("load delivered %v while gate Off", rep.Delivered)
	}
}

// TestStepIntoZeroAlloc pins the per-step path of the literal
// simulator: filling a caller-owned report allocates nothing.
func TestStepIntoZeroAlloc(t *testing.T) {
	s := solarSub(t, 8, 100e-6, solar.Bright())
	var rep StepReport
	var tm units.Seconds
	allocs := testing.AllocsPerRun(1000, func() {
		s.StepInto(&rep, tm, 5e-3, 1e-3)
		tm += 1e-3
	})
	if allocs != 0 {
		t.Fatalf("StepInto allocates %v times per step", allocs)
	}
}

// fixedHarvester is a test double for the Harvester interface.
type fixedHarvester units.Power

func (f fixedHarvester) Power(units.Seconds) units.Power { return units.Power(f) }
func (f fixedHarvester) Describe() string                { return "fixed" }

func TestCustomHarvesterInterface(t *testing.T) {
	s, err := New(Spec{Cap: 100e-6}, fixedHarvester(5e-3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Harvester.Describe() != "fixed" {
		t.Fatal("custom harvester not wired through")
	}
	if got := s.HarvestPower(0); got <= 0 || got >= 5e-3 {
		t.Fatalf("net harvest %v should be positive and below raw 5mW", got)
	}
}

func TestCycleBudget(t *testing.T) {
	// Heavy load on a small cap: finite budget roughly load × duration.
	s := solarSub(t, 8, 100e-6, solar.Bright())
	load := units.Power(9e-3)
	budget, dur := s.CycleBudget(load)
	if math.IsInf(float64(budget), 1) {
		t.Fatal("9mW load on 8cm² should drain the capacitor")
	}
	if budget <= 0 || dur <= 0 {
		t.Fatalf("budget %v, duration %v", budget, dur)
	}
	if !units.ApproxEqual(float64(budget), float64(load)*float64(dur), 1e-9) {
		t.Fatalf("budget %v != load×duration %v", budget, units.MulPT(load, dur))
	}
	// A tiny load that harvest covers: infinite budget.
	infBudget, infDur := s.CycleBudget(1e-6)
	if !math.IsInf(float64(infBudget), 1) || !math.IsInf(float64(infDur), 1) {
		t.Fatalf("1uW load should be sustained forever, got %v/%v", infBudget, infDur)
	}
	// Budget grows with capacitor size at the same load.
	big := solarSub(t, 8, 1e-3, solar.Bright())
	bigBudget, _ := big.CycleBudget(load)
	if bigBudget <= budget {
		t.Fatalf("1mF budget %v should exceed 100uF budget %v", bigBudget, budget)
	}
	// Budget shrinks as load grows.
	b2, _ := s.CycleBudget(20e-3)
	if b2 >= budget {
		t.Fatalf("heavier load should get a smaller budget: %v vs %v", b2, budget)
	}
}

func TestStorageTechSelection(t *testing.T) {
	// Ceramic at 47uF: lower leakage coefficient flows through.
	ce, err := NewSolar(Spec{PanelArea: 8, Cap: 47e-6, Storage: storage.Ceramic}, solar.Bright())
	if err != nil {
		t.Fatal(err)
	}
	el, err := NewSolar(Spec{PanelArea: 8, Cap: 47e-6}, solar.Bright())
	if err != nil {
		t.Fatal(err)
	}
	if ce.Spec().Kcap >= el.Spec().Kcap {
		t.Fatalf("ceramic kcap %v should be below electrolytic %v", ce.Spec().Kcap, el.Spec().Kcap)
	}
	// Out-of-range per technology is rejected.
	if _, err := NewSolar(Spec{PanelArea: 8, Cap: 1e-3, Storage: storage.Ceramic}, solar.Bright()); err == nil {
		t.Fatal("1mF ceramic should be rejected")
	}
	// Explicit Kcap overrides the technology coefficient.
	custom, err := NewSolar(Spec{PanelArea: 8, Cap: 47e-6, Storage: storage.Ceramic, Kcap: 0.5}, solar.Bright())
	if err != nil {
		t.Fatal(err)
	}
	if custom.Spec().Kcap != 0.5 {
		t.Fatalf("explicit kcap not honored: %v", custom.Spec().Kcap)
	}
}
