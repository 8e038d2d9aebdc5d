package solar

import (
	"math"
	"testing"
	"testing/quick"

	"chrysalis/internal/units"
)

func TestConstantEnvironment(t *testing.T) {
	b := Bright()
	if b.Keh(0) != KehBright || b.Keh(1e6) != KehBright {
		t.Fatal("bright environment should be time-invariant")
	}
	if b.Name() != "bright" {
		t.Fatalf("Name = %q", b.Name())
	}
	d := Dark()
	if d.Keh(0) >= b.Keh(0) {
		t.Fatal("dark must harvest less than bright")
	}
	anon := Constant{K: 5e-4}
	if anon.Name() == "" {
		t.Fatal("anonymous constant should synthesize a name")
	}
}

func TestNewPanelBounds(t *testing.T) {
	if _, err := NewPanel(0.5); err == nil {
		t.Error("area below 1cm² should be rejected")
	}
	if _, err := NewPanel(31); err == nil {
		t.Error("area above 30cm² should be rejected")
	}
	p, err := NewPanel(8)
	if err != nil {
		t.Fatalf("NewPanel(8): %v", err)
	}
	if p.Area != 8 {
		t.Fatalf("area = %v", p.Area)
	}
}

func TestPanelPowerEq1(t *testing.T) {
	// Paper Eq. 1: P_eh = A_eh * k_eh. 6 cm² bright => 6 mW, the iNAS
	// reference operating point from Fig. 7.
	p, _ := NewPanel(6)
	got := p.Power(Bright(), 0)
	if !units.ApproxEqual(float64(got), 6e-3, 1e-12) {
		t.Fatalf("P_eh = %v, want 6mW", got)
	}
}

func TestHarvestEnergyConstant(t *testing.T) {
	p, _ := NewPanel(10)
	e := harvestEnergy(p, Bright(), 0, 2)
	want := 2 * 10 * float64(KehBright)
	if !units.ApproxEqual(float64(e), want, 1e-12) {
		t.Fatalf("harvest = %v, want %v", e, want)
	}
}

func TestDiurnalShape(t *testing.T) {
	d, err := NewDiurnal(KehBright, 6*3600, 18*3600)
	if err != nil {
		t.Fatal(err)
	}
	if d.Keh(0) != 0 {
		t.Error("night before sunrise should be 0")
	}
	if d.Keh(20*3600) != 0 {
		t.Error("night after sunset should be 0")
	}
	noon := d.Keh(12 * 3600)
	if !units.ApproxEqual(float64(noon), float64(KehBright), 1e-9) {
		t.Errorf("noon = %v, want peak %v", noon, KehBright)
	}
	morning := d.Keh(8 * 3600)
	if morning <= 0 || morning >= noon {
		t.Errorf("morning %v should be between 0 and noon %v", morning, noon)
	}
	// Symmetry about noon.
	if !units.ApproxEqual(float64(d.Keh(9*3600)), float64(d.Keh(15*3600)), 1e-9) {
		t.Error("diurnal profile should be symmetric about noon")
	}
}

func TestNewDiurnalValidation(t *testing.T) {
	if _, err := NewDiurnal(0, 0, 10); err == nil {
		t.Error("zero peak should be rejected")
	}
	if _, err := NewDiurnal(1e-3, 10, 10); err == nil {
		t.Error("sunset == sunrise should be rejected")
	}
	if _, err := NewDiurnal(1e-3, 20, 10); err == nil {
		t.Error("sunset before sunrise should be rejected")
	}
}

func TestHarvestMonotonicInArea(t *testing.T) {
	// Property: a bigger panel never harvests less (paper's size/perf
	// tradeoff direction).
	f := func(a, b uint8) bool {
		areaA := units.AreaCM2(float64(a%29) + 1)
		areaB := units.AreaCM2(float64(b%29) + 1)
		pa, _ := NewPanel(areaA)
		pb, _ := NewPanel(areaB)
		ea := harvestEnergy(pa, Bright(), 0, 10)
		eb := harvestEnergy(pb, Bright(), 0, 10)
		if areaA <= areaB {
			return ea <= eb+1e-18
		}
		return eb <= ea+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHarvestMidpointAccuracy(t *testing.T) {
	// Integrating a diurnal half-sine across the whole day with small
	// steps should approach the analytic integral peak*(2/pi)*daylen.
	d, _ := NewDiurnal(KehBright, 0, 12*3600)
	p, _ := NewPanel(1)
	var sum units.Energy
	const dt = 60
	for t0 := units.Seconds(0); t0 < 12*3600; t0 += dt {
		sum += harvestEnergy(p, d, t0, dt)
	}
	analytic := float64(KehBright) * (2 / math.Pi) * 12 * 3600
	if !units.ApproxEqual(float64(sum), analytic, 1e-4) {
		t.Fatalf("integrated %v, analytic %v", sum, analytic)
	}
}

// harvestEnergy integrates the panel output over [t0, t0+dt] by the
// midpoint rule, which is exact for constant environments and
// second-order accurate for smooth profiles.
func harvestEnergy(p Panel, env Environment, t0, dt units.Seconds) units.Energy {
	return units.MulPT(p.Power(env, t0+dt/2), dt)
}
