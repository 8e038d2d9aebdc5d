package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMulPT(t *testing.T) {
	if got := MulPT(2, 3); got != 6 {
		t.Fatalf("MulPT(2W, 3s) = %v, want 6J", got)
	}
	if got := MulPT(0, 100); got != 0 {
		t.Fatalf("MulPT(0, 100) = %v, want 0", got)
	}
}

func TestDivET(t *testing.T) {
	if got := DivET(6, 3); got != 2 {
		t.Fatalf("DivET(6J, 3s) = %v, want 2W", got)
	}
	if got := DivET(6, 0); got != 0 {
		t.Fatalf("DivET with zero time = %v, want 0", got)
	}
}

func TestCapacitorEnergy(t *testing.T) {
	// ½·1mF·(3²−1.8²) = 0.5·1e-3·(9−3.24) = 2.88 mJ
	got := CapacitorEnergy(1e-3, 3.0, 1.8)
	want := 2.88e-3
	if !ApproxEqual(float64(got), want, 1e-9) {
		t.Fatalf("CapacitorEnergy = %v, want %v", got, want)
	}
	// Discharge direction is negative.
	if got := CapacitorEnergy(1e-3, 1.8, 3.0); got >= 0 {
		t.Fatalf("CapacitorEnergy(hi<lo) = %v, want negative", got)
	}
}

func TestVoltageEnergyRoundTrip(t *testing.T) {
	f := func(cMicro, vRaw uint16) bool {
		c := Capacitance(float64(cMicro)+1) * 1e-6
		v := Voltage(float64(vRaw%500)/100 + 0.01) // 0.01..5.0 V
		e := EnergyAtVoltage(c, v)
		back := VoltageForEnergy(c, e)
		return ApproxEqual(float64(back), float64(v), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoltageForEnergyEdges(t *testing.T) {
	if got := VoltageForEnergy(1e-3, -1); got != 0 {
		t.Fatalf("negative energy => %v, want 0V", got)
	}
	if got := VoltageForEnergy(0, 1); got != 0 {
		t.Fatalf("zero capacitance => %v, want 0V", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-13, 1e-9) {
		t.Error("values within absolute epsilon should be equal")
	}
	if !ApproxEqual(100, 100.5, 0.01) {
		t.Error("0.5% apart should pass 1% tolerance")
	}
	if ApproxEqual(100, 102, 0.01) {
		t.Error("2% apart should fail 1% tolerance")
	}
}

func TestStringFormatting(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Energy(2.88e-3).String(), "2.88mJ"},
		{Energy(0).String(), "0J"},
		{Power(6e-3).String(), "6mW"},
		{Power(278e-3).String(), "278mW"},
		{Seconds(1.447).String(), "1.447s"},
		{Seconds(math.Inf(1)).String(), "inf"},
		{Capacitance(100e-6).String(), "100uF"},
		{Capacitance(10e-3).String(), "10mF"},
		{Voltage(3.3).String(), "3.3V"},
		{AreaCM2(8).String(), "8.00cm²"},
		{Bytes(8 * 1024).String(), "8.00KB"},
		{Bytes(512).String(), "512B"},
		{Bytes(2 * 1024 * 1024).String(), "2.00MB"},
		{Energy(1.5e-9).String(), "1.5nJ"},
		{Energy(3e-12).String(), "3pJ"},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %q, want %q", i, c.got, c.want)
		}
	}
}

func TestCapacitorEnergyProperty(t *testing.T) {
	// Splitting a discharge interval must conserve energy:
	// E(hi,lo) == E(hi,mid) + E(mid,lo).
	f := func(a, b, c uint8) bool {
		vs := []float64{float64(a)/51 + 0.1, float64(b)/51 + 0.1, float64(c)/51 + 0.1}
		hi, mid, lo := vs[0], vs[1], vs[2]
		if hi < mid {
			hi, mid = mid, hi
		}
		if mid < lo {
			mid, lo = lo, mid
		}
		if hi < mid {
			hi, mid = mid, hi
		}
		cap := Capacitance(470e-6)
		whole := CapacitorEnergy(cap, Voltage(hi), Voltage(lo))
		split := CapacitorEnergy(cap, Voltage(hi), Voltage(mid)) + CapacitorEnergy(cap, Voltage(mid), Voltage(lo))
		return ApproxEqual(float64(whole), float64(split), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
