package msp430

import (
	"testing"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/units"
)

func TestHWValid(t *testing.T) {
	hw := Config{}.HW()
	if err := hw.Validate(); err != nil {
		t.Fatalf("platform HW invalid: %v", err)
	}
	if hw.NPE != 1 {
		t.Fatalf("MSP430 is single-PE, got %d", hw.NPE)
	}
	if hw.VMBytes != 8*units.KB {
		t.Fatalf("VM = %v, want 8KB", hw.VMBytes)
	}
}

func TestLEASpeedup(t *testing.T) {
	lea := Config{}.HW()
	cpu := Config{DisableLEA: true}.HW()
	if cpu.TMAC <= lea.TMAC {
		t.Fatal("disabling the LEA must slow MACs down")
	}
	if cpu.EMAC <= lea.EMAC {
		t.Fatal("CPU-only MACs should cost more energy")
	}
}

func TestMNISTNearPublished(t *testing.T) {
	// Run MNIST-CNN through the cost model and compare against the
	// published Figure 2(a) row within 2x.
	hw := Config{}.HW()
	w := dnn.MNISTCNN()
	var totalT units.Seconds
	var totalE units.Energy
	for _, l := range w.Layers {
		_, c, err := dataflow.MinTileMapping(l, w.ElemBytes, dataflow.OS, hw)
		if err != nil {
			t.Fatalf("layer %s: %v", l.Name, err)
		}
		totalT += c.TDf
		totalE += c.EDf
	}
	// Add static energy for the run (part of the 7.5 mW operating point).
	totalE += dataflow.StaticEnergy(hw, totalT)
	pub := PublishedMNIST()
	ratioT := float64(totalT) / float64(pub.TimePerInput)
	ratioE := float64(totalE) / float64(pub.Energy)
	if ratioT < 0.5 || ratioT > 2 {
		t.Errorf("model time %v vs published %v (ratio %.2f)", totalT, pub.TimePerInput, ratioT)
	}
	if ratioE < 0.5 || ratioE > 2 {
		t.Errorf("model energy %v vs published %v (ratio %.2f)", totalE, pub.Energy, ratioE)
	}
}

func TestActivePowerNearPublished(t *testing.T) {
	p := Config{}.ActivePower()
	if p < 4e-3 || p > 15e-3 {
		t.Fatalf("active power %v implausible vs published 7.5mW", p)
	}
}

func TestTableIVWorkloadsMappable(t *testing.T) {
	// All four existing-AuT workloads must have a feasible mapping for
	// every layer on the stock platform (the premise of Table IV).
	hw := Config{}.HW()
	for _, w := range dnn.ExistingAuT() {
		for _, l := range w.Layers {
			if _, _, err := dataflow.MinTileMapping(l, w.ElemBytes, dataflow.OS, hw); err != nil {
				t.Errorf("%s/%s: %v", w.Name, l.Name, err)
			}
		}
	}
}

func TestEyerissGapMatchesFig2a(t *testing.T) {
	// Figure 2(a)'s point: the MSP430 is orders of magnitude slower per
	// op than a dedicated array. Effective MOPS here ≈ 1.1; Eyeriss
	// ≈ 23000 per the published rows.
	mspOpsPerSec := PublishedMNIST().MOPs * 2 / float64(PublishedMNIST().TimePerInput)
	if mspOpsPerSec > 10 {
		t.Fatalf("MSP430 effective MOPS = %.1f, expected ~2", mspOpsPerSec)
	}
}
