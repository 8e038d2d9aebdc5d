// Package msp430 models the MSP430FR5994 LaunchPad platform that the
// paper's "existing AuT" experiments target (Table III, Table IV): a
// 16 MHz MCU with 8 KB of SRAM (VM), 256 KB of FRAM (NVM) and the
// low-energy accelerator (LEA) for vector operations. Energy and
// latency constants are calibrated against Figure 2(a)'s published row
// (MNIST-CNN: 1447 ms/input, 7.5 mW, 1.608 MOPs) and iNAS-style FRAM
// access costs.
package msp430

import (
	"chrysalis/internal/dataflow"
	"chrysalis/internal/units"
)

// SRAMBytes is the MSP430FR5994's on-chip SRAM, used as volatile
// working memory.
const SRAMBytes units.Bytes = 8 * units.KB

// Config selects platform options. The zero value is the stock
// LaunchPad with the LEA enabled.
type Config struct {
	// DisableLEA runs DNN kernels on the CPU alone; the LEA gives
	// roughly a 5x speedup on the vector kernels it accelerates.
	DisableLEA bool
}

// leaSpeedup is the effective acceleration the LEA provides on DNN
// kernels (vector MACs) relative to plain CPU execution.
const leaSpeedup = 5.0

// Platform constants calibrated to Figure 2(a): 1447 ms for ~0.80 GMACs
// × 10⁻³ gives ~1.8 µs per MAC with the LEA; 10.85 mJ per inference at
// 7.5 mW splits across compute, SRAM traffic, FRAM traffic and idle.
const (
	tmacLEA  units.Seconds = 1.8e-6
	emacLEA  units.Energy  = 9e-9
	evmByte  units.Energy  = 0.5e-9
	framRead units.Energy  = 1.5e-9
	framWrit units.Energy  = 3e-9
	framBW   float64       = 4e6 // bytes/second
	pmemByte units.Power   = 5e-9
	pIdle    units.Power   = 1.2e-3
)

// HW materializes the dataflow cost-model constants for the platform.
// The MSP430 is a single-PE device: the dataflow taxonomy degenerates
// (any dataflow is legal; OS matches how the LEA accumulates), and the
// per-PE "cache" is the LEA's 4 KB shared RAM window.
func (c Config) HW() dataflow.HW {
	tmac := tmacLEA
	emac := emacLEA
	if c.DisableLEA {
		tmac = units.Seconds(float64(tmacLEA) * leaSpeedup)
		// CPU MACs burn roughly the same energy per op scaled by the
		// longer active time at similar power.
		emac = units.Energy(float64(emacLEA) * leaSpeedup * 0.8)
	}
	return dataflow.HW{
		NPE:              1,
		CacheBytes:       4 * units.KB,
		VMBytes:          SRAMBytes,
		EMAC:             emac,
		EVMPerByte:       evmByte,
		ENVMReadPerByte:  framRead,
		ENVMWritePerByte: framWrit,
		TMAC:             tmac,
		NVMBytesPerSec:   framBW,
		PMemPerByte:      pmemByte,
		PIdle:            pIdle,
	}
}

// ActivePower is the board's draw while executing at full tilt: the
// published 7.5 mW operating point. The search budgets each tile at its
// own draw; tests plan against this fixed load.
func (c Config) ActivePower() units.Power {
	hw := c.HW()
	macRate := 1 / float64(hw.TMAC)
	dynamic := macRate * (float64(hw.EMAC) + 4*float64(hw.EVMPerByte))
	static := float64(hw.PMemPerByte)*float64(hw.VMBytes) + float64(hw.PIdle)
	return units.Power(dynamic + static)
}

// Fig2aRow is the published MSP430/HAWAII column of Figure 2(a).
type Fig2aRow struct {
	TimePerInput units.Seconds
	Power        units.Power
	Energy       units.Energy
	MOPs         float64
}

// PublishedMNIST is Figure 2(a)'s MSP430 column. (The figure's energy
// row is labeled µJ but is the product of the published power and time,
// i.e. millijoules.)
func PublishedMNIST() Fig2aRow {
	return Fig2aRow{
		TimePerInput: 1.447,
		Power:        7.5e-3,
		Energy:       10.85e-3,
		MOPs:         1.608,
	}
}
