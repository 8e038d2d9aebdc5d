// Package accel describes the reconfigurable DNN accelerators of the
// paper's "future AuT" setup (Table V): a TPU-style systolic array and
// an Eyeriss-style row-stationary array, each parameterized by PE count
// (1–168) and per-PE cache size (128 B – 2 KB). The describer produces
// the dataflow.HW constant set consumed by the cost model, with
// per-architecture technology constants calibrated against the Eyeriss
// V1 figures the paper quotes in Figure 2(a) (AlexNet: 115.3 ms, 278 mW,
// 32.05 mJ).
package accel

import (
	"fmt"
	"math"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/units"
)

// Arch selects the accelerator family.
type Arch int

const (
	// TPU is a systolic weight-stationary array (Edge-TPU class).
	TPU Arch = iota
	// Eyeriss is a row-stationary array (Eyeriss V1 class).
	Eyeriss
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case TPU:
		return "tpu"
	case Eyeriss:
		return "eyeriss"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// Arches lists the Table V architecture choices.
func Arches() []Arch { return []Arch{TPU, Eyeriss} }

// ParseArch converts a name to an Arch.
func ParseArch(s string) (Arch, error) {
	switch s {
	case "tpu":
		return TPU, nil
	case "eyeriss":
		return Eyeriss, nil
	default:
		return 0, fmt.Errorf("accel: unknown architecture %q (want tpu or eyeriss)", s)
	}
}

// Design-space bounds from Table V.
const (
	MinPE = 1
	MaxPE = 168

	MinCacheBytes units.Bytes = 128
	MaxCacheBytes units.Bytes = 2 * units.KB
)

// tech holds per-architecture technology constants.
type tech struct {
	emac      units.Energy  // energy per MAC
	evm       units.Energy  // VM (global buffer) access energy per byte
	envmR     units.Energy  // NVM read energy per byte
	envmW     units.Energy  // NVM write energy per byte
	tmac      units.Seconds // effective time per MAC per PE
	sharedVM  units.Bytes   // global buffer independent of array size
	perPEVM   units.Bytes   // buffer contributed per PE beyond its cache
	pmem      units.Power   // static power per VM byte
	pidle     units.Power   // controller idle power
	perPEIdle units.Power   // idle/leakage power per PE
	nvmBW     float64       // NVM bytes/second
	native    dataflow.Dataflow
	// penalty multiplies TMAC and EMAC when running a non-native
	// dataflow on this array.
	penalty float64
}

// Technology constants. Eyeriss values back out of the published V1
// numbers (Fig. 2a): 115.3 ms on AlexNet with 168 PEs gives an
// effective 17 ns per MAC per PE; 32 mJ total implies ~28 pJ/MAC
// all-in, split here between compute, buffer and NVM traffic. The TPU
// column is a higher-clock, weight-stationary systolic design point.
var techTable = map[Arch]tech{
	TPU: {
		emac:      8e-12,
		evm:       22e-12,
		envmR:     80e-12,
		envmW:     160e-12,
		tmac:      12e-9,
		sharedVM:  16 * units.KB,
		perPEVM:   768,
		pmem:      100e-12,
		pidle:     50e-6,
		perPEIdle: 3e-6,
		nvmBW:     500e6,
		native:    dataflow.WS,
		penalty:   1.35,
	},
	Eyeriss: {
		emac:      16e-12,
		evm:       25e-12,
		envmR:     100e-12,
		envmW:     200e-12,
		tmac:      17e-9,
		sharedVM:  16 * units.KB,
		perPEVM:   768,
		pmem:      100e-12,
		pidle:     50e-6,
		perPEIdle: 3e-6,
		nvmBW:     300e6,
		native:    dataflow.OS,
		penalty:   1.25,
	},
}

// Config is one accelerator design point in the Table V space.
type Config struct {
	Arch       Arch
	NPE        int
	CacheBytes units.Bytes
}

// Validate checks the Table V bounds.
func (c Config) Validate() error {
	if _, ok := techTable[c.Arch]; !ok {
		return fmt.Errorf("accel: unknown architecture %v", c.Arch)
	}
	if c.NPE < MinPE || c.NPE > MaxPE {
		return fmt.Errorf("accel: PE count %d outside design space [%d, %d]", c.NPE, MinPE, MaxPE)
	}
	if c.CacheBytes < MinCacheBytes || c.CacheBytes > MaxCacheBytes {
		return fmt.Errorf("accel: PE cache %v outside design space [%v, %v]",
			c.CacheBytes, MinCacheBytes, MaxCacheBytes)
	}
	return nil
}

// NativeDataflow returns the dataflow the array was designed around.
func (c Config) NativeDataflow() dataflow.Dataflow { return techTable[c.Arch].native }

// HW materializes the dataflow cost-model constants for this design
// point when running dataflow df. Running a non-native dataflow incurs
// the architecture's efficiency penalty on both time and energy,
// reflecting mismatch between the NoC/PE design and the schedule.
func (c Config) HW(df dataflow.Dataflow) (dataflow.HW, error) {
	if err := c.Validate(); err != nil {
		return dataflow.HW{}, err
	}
	t := techTable[c.Arch]
	mult := 1.0
	if df != t.native {
		mult = t.penalty
	}
	vm := t.sharedVM + units.Bytes(float64(c.CacheBytes+t.perPEVM)*float64(c.NPE))
	return dataflow.HW{
		NPE:              c.NPE,
		CacheBytes:       c.CacheBytes,
		VMBytes:          vm,
		EMAC:             units.Energy(float64(t.emac) * mult),
		EVMPerByte:       t.evm,
		ENVMReadPerByte:  t.envmR,
		ENVMWritePerByte: t.envmW,
		TMAC:             units.Seconds(float64(t.tmac) * mult),
		NVMBytesPerSec:   t.nvmBW,
		PMemPerByte:      t.pmem,
		PIdle:            t.pidle + units.Power(float64(t.perPEIdle)*float64(c.NPE)),
		StreamReuse:      c.StreamReuse(),
	}, nil
}

// StreamReuse returns the array-level spatial-reuse factor of this
// design point: larger arrays multicast operands to more PEs, and
// larger PE caches keep operands resident for more MACs. Calibrated so
// the Eyeriss V1 point (168 PEs, 512 B) reuses each streamed byte ~12x.
func (c Config) StreamReuse() float64 {
	r := math.Sqrt(float64(c.NPE)*float64(c.CacheBytes)) / 24
	if r < 1 {
		return 1
	}
	return r
}

// EyerissV1 returns the published full-chip Eyeriss V1 reference design
// point used in Figure 2(a): 168 PEs with 512-B PE scratchpads.
func EyerissV1() Config {
	return Config{Arch: Eyeriss, NPE: 168, CacheBytes: 512}
}

// Fig2aEyeriss holds the published Eyeriss V1 row of Figure 2(a),
// used by the experiment harness to compare against the model output.
type Fig2aRow struct {
	TimePerInput units.Seconds
	Power        units.Power
	Energy       units.Energy
	MOPs         float64
}

// PublishedEyerissAlexNet is Figure 2(a)'s Eyeriss V1 column.
func PublishedEyerissAlexNet() Fig2aRow {
	return Fig2aRow{
		TimePerInput: 115.3e-3,
		Power:        278e-3,
		Energy:       32.05e-3,
		MOPs:         2663,
	}
}
