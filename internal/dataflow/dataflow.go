// Package dataflow implements CHRYSALIS's intermittent mapping
// description and dataflow cost model — the substitute for MAESTRO's
// data-centric directives extended with the paper's InterTempMap
// directive (Sec. III-B.2, Fig. 4).
//
// A Mapping describes how one DNN layer is executed on the inference
// hardware: the dataflow taxonomy (weight/output/input stationary), how
// the layer is partitioned into checkpoint tiles (the InterTempMap
// dimension), and how many tiles there are. The cost model turns a
// (layer, mapping, hardware) triple into the quantities the paper's
// equations consume: E_df and T_df (Eq. 5–6), NVM/VM traffic, and the
// per-tile working set that sizes checkpoints.
//
// Traffic decomposes across two boundaries, mirroring MAESTRO's cluster
// levels:
//
//   - NVM ↔ VM: governed by the tile partitioning. Each tile reads its
//     inputs and weights from NVM once and writes its outputs back once
//     (paper Fig. 4 steps ①,⑤).
//   - VM ↔ PE: governed by the dataflow. The stationary operand is
//     fetched once per residency into the PE cache; the moving operands
//     stream once per MAC. Partial sums stay in PE registers for OS and
//     stream otherwise. Cache pressure degrades reuse proportionally.
package dataflow

import (
	"fmt"

	"chrysalis/internal/dnn"
	"chrysalis/internal/units"
)

// CostModelVersion identifies the current generation of the dataflow
// cost model (Eq. 4–6, the traffic decomposition and the cache-pressure
// reuse degradation). Bump it whenever a change alters any quantity
// Evaluate reports for an existing (layer, mapping, hardware) triple —
// process-lifetime caches key derived artifacts on it so entries built
// under an older model are invalidated instead of silently served.
const CostModelVersion = 1

// Dataflow is the paper's dataflow taxonomy (Sec. III-A inputs):
// weight stationary, output stationary, or input stationary.
type Dataflow int

const (
	// WS keeps weights resident in the PE cache.
	WS Dataflow = iota
	// OS keeps partial sums resident in PE registers.
	OS
	// IS keeps input activations resident in the PE cache.
	IS
)

// String implements fmt.Stringer.
func (d Dataflow) String() string {
	switch d {
	case WS:
		return "WS"
	case OS:
		return "OS"
	case IS:
		return "IS"
	default:
		return fmt.Sprintf("dataflow(%d)", int(d))
	}
}

// Dataflows lists all taxonomy members for search enumeration.
func Dataflows() []Dataflow { return []Dataflow{WS, OS, IS} }

// Partition selects the InterTempMap tiling dimension.
type Partition int

const (
	// ByChannel tiles the layer along output channels: every tile needs
	// the full input but only its slice of the weights.
	ByChannel Partition = iota
	// BySpatial tiles the layer along output rows: every tile needs all
	// weights but only its (halo-expanded) slice of the input.
	BySpatial
)

// String implements fmt.Stringer.
func (p Partition) String() string {
	if p == ByChannel {
		return "by-channel"
	}
	return "by-spatial"
}

// Mapping is the software half of the paper's design space for one
// layer: the checkpoint tiling and the dataflow.
type Mapping struct {
	Dataflow  Dataflow
	Partition Partition
	// NTile is the paper's N_tile: the number of InterTempMap tiles the
	// layer is split into. Power interruptions can only occur between
	// tiles; each tile must fit one energy cycle (Eq. 8).
	NTile int
}

// HW carries the inference-hardware constants the cost model needs.
// Accelerator and MCU describers (internal/accel, internal/msp430)
// construct values of this type; keeping it here avoids a dependency
// cycle between the describers and the cost model.
type HW struct {
	// NPE is the number of processing elements (paper N_PE).
	NPE int
	// CacheBytes is the per-PE cache capacity (Table V: 128 B – 2 KB).
	CacheBytes units.Bytes
	// VMBytes is the volatile working memory available for a tile
	// (paper N_mem is per-PE; VMBytes is the total VM).
	VMBytes units.Bytes

	// EMAC is the energy per multiply-accumulate.
	EMAC units.Energy
	// EVMPerByte is the energy per byte moved between VM and a PE.
	EVMPerByte units.Energy
	// ENVMReadPerByte / ENVMWritePerByte are the paper's e_r and e_w.
	ENVMReadPerByte  units.Energy
	ENVMWritePerByte units.Energy

	// TMAC is the time one PE takes for one MAC.
	TMAC units.Seconds
	// NVMBytesPerSec bounds NVM streaming bandwidth (0 = unbounded).
	NVMBytesPerSec float64

	// PMemPerByte is the paper's p_mem: static power per byte of VM.
	PMemPerByte units.Power
	// PIdle is the controller/accelerator idle power while powered.
	PIdle units.Power

	// StreamReuse is the array-level spatial-reuse factor: how many
	// MACs each byte streamed from VM feeds on average, thanks to
	// multicast across PEs and per-PE cache reuse. Values below 1 are
	// treated as 1 (a lone MAC consumes each operand byte once).
	StreamReuse float64
}

// streamReuseOf returns the effective reuse factor.
func streamReuseOf(hw *HW) float64 {
	if hw.StreamReuse < 1 {
		return 1
	}
	return hw.StreamReuse
}

// Validate checks HW invariants.
func (hw HW) Validate() error {
	if hw.NPE <= 0 {
		return fmt.Errorf("dataflow: NPE must be positive, got %d", hw.NPE)
	}
	if hw.CacheBytes <= 0 || hw.VMBytes <= 0 {
		return fmt.Errorf("dataflow: cache (%v) and VM (%v) must be positive", hw.CacheBytes, hw.VMBytes)
	}
	if hw.EMAC <= 0 || hw.TMAC <= 0 {
		return fmt.Errorf("dataflow: EMAC (%v) and TMAC (%v) must be positive", hw.EMAC, hw.TMAC)
	}
	if hw.EVMPerByte < 0 || hw.ENVMReadPerByte < 0 || hw.ENVMWritePerByte < 0 {
		return fmt.Errorf("dataflow: negative access energy")
	}
	if hw.PMemPerByte < 0 || hw.PIdle < 0 {
		return fmt.Errorf("dataflow: negative static power")
	}
	return nil
}

// Cost is the evaluated cost of one layer under one mapping.
type Cost struct {
	Layer   string
	Mapping Mapping

	// NTileEffective is the tile count after clamping to the partition
	// dimension's extent.
	NTileEffective int

	// Per-tile quantities (the paper's E_tile building blocks, Eq. 4).
	TileMACs       int64
	TileReadBytes  units.Bytes // NVM reads: inputs + weights (①②)
	TileWriteBytes units.Bytes // NVM writes: outputs (⑤)
	TileVMBytes    units.Bytes // VM↔PE streaming traffic (②③④)
	TileWorkingSet units.Bytes // VM occupancy; sizes the checkpoint
	TileEnergy     units.Energy
	// TileNVMEnergy is the NVM read/write component of TileEnergy
	// (e_r·(inputs+weights) + e_w·outputs), reported separately so the
	// simulator and the analytic evaluator split Infer vs NVM-IO from
	// the same decomposition.
	TileNVMEnergy units.Energy
	TileTime      units.Seconds

	// Layer totals.
	MACs       int64
	ReadBytes  units.Bytes
	WriteBytes units.Bytes
	VMBytes    units.Bytes
	// EDf is the paper's E_df: compute + data-movement energy for the
	// whole layer (excluding static and checkpoint energy, which the
	// simulator adds per Eq. 5).
	EDf units.Energy
	// TDf is the paper's T_df normalized per Eq. 6: the layer's powered
	// execution time on this hardware (already divided by N_PE).
	TDf units.Seconds
}

// Evaluate runs the cost model for a layer.
func Evaluate(l dnn.Layer, elemBytes int, m Mapping, hw HW) (c Cost, err error) {
	if err := hw.Validate(); err != nil {
		return Cost{}, err
	}
	if elemBytes <= 0 {
		return Cost{}, fmt.Errorf("dataflow: element bytes must be positive, got %d", elemBytes)
	}
	if m.NTile <= 0 {
		return Cost{}, fmt.Errorf("dataflow: NTile must be positive, got %d", m.NTile)
	}
	switch m.Dataflow {
	case WS, OS, IS:
	default:
		return Cost{}, fmt.Errorf("dataflow: unknown dataflow %d", int(m.Dataflow))
	}
	switch m.Partition {
	case ByChannel, BySpatial:
	default:
		return Cost{}, fmt.Errorf("dataflow: unknown partition %d", int(m.Partition))
	}
	if !EvaluateInto(&l, elemBytes, m, &hw, &c) {
		err = fmt.Errorf("dataflow: tile working set %s exceeds VM %v (layer %s, NTile %d)",
			c.TileWorkingSet.String(), hw.VMBytes, l.Name, c.NTileEffective)
		c = Cost{}
	}
	return c, err
}

// Evaluable reports whether every input check Evaluate makes, except
// the per-mapping NTile > 0, passes: positive element width, known
// dataflow and partition, and valid hardware. Loops that evaluate one
// (layer, dataflow, partition, hardware) tuple at many positive tile
// counts check it once and then call EvaluateInto per count.
func Evaluable(elemBytes int, df Dataflow, part Partition, hw *HW) bool {
	switch df {
	case WS, OS, IS:
	default:
		return false
	}
	switch part {
	case ByChannel, BySpatial:
	default:
		return false
	}
	return elemBytes > 0 && hw.Validate() == nil
}

// EvaluateInto is the validated cost-model core, writing into *c so hot
// loops can reuse one Cost and pass the layer and hardware by pointer
// instead of copying the sizeable structs per tile count. The caller
// must have checked Evaluable(elemBytes, m.Dataflow, m.Partition, hw)
// and m.NTile > 0. It reports false only for the one data-dependent
// failure — the tile working set exceeding VM — filling TileWorkingSet
// and NTileEffective so Evaluate can build its diagnostic without
// redoing the math. The success path is bit-identical to Evaluate.
func EvaluateInto(l *dnn.Layer, elemBytes int, m Mapping, hw *HW, c *Cost) bool {
	ext := partitionExtent(l, m.Partition)
	n := m.NTile
	if n > ext {
		n = ext
	}

	eb := float64(elemBytes)
	inB := float64(l.InputElems()) * eb
	wB := float64(l.WeightElems()) * eb
	outB := float64(l.OutputElems()) * eb
	macs := l.MACs()

	// --- NVM ↔ VM traffic, set by the tile partitioning. ---
	var tileIn, tileW float64
	tileOut := outB / float64(n)
	if m.Partition == ByChannel {
		tileIn = inB
		tileW = wB / float64(n)
	} else {
		tileIn = inB / float64(n) * haloFactor(l, n)
		if tileIn > inB {
			tileIn = inB
		}
		tileW = wB
	}
	tileMACs := macs / int64(n)
	if tileMACs < 1 {
		tileMACs = 1
	}

	// --- VM ↔ PE traffic, set by the dataflow. ---
	// Each MAC consumes one input element and one weight element and
	// updates one partial sum. The stationary operand is fetched only
	// once per cache residency; the others stream per MAC. Partial sums
	// held in registers (OS) are written once per output.
	// Spatial reuse: each streamed byte feeds streamReuse MACs.
	macB := float64(tileMACs) * eb / streamReuseOf(hw)
	var vmTile float64
	switch m.Dataflow {
	case WS:
		stationaryFetch := tileW * cachePenalty(tileW, hw)
		vmTile = stationaryFetch + macB /*inputs*/ + 2*macB /*psum rd+wr*/ + tileOut
	case OS:
		vmTile = macB /*inputs*/ + macB /*weights*/ + tileOut /*final psum*/
	case IS:
		stationaryFetch := tileIn * cachePenalty(tileIn, hw)
		vmTile = stationaryFetch + macB /*weights*/ + 2*macB /*psum rd+wr*/ + tileOut
	}

	// --- Working set: what VM must hold while a tile executes. ---
	// Activations (the tile's inputs and partial outputs) must be
	// VM-resident; weights stream from NVM through the PE caches
	// (FRAM and accelerator weight FIFOs are read-in-place), so they
	// never occupy VM and never need checkpointing.
	workingSet := tileIn + tileOut
	if vmCap := float64(hw.VMBytes); workingSet > vmCap {
		// The tile does not fit VM; the hardware would have to spill.
		// We surface this as an infeasible mapping so the search avoids it.
		*c = Cost{TileWorkingSet: units.Bytes(workingSet), NTileEffective: n}
		return false
	}

	// --- Energy (E_df components) ---
	// tileNVM repeats the two NVM terms of tileEnergy instead of being
	// folded into its sum so the total keeps its exact summation order.
	tileNVM := float64(hw.ENVMReadPerByte)*(tileIn+tileW) +
		float64(hw.ENVMWritePerByte)*tileOut
	tileEnergy := float64(hw.EMAC)*float64(tileMACs) +
		float64(hw.EVMPerByte)*vmTile +
		float64(hw.ENVMReadPerByte)*(tileIn+tileW) +
		float64(hw.ENVMWritePerByte)*tileOut

	// --- Time (T_df/N_PE per Eq. 6, bounded by NVM bandwidth) ---
	// The array cannot use more PEs than the tile exposes parallelism:
	// a 12-neuron dense tile keeps at most 12 PEs busy regardless of
	// array size (MAESTRO's utilization effect).
	effNPE := float64(hw.NPE)
	if parallel := tileOut / eb; parallel < effNPE && parallel >= 1 {
		effNPE = parallel
	}
	compute := float64(hw.TMAC) * float64(tileMACs) / effNPE
	tileTime := compute
	if hw.NVMBytesPerSec > 0 {
		stream := (tileIn + tileW + tileOut) / hw.NVMBytesPerSec
		if stream > tileTime {
			tileTime = stream
		}
	}

	// Every field is assigned one by one: a composite literal stored
	// through a pointer is built in a zeroed temporary and then copied,
	// which costs more than the arithmetic above.
	// TestEvaluateIntoOverwritesEveryField catches a field left out.
	c.Layer = l.Name
	c.Mapping = m
	c.NTileEffective = n
	c.TileMACs = tileMACs
	c.TileReadBytes = units.Bytes(tileIn + tileW)
	c.TileWriteBytes = units.Bytes(tileOut)
	c.TileVMBytes = units.Bytes(vmTile)
	c.TileWorkingSet = units.Bytes(workingSet)
	c.TileEnergy = units.Energy(tileEnergy)
	c.TileNVMEnergy = units.Energy(tileNVM)
	c.TileTime = units.Seconds(tileTime)
	c.MACs = macs
	c.ReadBytes = units.Bytes((tileIn + tileW) * float64(n))
	c.WriteBytes = units.Bytes(tileOut * float64(n))
	c.VMBytes = units.Bytes(vmTile * float64(n))
	c.EDf = units.Energy(tileEnergy * float64(n))
	c.TDf = units.Seconds(tileTime * float64(n))
	return true
}

// partitionExtent returns the extent of the dimension a partition tiles
// along, i.e. the maximum useful NTile.
func partitionExtent(l *dnn.Layer, p Partition) int {
	switch {
	case l.Kind == dnn.Dense:
		return l.OutC // both partitions tile output neurons
	case l.Kind == dnn.MatMul:
		if p == ByChannel {
			return l.N
		}
		return l.M
	case p == ByChannel:
		return l.OutC
	default:
		// Spatial tiling covers the whole output plane: tiles can be
		// whole rows or sub-row strips, down to single output pixels.
		return l.OutH * l.OutW
	}
}

// haloFactor estimates the input over-fetch of spatial tiling: adjacent
// tiles re-read (k − stride) boundary rows/columns. Coarse tilings pay
// a row-halo that grows as tiles shrink; once tiles drop below a full
// row the column halo compounds it, saturating at the k²/stride²
// overfetch of per-pixel tiling (the caller additionally caps the
// per-tile input at the full input).
func haloFactor(l *dnn.Layer, n int) float64 {
	if l.Kind == dnn.Dense || l.Kind == dnn.MatMul || n <= 1 {
		return 1
	}
	rowOverlap := float64(l.KH - l.Stride)
	colOverlap := float64(l.KW - l.Stride)
	rows := float64(l.OutH)
	if rows <= 1 { // 1-D layers tile along width only
		rows = float64(l.OutW)
		rowOverlap = colOverlap
		colOverlap = 0
	}
	f := 1.0
	nRows := float64(n)
	if nRows > rows {
		nRows = rows
	}
	if rowOverlap > 0 {
		rowsPerTile := rows / nRows
		f *= 1 + rowOverlap/(rowsPerTile*float64(l.Stride))
	}
	// Sub-row tiling splits columns too.
	if colsSplit := float64(n) / rows; colsSplit > 1 && colOverlap > 0 {
		cols := float64(l.OutW)
		if colsSplit > cols {
			colsSplit = cols
		}
		colsPerTile := cols / colsSplit
		f *= 1 + colOverlap/(colsPerTile*float64(l.Stride))
	}
	return f
}

// cachePenalty returns how many times the stationary operand must be
// (re)fetched given the per-PE cache capacity: 1 when the per-PE share
// fits, growing proportionally as it exceeds the cache.
func cachePenalty(stationaryBytes float64, hw *HW) float64 {
	perPE := stationaryBytes / float64(hw.NPE)
	cacheCap := float64(hw.CacheBytes)
	if perPE <= cacheCap {
		return 1
	}
	return perPE / cacheCap
}

// CandidateNTiles returns the useful tile counts for a layer/partition:
// the divisors of the partition extent (the paper's "factors of each
// dimension", Table IV), always including 1 and the extent itself.
func CandidateNTiles(l dnn.Layer, p Partition) []int {
	return AppendCandidateNTiles(nil, l, p)
}

// AppendCandidateNTiles appends the layer/partition's candidate tile
// counts to dst (ascending) and returns the extended slice, letting hot
// search loops reuse one buffer across layers. Divisors are enumerated
// in O(√extent): small divisors up to √extent directly, then their
// complements in descending small-divisor order.
func AppendCandidateNTiles(dst []int, l dnn.Layer, p Partition) []int {
	ext := partitionExtent(&l, p)
	start := len(dst)
	for d := 1; d*d <= ext; d++ {
		if ext%d == 0 {
			dst = append(dst, d)
		}
	}
	for i := len(dst) - 1; i >= start; i-- {
		if q := ext / dst[i]; q != dst[i] {
			dst = append(dst, q)
		}
	}
	return dst
}

// StaticEnergy returns the static-memory term of Eq. 5 for an execution
// of duration t: T · N_mem · p_mem (plus idle power when provided).
func StaticEnergy(hw HW, t units.Seconds) units.Energy {
	return hw.StaticEnergy(t)
}

// StaticEnergy is the package-level StaticEnergy read through a pointer,
// for hot loops that must not copy the HW struct per call.
func (hw *HW) StaticEnergy(t units.Seconds) units.Energy {
	return units.MulPT(hw.PMemPerByte, t)*units.Energy(float64(hw.VMBytes)) +
		units.MulPT(hw.PIdle, t)
}

// Directives renders the paper's Figure 4 mapping description for a
// layer: the data-centric directive list including the InterTempMap
// checkpoint-tile directive.
func Directives(l dnn.Layer, m Mapping) []string {
	dim := "C_out"
	if m.Partition == BySpatial {
		dim = "Y"
	}
	spatial := "C_out"
	if m.Dataflow == OS {
		spatial = "Y'"
	}
	return []string{
		fmt.Sprintf("InterTempMap(%d,%d) %s  // ckpt tile", m.NTile, m.NTile, dim),
		fmt.Sprintf("SpatialMap(1,1) %s", spatial),
		fmt.Sprintf("TemporalMap(%d,%d) K  // %s", l.KH, l.KH, m.Dataflow),
	}
}

// MinTileMapping returns the feasible mapping with the lowest layer
// energy for the given dataflow, scanning both partitions and taking the
// coarsest feasible tiling of each (coarser tilings always cost less in
// this model). It returns an error only when no tiling fits the
// hardware's VM at all.
func MinTileMapping(l dnn.Layer, elemBytes int, df Dataflow, hw HW) (Mapping, Cost, error) {
	var (
		best     Mapping
		bestCost Cost
		found    bool
	)
	for _, p := range []Partition{ByChannel, BySpatial} {
		for _, n := range CandidateNTiles(l, p) {
			m := Mapping{Dataflow: df, Partition: p, NTile: n}
			c, err := Evaluate(l, elemBytes, m, hw)
			if err != nil {
				continue
			}
			if !found || c.EDf < bestCost.EDf {
				best, bestCost, found = m, c, true
			}
			break // first feasible tiling per partition is its cheapest
		}
	}
	if !found {
		return Mapping{}, Cost{}, fmt.Errorf("dataflow: layer %s has no feasible mapping on this hardware", l.Name)
	}
	return best, bestCost, nil
}
