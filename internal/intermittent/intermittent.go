// Package intermittent models checkpointed intermittent execution — the
// paper's InterTempMap semantics (Sec. III-B.2): a layer is divided into
// N_tile tiles; after each tile the volatile state is persisted to NVM
// ("save"), and after a power interruption it is restored ("resume").
// Equation 5 charges each tile (1 + r_exc)·N_ckpt·(e_r + e_w) of
// checkpoint energy, where r_exc is the scenario's energy-exception
// rate; Equations 8–9 bound the minimum tile count so that one tile
// (plus its checkpoint) fits the energy available in one cycle.
package intermittent

import (
	"errors"
	"fmt"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/units"
)

// DefaultExceptionRate is the paper's static r_exc simplification: the
// probability that a tile is interrupted and must be re-executed.
const DefaultExceptionRate = 0.05

// PlanModelVersion identifies the current generation of the
// intermittent planning model (Eq. 5/8–9: checkpoint charging, the
// feasibility scan and the rung reduction). Bump it whenever a change
// alters the rungs BuildLadder computes for an existing input —
// process-lifetime caches key ladders on it so entries built under an
// older model are invalidated instead of silently served.
const PlanModelVersion = 1

// SaveEnergy returns the energy to persist b bytes of volatile state.
func SaveEnergy(hw dataflow.HW, b units.Bytes) units.Energy { return saveEnergy(&hw, b) }

// ResumeEnergy returns the energy to restore b bytes from NVM.
func ResumeEnergy(hw dataflow.HW, b units.Bytes) units.Energy { return resumeEnergy(&hw, b) }

// The pointer forms below are the single definitions of the checkpoint
// costs; the exported wrappers above and the rung kernel share them.

func saveEnergy(hw *dataflow.HW, b units.Bytes) units.Energy {
	return units.Energy(float64(hw.ENVMWritePerByte) * float64(b))
}

func resumeEnergy(hw *dataflow.HW, b units.Bytes) units.Energy {
	return units.Energy(float64(hw.ENVMReadPerByte) * float64(b))
}

// checkpointEnergy is the paper's per-checkpoint cost N_ckpt·(e_r+e_w):
// one save plus the matching resume.
func checkpointEnergy(hw *dataflow.HW, b units.Bytes) units.Energy {
	return saveEnergy(hw, b) + resumeEnergy(hw, b)
}

// checkpointTime returns the time to stream b bytes to or from NVM.
// Unbounded-bandwidth hardware checkpoints "instantly" (the energy cost
// still applies).
func checkpointTime(hw *dataflow.HW, b units.Bytes) units.Seconds {
	if hw.NVMBytesPerSec <= 0 {
		return 0
	}
	return units.Seconds(float64(b) / hw.NVMBytesPerSec)
}

// Plan is the intermittent execution plan for one layer: the dataflow
// cost plus checkpoint accounting per Eq. 4–5.
type Plan struct {
	Layer     dnn.Layer
	Cost      dataflow.Cost
	Rexc      float64
	CkptBytes units.Bytes

	// TileEnergy is the full per-cycle budget a tile needs: compute and
	// data movement, static energy during the tile, and the expected
	// checkpoint cost (1+r_exc)·N_ckpt·(e_r+e_w).
	TileEnergy units.Energy
	// TileTime is the powered time per tile including the checkpoint
	// save and the amortized resume.
	TileTime units.Seconds

	// Energy is the layer's total E_all (Eq. 5).
	Energy units.Energy
	// Time is the layer's total powered execution time.
	Time units.Seconds
	// CkptEnergy is the checkpoint component of Energy, reported
	// separately for the Figure 8/9 breakdowns.
	CkptEnergy units.Energy
	// StaticEnergy is the T·N_mem·p_mem (+idle) component of Energy.
	StaticEnergy units.Energy
}

// NormalizeRexc applies the rexc conventions shared by every planner
// entry point: negative selects the default, >= 1 is invalid. Callers
// that assemble a Ladder header themselves (see RungFor) store the
// normalized rate.
func NormalizeRexc(rexc float64) (float64, error) {
	if rexc < 0 {
		return DefaultExceptionRate, nil
	}
	if rexc >= 1 {
		return 0, fmt.Errorf("intermittent: exception rate %g must be below 1", rexc)
	}
	return rexc, nil
}

// PlanLayer evaluates a layer under a mapping and adds intermittent
// checkpoint accounting. rexc < 0 selects DefaultExceptionRate.
func PlanLayer(l dnn.Layer, elemBytes int, m dataflow.Mapping, hw dataflow.HW, rexc float64) (Plan, error) {
	rexc, err := NormalizeRexc(rexc)
	if err != nil {
		return Plan{}, err
	}
	c, err := dataflow.Evaluate(l, elemBytes, m, hw)
	if err != nil {
		return Plan{}, err
	}
	var p Plan
	planFromCost(&l, &c, &hw, rexc, &p)
	return p, nil
}

// tileCost is the checkpoint accounting of Eq. 4–5 for one evaluated
// dataflow cost, reduced to the scalars a Plan and a Rung are built
// from. tileCostOf is the one place it is computed, so a ladder's rungs
// and the plans PlanNTileInto rematerializes cannot drift apart.
type tileCost struct {
	perCkpt    units.Energy // N_ckpt·(e_r+e_w): one save plus its resume
	n          float64      // effective tile count
	tileStatic units.Energy
	tileE      units.Energy
	tileT      units.Seconds
}

// tileCostOf computes c's checkpoint accounting. rexc must be normalized.
func tileCostOf(c *dataflow.Cost, hw *dataflow.HW, rexc float64) tileCost {
	// The checkpoint captures the tile's volatile working set (paper
	// Fig. 4 step ⑥: "all data in VM and the processing hardware").
	ckptB := c.TileWorkingSet
	perCkpt := checkpointEnergy(hw, ckptB)
	tileT := c.TileTime + units.Seconds(float64(checkpointTime(hw, ckptB))*(1+rexc))
	tileStatic := hw.StaticEnergy(tileT)
	return tileCost{
		perCkpt:    perCkpt,
		n:          float64(c.NTileEffective),
		tileStatic: tileStatic,
		tileE:      c.TileEnergy + tileStatic + units.Energy((1+rexc)*float64(perCkpt)),
		tileT:      tileT,
	}
}

// energy is the layer's total E_all (Eq. 5).
func (tc *tileCost) energy() units.Energy { return units.Energy(float64(tc.tileE) * tc.n) }

// power is the average draw during one tile, TileEnergy/TileTime.
func (tc *tileCost) power() units.Power { return units.DivET(tc.tileE, tc.tileT) }

// LayerSizes are the mapping-independent sizes of one layer that an
// energy floor reads: its input, weight and output bytes and its MACs,
// each as the cost model computes it.
type LayerSizes struct {
	InB, WB, OutB float64
	MACs          float64
}

// SizesOf returns l's sizes at elemBytes per element.
func SizesOf(l *dnn.Layer, elemBytes int) LayerSizes {
	eb := float64(elemBytes)
	return LayerSizes{
		InB:  float64(l.InputElems()) * eb,
		WB:   float64(l.WeightElems()) * eb,
		OutB: float64(l.OutputElems()) * eb,
		MACs: float64(l.MACs()),
	}
}

// Floor is a lower bound on the rung energies of one ladder that is
// linear in the tile count: the rung of count n has Energy ≥ A + B·n.
// B is never negative, so the floor never falls as n grows, and once it
// passes a bound every later rung of the ladder lies above it too.
type Floor struct{ A, B float64 }

// At returns the floor at tile count n.
func (f Floor) At(n int) units.Energy { return units.Energy(f.A + f.B*float64(n)) }

// floorMargin is the relative shading that keeps a floor below the
// rounded rung energies it bounds. The floor is a few dozen rounded
// operations away from exact, so 1e-9 of the magnitude of its terms
// leaves a margin of about a million rounding errors.
const floorMargin = 1e-9

// FloorRates are the energies a floor charges per MAC and per byte.
// They depend on the dataflow, the hardware, the element width and
// r_exc but not on the layer, so one value serves every layer of a
// dataflow context.
type FloorRates struct {
	df dataflow.Dataflow
	// perMAC is a MAC's own energy, its streamed VM bytes and its share
	// of the array's static energy; perCkptB is one checkpointed byte's
	// save, resume and static energy while it streams, times (1+r_exc).
	perMAC, perCkptB float64
	evm, er, ew      float64
}

// NewFloorRates prepares the floor rates of dataflow df on hw. rexc
// must be normalized and hw must pass the cost model's checks.
func NewFloorRates(df dataflow.Dataflow, hw *dataflow.HW, elemBytes int, rexc float64) FloorRates {
	fr := FloorRates{df: df, evm: float64(hw.EVMPerByte),
		er: float64(hw.ENVMReadPerByte), ew: float64(hw.ENVMWritePerByte)}
	k := 3.0 // streamed operand plus partial-sum read and write
	if df == dataflow.OS {
		k = 2
	}
	reuse := hw.StreamReuse
	if reuse < 1 {
		reuse = 1
	}
	staticW := float64(hw.PMemPerByte)*float64(hw.VMBytes) + float64(hw.PIdle)
	fr.perMAC = float64(hw.EMAC) + fr.evm*k*float64(elemBytes)/reuse + staticW*float64(hw.TMAC)/float64(hw.NPE)
	fr.perCkptB = fr.er + fr.ew
	if hw.NVMBytesPerSec > 0 {
		fr.perCkptB += staticW / hw.NVMBytesPerSec
	}
	fr.perCkptB *= 1 + rexc
	return fr
}

// Floor bounds from below the Energy of every rung, up to tile count
// maxN (the last candidate), of the ladder of s's layer under partition
// part and the rates' dataflow, hardware and r_exc. Energy is
// n·tileE(n), and the floor sums terms that hold for any tiling (see
// tileCostOf and dataflow.EvaluateInto):
//
//   - MAC energy, since n·⌊macs/n⌋ ≥ macs − n;
//   - VM traffic of at least outB + k·(macs − n)·eb/reuse, with k = 3
//     streamed bytes per MAC for WS and IS and 2 for OS, plus the
//     stationary operand fetched at least once per tile;
//   - NVM reads and writes;
//   - static energy over the compute time TMAC·(macs − n)/NPE and over
//     the checkpoint streaming time;
//   - checkpoints of the tiles' working sets.
//
// The terms linear in n are the per-tile re-reads: a ByChannel tile
// reads and checkpoints the whole input, a BySpatial tile reads every
// weight. Where those do not outweigh the −n slack of the MAC terms, the
// floor is flattened to its value at maxN.
func (fr *FloorRates) Floor(s *LayerSizes, part dataflow.Partition, maxN int) Floor {
	a := fr.perMAC*s.MACs + (fr.evm+fr.ew+fr.perCkptB)*s.OutB
	var b float64
	if part == dataflow.ByChannel {
		a += fr.er * s.WB
		b += (fr.er + fr.perCkptB) * s.InB
		switch fr.df {
		case dataflow.WS:
			a += fr.evm * s.WB
		case dataflow.IS:
			b += fr.evm * s.InB
		}
	} else {
		a += (fr.er + fr.perCkptB) * s.InB
		b += fr.er * s.WB
		switch fr.df {
		case dataflow.WS:
			b += fr.evm * s.WB
		case dataflow.IS:
			a += fr.evm * s.InB
		}
	}
	n := float64(maxN)
	shade := floorMargin * (a + (b+fr.perMAC)*n)
	if b -= fr.perMAC; b < 0 {
		a, b = a+b*n, 0
	}
	return Floor{A: a - shade, B: b}
}

// planFromCost writes the plan of an already-evaluated dataflow cost —
// the cost plus its checkpoint accounting — into dst. rexc must be
// normalized.
func planFromCost(l *dnn.Layer, c *dataflow.Cost, hw *dataflow.HW, rexc float64, dst *Plan) {
	tc := tileCostOf(c, hw, rexc)
	*dst = Plan{
		Layer:        *l,
		Cost:         *c,
		Rexc:         rexc,
		CkptBytes:    c.TileWorkingSet,
		TileEnergy:   tc.tileE,
		TileTime:     tc.tileT,
		Energy:       tc.energy(),
		Time:         units.Seconds(float64(tc.tileT) * tc.n),
		CkptEnergy:   units.Energy(tc.n * (1 + rexc) * float64(tc.perCkpt)),
		StaticEnergy: units.Energy(tc.n * float64(tc.tileStatic)),
	}
}

// BudgetFunc returns the energy one power cycle can deliver to a tile
// whose average power draw while executing is load. The budget depends
// on the draw because a hungrier tile drains the capacitor faster and
// gets a shorter powered phase (the T term of Eq. 3).
type BudgetFunc func(load units.Power) units.Energy

// FixedBudget adapts a constant per-cycle energy to a BudgetFunc. The
// product budgets each tile at its own draw; tests use a fixed budget
// to plan against a known energy.
func FixedBudget(e units.Energy) BudgetFunc {
	return func(units.Power) units.Energy { return e }
}

// ErrNoFeasibleTile reports that no candidate tile count fits one
// energy cycle — the Eq. 8 infeasibility condition. It is a shared
// sentinel so hot search loops can classify the failure without
// allocating a fresh error per probe.
var ErrNoFeasibleTile = errors.New("cannot fit any tile within one energy cycle (Eq. 8 infeasible)")

// errNilBudget is the shared nil-budget error.
var errNilBudget = errors.New("intermittent: nil budget function")

// noFeasibleTileError wraps ErrNoFeasibleTile with the layer name,
// preserving the historical message text.
func noFeasibleTileError(layer string) error {
	return fmt.Errorf("intermittent: layer %s %w", layer, ErrNoFeasibleTile)
}

// MinFeasibleTiles implements Eq. 8–9: the smallest tile count (over the
// candidate divisors of the partition dimension) whose per-tile energy
// fits the cycle budget at the tile's own power draw. More tiles mean
// smaller per-tile energy but more checkpoint overhead, so the smallest
// feasible count is also the cheapest.
//
// The plans do not depend on the budget, so a search that probes one
// (layer, dataflow, partition, hardware, rexc) tuple under many budgets
// builds that tuple's rungs once (RungFor) and scans them instead.
func MinFeasibleTiles(l dnn.Layer, elemBytes int, df dataflow.Dataflow, part dataflow.Partition,
	hw dataflow.HW, rexc float64, budget BudgetFunc) (Plan, error) {
	if budget == nil {
		return Plan{}, errNilBudget
	}
	rexc, err := NormalizeRexc(rexc)
	if err != nil {
		return Plan{}, err
	}
	if dataflow.Evaluable(elemBytes, df, part, &hw) {
		var c dataflow.Cost
		for _, n := range dataflow.CandidateNTiles(l, part) {
			m := dataflow.Mapping{Dataflow: df, Partition: part, NTile: n}
			if !dataflow.EvaluateInto(&l, elemBytes, m, &hw, &c) {
				continue // tile does not fit VM at this count
			}
			tc := tileCostOf(&c, &hw, rexc)
			if avail := budget(tc.power()); avail > 0 && tc.tileE <= avail {
				var p Plan
				planFromCost(&l, &c, &hw, rexc, &p)
				return p, nil
			}
		}
	}
	return Plan{}, noFeasibleTileError(l.Name)
}

// Rung is one step of a Ladder: a VM-feasible tile count reduced to
// the four scalars the budget scan and the energy comparison consume.
// The full Plan is deliberately NOT stored — a ladder covering the
// whole mapping space of a deep workload used to pin hundreds of
// ~400-byte plans per (layer, dataflow, partition) tuple, which
// dominated the search's allocation profile; a Rung is 32 bytes, and
// PlanNTileInto rematerializes the one winning plan on demand,
// bit-identical to the plan the build pass computed.
type Rung struct {
	// NTile is the requested tile count (a candidate divisor of the
	// partition dimension).
	NTile int
	// Power is the plan's average draw during one tile,
	// TileEnergy/TileTime, memoized for budget queries.
	Power units.Power
	// TileEnergy is the per-tile cycle budget requirement (Eq. 8 LHS).
	TileEnergy units.Energy
	// Energy is the layer's total E_all at this tile count (Eq. 5) —
	// the quantity inner searches minimize across rungs.
	Energy units.Energy
}

// Ladder is the precomputed feasibility ladder for one (layer,
// dataflow, partition, hardware, rexc) tuple: every VM-feasible
// candidate tile count, in ascending NTile order, reduced to slim
// Rungs, plus the inputs needed to rematerialize any rung's full Plan.
//
// The key invariant making ladders cacheable is that plans are
// budget-independent: Eq. 4–6 depend only on the layer, the mapping and
// the inference-side hardware constants, never on the energy subsystem.
// The cycle budget (panel area, capacitance, environment) only selects
// WHICH rung is chosen, the first whose tile energy fits the budget at
// its own power draw — so one ladder serves every energy-gene
// candidate the outer search proposes.
//
// Layer and HW point at storage the ladder shares with its builder's
// caller. Neither may be mutated while the ladder is in use. A ladder
// header with no Rungs is still useful: RungFor and PlanNTileInto read
// only the inputs, which is how a plan cache builds its rungs on demand
// instead of keeping one Ladder per tuple.
type Ladder struct {
	Layer     *dnn.Layer
	ElemBytes int
	Dataflow  dataflow.Dataflow
	Partition dataflow.Partition
	Rexc      float64
	// HW holds the cost constants the rungs were evaluated under, kept
	// so PlanNTileInto can re-run the cost model for a chosen rung.
	HW    *dataflow.HW
	Rungs []Rung
}

// BuildLadder evaluates the full sorted sequence of VM-feasible tile
// counts for a layer once, storing one slim Rung per count. rexc < 0
// selects DefaultExceptionRate; rexc >= 1 is rejected. It is
// buildLadderShared over the candidate tile counts of (l, part); the
// returned ladder points at its own copies of l and hw.
//
// BuildLadder is small enough to inline, so those copies live in the
// caller's frame unless the caller keeps the ladder beyond it: a caller
// that only inspects the rungs pays one allocation, the rung slice.
func BuildLadder(l dnn.Layer, elemBytes int, df dataflow.Dataflow, part dataflow.Partition,
	hw dataflow.HW, rexc float64) (Ladder, error) {
	return buildCandidates(&l, elemBytes, df, part, &hw, rexc)
}

// buildCandidates enumerates the candidate tile counts of (*l, part)
// into a stack buffer and builds their ladder. 128 counts cover every
// extent below 110,880 (the smallest with more divisors); longer lists
// spill to the heap.
func buildCandidates(l *dnn.Layer, elemBytes int, df dataflow.Dataflow, part dataflow.Partition,
	hw *dataflow.HW, rexc float64) (Ladder, error) {
	var buf [128]int
	return buildLadderShared(l, elemBytes, df, part, dataflow.AppendCandidateNTiles(buf[:0], *l, part), hw, rexc)
}

// buildLadderShared is the copy-free eager ladder build: it runs the
// rung kernel (RungFor) over every count in ntiles. ntiles must be the
// candidate tile counts of (*l, part), as dataflow.AppendCandidateNTiles
// lists them. The returned ladder points at *l and *hw (see Ladder) and
// retains no reference to ntiles.
//
// The input checks run once per ladder, not once per tile count: on an
// invalid element width, mapping or hardware every candidate would fail
// them, so the ladder has zero rungs (and a nil error), as it always
// had.
func buildLadderShared(l *dnn.Layer, elemBytes int, df dataflow.Dataflow,
	part dataflow.Partition, ntiles []int, hw *dataflow.HW, rexc float64) (Ladder, error) {
	rexc, err := NormalizeRexc(rexc)
	if err != nil {
		return Ladder{}, err
	}
	ld := Ladder{Layer: l, ElemBytes: elemBytes, Dataflow: df, Partition: part, Rexc: rexc, HW: hw}
	if !dataflow.Evaluable(elemBytes, df, part, hw) {
		return ld, nil
	}
	ld.Rungs = make([]Rung, 0, len(ntiles))
	var c dataflow.Cost
	for _, n := range ntiles {
		if r, ok := ld.RungFor(n, &c); ok {
			ld.Rungs = append(ld.Rungs, r)
		}
	}
	return ld, nil
}

// RungFor is the rung kernel every ladder, eager or built on demand,
// runs per candidate tile count: it evaluates count n under the
// ladder's inputs by dataflow.EvaluateInto into *c (scratch the caller
// reuses across counts) and reduces the cost to its Rung by tileCostOf
// — the same arithmetic PlanNTileInto runs, so every rung is
// bit-identical to its plan. ok is false when the tile does not fit VM
// at this count. The caller must have checked dataflow.Evaluable for
// the ladder's inputs, and ld.Rexc must be normalized (NormalizeRexc);
// ld.Rungs is neither read nor written.
func (ld *Ladder) RungFor(n int, c *dataflow.Cost) (Rung, bool) {
	m := dataflow.Mapping{Dataflow: ld.Dataflow, Partition: ld.Partition, NTile: n}
	if !dataflow.EvaluateInto(ld.Layer, ld.ElemBytes, m, ld.HW, c) {
		return Rung{}, false
	}
	tc := tileCostOf(c, ld.HW, ld.Rexc)
	return Rung{NTile: n, Power: tc.power(), TileEnergy: tc.tileE, Energy: tc.energy()}, true
}

// PlanNTileInto writes the full Plan of tile count n into caller-owned
// storage (a reusable evaluation arena), so hot search loops
// materialize winning plans with zero allocations. n must be a count
// RungFor accepted under the same inputs — a rung's NTile — so
// EvaluateInto cannot fail here. It reads only the ladder's inputs,
// never ld.Rungs, so a ladder header without rungs materializes plans
// by tile count.
func (ld *Ladder) PlanNTileInto(n int, dst *Plan) {
	m := dataflow.Mapping{Dataflow: ld.Dataflow, Partition: ld.Partition, NTile: n}
	var c dataflow.Cost
	dataflow.EvaluateInto(ld.Layer, ld.ElemBytes, m, ld.HW, &c)
	planFromCost(ld.Layer, &c, ld.HW, ld.Rexc, dst)
}

// MinFeasibleIndex returns the index of the first (smallest-NTile) rung
// whose tile energy fits the budget at its own power draw, scanning the
// precomputed ladder without allocating. ok is false when no rung fits
// (or the ladder is empty). It is the eager reference scan the
// intermittent and explore tests check the on-demand ladders against.
func (ld *Ladder) MinFeasibleIndex(budget BudgetFunc) (int, bool) {
	if budget == nil {
		return 0, false
	}
	for i := range ld.Rungs {
		r := &ld.Rungs[i]
		if avail := budget(r.Power); avail > 0 && r.TileEnergy <= avail {
			return i, true
		}
	}
	return 0, false
}

// PlanWorkload plans every layer of a workload with a fixed dataflow,
// choosing per-layer partitions and tile counts via MinFeasibleTiles.
// It returns the per-layer plans in network order.
func PlanWorkload(w dnn.Workload, df dataflow.Dataflow, hw dataflow.HW, rexc float64, budget BudgetFunc) ([]Plan, error) {
	plans := make([]Plan, 0, len(w.Layers))
	for _, l := range w.Layers {
		p, err := MinFeasibleTiles(l, w.ElemBytes, df, dataflow.ByChannel, hw, rexc, budget)
		if err != nil {
			// Fall back to the spatial partition before giving up.
			p, err = MinFeasibleTiles(l, w.ElemBytes, df, dataflow.BySpatial, hw, rexc, budget)
			if err != nil {
				return nil, fmt.Errorf("intermittent: workload %s: %w", w.Name, err)
			}
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// Totals aggregates a set of layer plans.
type Totals struct {
	Energy       units.Energy
	Time         units.Seconds
	CkptEnergy   units.Energy
	StaticEnergy units.Energy
	// NVMIO is the tile read/write component of Energy — the same
	// clamped share the step simulator books as Breakdown.NVMIO, so the
	// analytic and simulated breakdowns decompose identically.
	NVMIO units.Energy
	Tiles int
}

// Sum aggregates plans into workload totals.
func Sum(plans []Plan) Totals {
	var t Totals
	for i := range plans {
		t.add(&plans[i])
	}
	return t
}

// SumRefs aggregates plans referenced by pointer — the hot-path variant
// for searches that keep pointers into shared plan ladders instead of
// copying each Plan.
func SumRefs(plans []*Plan) Totals {
	var t Totals
	for _, p := range plans {
		t.add(p)
	}
	return t
}

func (t *Totals) add(p *Plan) {
	t.Energy += p.Energy
	t.Time += p.Time
	t.CkptEnergy += p.CkptEnergy
	t.StaticEnergy += p.StaticEnergy
	io := float64(p.Cost.TileNVMEnergy)
	if dyn := float64(p.Cost.TileEnergy); io > dyn {
		io = dyn
	}
	t.NVMIO += units.Energy(io * float64(p.Cost.NTileEffective))
	t.Tiles += p.Cost.NTileEffective
}
