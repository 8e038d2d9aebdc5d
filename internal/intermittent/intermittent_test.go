package intermittent

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/msp430"
	"chrysalis/internal/units"
)

func hwMSP() dataflow.HW { return msp430.Config{}.HW() }

func convLayer(t *testing.T) dnn.Layer {
	t.Helper()
	l, err := dnn.NewConv2D("c", 8, 12, 12, 16, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCheckpointEnergySymmetry(t *testing.T) {
	hw := hwMSP()
	b := units.Bytes(1024)
	save := SaveEnergy(hw, b)
	resume := ResumeEnergy(hw, b)
	if save <= 0 || resume <= 0 {
		t.Fatal("checkpoint costs must be positive")
	}
	if checkpointEnergy(&hw, b) != save+resume {
		t.Fatal("checkpoint = save + resume")
	}
	// FRAM writes cost more than reads.
	if save <= resume {
		t.Fatal("save (writes) should cost more than resume (reads)")
	}
}

func TestCheckpointTime(t *testing.T) {
	hw := hwMSP()
	got := checkpointTime(&hw, 4096)
	want := 4096.0 / hw.NVMBytesPerSec
	if !units.ApproxEqual(float64(got), want, 1e-12) {
		t.Fatalf("time = %v, want %v", got, want)
	}
	hw.NVMBytesPerSec = 0
	if checkpointTime(&hw, 4096) != 0 {
		t.Fatal("unbounded bandwidth checkpoints take no modeled time")
	}
}

func TestPlanLayerEquationFive(t *testing.T) {
	l := convLayer(t)
	hw := hwMSP()
	m := dataflow.Mapping{Dataflow: dataflow.OS, Partition: dataflow.ByChannel, NTile: 4}
	p, err := PlanLayer(l, 2, m, hw, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 5 checkpoint term: N_tile·(1+r_exc)·N_ckpt·(e_r+e_w).
	n := float64(p.Cost.NTileEffective)
	wantCkpt := n * 1.05 * float64(checkpointEnergy(&hw, p.CkptBytes))
	if !units.ApproxEqual(float64(p.CkptEnergy), wantCkpt, 1e-9) {
		t.Fatalf("ckpt energy %v, want %v", p.CkptEnergy, wantCkpt)
	}
	// Total = E_df + static + ckpt.
	want := float64(p.Cost.EDf) + float64(p.StaticEnergy) + float64(p.CkptEnergy)
	if !units.ApproxEqual(float64(p.Energy), want, 1e-9) {
		t.Fatalf("energy %v, want %v", p.Energy, want)
	}
	if p.Time <= p.Cost.TDf {
		t.Fatal("checkpointing must lengthen execution")
	}
}

func TestPlanLayerDefaultsAndValidation(t *testing.T) {
	l := convLayer(t)
	m := dataflow.Mapping{Dataflow: dataflow.OS, NTile: 2}
	p, err := PlanLayer(l, 2, m, hwMSP(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rexc != DefaultExceptionRate {
		t.Fatalf("rexc = %v, want default", p.Rexc)
	}
	if _, err := PlanLayer(l, 2, m, hwMSP(), 1.0); err == nil {
		t.Fatal("rexc >= 1 should be rejected")
	}
	if _, err := PlanLayer(l, 0, m, hwMSP(), 0.05); err == nil {
		t.Fatal("bad elem bytes should propagate")
	}
}

func TestHigherExceptionRateCostsMore(t *testing.T) {
	l := convLayer(t)
	m := dataflow.Mapping{Dataflow: dataflow.OS, NTile: 4}
	lo, err := PlanLayer(l, 2, m, hwMSP(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := PlanLayer(l, 2, m, hwMSP(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Energy <= lo.Energy {
		t.Fatal("higher exception rate must cost more energy")
	}
}

func TestMoreTilesMoreCheckpointEnergy(t *testing.T) {
	// The Figure 9 "small capacitor" premise: finer tiling inflates
	// checkpoint overhead.
	l := convLayer(t)
	var prev units.Energy
	for i, n := range []int{1, 2, 4, 8, 16} {
		m := dataflow.Mapping{Dataflow: dataflow.OS, NTile: n}
		p, err := PlanLayer(l, 2, m, hwMSP(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && p.CkptEnergy <= prev {
			t.Fatalf("NTile=%d: ckpt energy %v did not grow past %v", n, p.CkptEnergy, prev)
		}
		prev = p.CkptEnergy
	}
}

func TestMinFeasibleTilesPicksSmallest(t *testing.T) {
	l := convLayer(t)
	hw := hwMSP()
	// Generous budget: one tile should do.
	pBig, err := MinFeasibleTiles(l, 2, dataflow.OS, dataflow.ByChannel, hw, 0.05, FixedBudget(1 /*J*/))
	if err != nil {
		t.Fatal(err)
	}
	if pBig.Cost.NTileEffective != 1 {
		t.Fatalf("generous budget chose %d tiles, want 1", pBig.Cost.NTileEffective)
	}
	// Tight budget: needs more tiles.
	pTight, err := MinFeasibleTiles(l, 2, dataflow.OS, dataflow.ByChannel, hw, 0.05, FixedBudget(pBig.TileEnergy/3))
	if err != nil {
		t.Fatal(err)
	}
	if pTight.Cost.NTileEffective <= 1 {
		t.Fatal("tight budget should require more tiles")
	}
	if pTight.TileEnergy > pBig.TileEnergy/3 {
		t.Fatalf("chosen tile energy %v exceeds budget %v", pTight.TileEnergy, pBig.TileEnergy/3)
	}
}

func TestMinFeasibleTilesInfeasible(t *testing.T) {
	l := convLayer(t)
	_, err := MinFeasibleTiles(l, 2, dataflow.OS, dataflow.ByChannel, hwMSP(), 0.05, FixedBudget(1e-9))
	if err == nil || !strings.Contains(err.Error(), "Eq. 8") {
		t.Fatalf("expected Eq. 8 infeasibility, got %v", err)
	}
	if _, err := MinFeasibleTiles(l, 2, dataflow.OS, dataflow.ByChannel, hwMSP(), 0.05, nil); err == nil {
		t.Fatal("nil budget should fail fast")
	}
}

func TestPlanWorkloadAllTableIV(t *testing.T) {
	hw := hwMSP()
	// A 100uF cycle plus 6mW harvesting over ~1s delivers on the order
	// of millijoules; all Table IV workloads must be plannable.
	for _, w := range dnn.ExistingAuT() {
		plans, err := PlanWorkload(w, dataflow.OS, hw, 0.05, FixedBudget(3e-3))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if len(plans) != len(w.Layers) {
			t.Errorf("%s: %d plans for %d layers", w.Name, len(plans), len(w.Layers))
		}
		tot := Sum(plans)
		if tot.Energy <= 0 || tot.Time <= 0 || tot.Tiles < len(w.Layers) {
			t.Errorf("%s: degenerate totals %+v", w.Name, tot)
		}
		if tot.CkptEnergy <= 0 {
			t.Errorf("%s: checkpointing should cost energy", w.Name)
		}
	}
}

func TestPlanWorkloadImpossibleBudget(t *testing.T) {
	if _, err := PlanWorkload(dnn.CIFAR10(), dataflow.OS, hwMSP(), 0.05, FixedBudget(1e-12)); err == nil {
		t.Fatal("impossible budget should fail")
	}
}

func TestTileEnergyFitsBudgetProperty(t *testing.T) {
	// Property: whenever MinFeasibleTiles succeeds, the chosen per-tile
	// energy is within budget and the tile count is a candidate divisor.
	layers := dnn.CIFAR10().Layers
	f := func(li uint8, budgetSel uint8) bool {
		l := layers[int(li)%len(layers)]
		budget := units.Energy(float64(budgetSel)+1) * 0.2e-3
		p, err := MinFeasibleTiles(l, 2, dataflow.OS, dataflow.BySpatial, hwMSP(), 0.05, FixedBudget(budget))
		if err != nil {
			return true // infeasibility is legal
		}
		if p.TileEnergy > budget {
			return false
		}
		for _, n := range dataflow.CandidateNTiles(l, dataflow.BySpatial) {
			if n == p.Cost.NTileEffective {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// planAt rematerializes the full plan of rung i of an eager ladder.
func planAt(ld *Ladder, i int) Plan {
	var p Plan
	ld.PlanNTileInto(ld.Rungs[i].NTile, &p)
	return p
}

// minFeasible is the eager-ladder equivalent of MinFeasibleTiles: the
// plan of the first rung that fits the budget.
func minFeasible(ld *Ladder, budget BudgetFunc) (Plan, error) {
	if i, ok := ld.MinFeasibleIndex(budget); ok {
		return planAt(ld, i), nil
	}
	return Plan{}, noFeasibleTileError(ld.Layer.Name)
}

// TestLadderMatchesPerCallScan is the differential check backing the
// memoized evaluation engine: for every seed workload, dataflow,
// partition and a spread of budgets, scanning a precomputed Ladder must
// return exactly the plan (or exactly the error) the per-call
// MinFeasibleTiles scan computes. Both paths share planFromCost and
// iterate candidate tile counts in the same order, so the results are
// bit-identical, not just approximately equal.
func TestLadderMatchesPerCallScan(t *testing.T) {
	hw := hwMSP()
	budgets := []units.Energy{1e-9, 2e-5, 3e-4, 3e-3, 1}
	workloads := append(dnn.ExistingAuT(), dnn.FutureAuT()...)
	for _, w := range workloads {
		for _, df := range dataflow.Dataflows() {
			for _, part := range []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial} {
				for _, l := range w.Layers {
					ld, err := BuildLadder(l, w.ElemBytes, df, part, hw, 0.05)
					if err != nil {
						t.Fatalf("%s/%s/%s/%v: BuildLadder: %v", w.Name, l.Name, df, part, err)
					}
					for _, b := range budgets {
						want, wantErr := MinFeasibleTiles(l, w.ElemBytes, df, part, hw, 0.05, FixedBudget(b))
						got, gotErr := minFeasible(&ld, FixedBudget(b))
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s/%s/%s/%v budget %v: scan err %v, ladder err %v",
								w.Name, l.Name, df, part, b, wantErr, gotErr)
						}
						if wantErr != nil {
							if wantErr.Error() != gotErr.Error() {
								t.Fatalf("%s/%s: error text diverged: %q vs %q", w.Name, l.Name, wantErr, gotErr)
							}
							continue
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s/%s/%s/%v budget %v: ladder plan diverged from per-call scan:\n%+v\nvs\n%+v",
								w.Name, l.Name, df, part, b, got, want)
						}
					}
				}
			}
		}
	}
}

// ladderHW is one hardware column of the ladder bit-identity matrix:
// the MSP430 constants for every dataflow, or an accelerator design
// point's HW(df).
type ladderHW struct {
	name string
	hw   func(df dataflow.Dataflow) (dataflow.HW, error)
}

func ladderHWs() []ladderHW {
	hws := []ladderHW{{"msp430", func(dataflow.Dataflow) (dataflow.HW, error) { return hwMSP(), nil }}}
	for _, cfg := range []accel.Config{
		accel.EyerissV1(),
		{Arch: accel.TPU, NPE: 64, CacheBytes: 512},
		{Arch: accel.TPU, NPE: accel.MinPE, CacheBytes: accel.MinCacheBytes},
		{Arch: accel.Eyeriss, NPE: accel.MaxPE, CacheBytes: accel.MaxCacheBytes},
	} {
		hws = append(hws, ladderHW{fmt.Sprintf("%s-%d-%d", cfg.Arch, cfg.NPE, int(cfg.CacheBytes)), cfg.HW})
	}
	return hws
}

// TestLadderEntriesAscendingAndBudgetFree checks the Ladder invariants
// the fingerprint cache relies on, over every catalog workload (Table
// IV, Table V and the accelerator benchmark set) × dataflow × partition
// × hardware (MSP430 and Table V accelerator design points) × r_exc:
//
//   - the rung NTiles are exactly the candidate tile counts at which
//     Evaluate succeeds, in ascending order;
//   - every rung's scalars are bit-identical (math.Float64bits) to a
//     direct PlanLayer evaluation of the same mapping — the copy-free
//     kernel does the same arithmetic in the same order;
//   - PlanNTileInto rematerializes the full plan bit-identically;
//   - buildLadderShared over the same candidates builds the same rungs.
func TestLadderEntriesAscendingAndBudgetFree(t *testing.T) {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	rexcs := []float64{0, -1, 0.5} // -1 selects DefaultExceptionRate
	hws := ladderHWs()
	rungs := 0
	for _, name := range dnn.Names() {
		w, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, hwc := range hws {
			for _, df := range dataflow.Dataflows() {
				hw, err := hwc.hw(df)
				if err != nil {
					t.Fatal(err)
				}
				for _, part := range []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial} {
					for _, rexc := range rexcs {
						for li := range w.Layers {
							l := w.Layers[li]
							where := fmt.Sprintf("%s/%s/%s/%s/%v/rexc=%g", w.Name, l.Name, hwc.name, df, part, rexc)
							ld, err := BuildLadder(l, w.ElemBytes, df, part, hw, rexc)
							if err != nil {
								t.Fatalf("%s: BuildLadder: %v", where, err)
							}
							var want []int
							for _, n := range dataflow.CandidateNTiles(l, part) {
								m := dataflow.Mapping{Dataflow: df, Partition: part, NTile: n}
								if _, err := dataflow.Evaluate(l, w.ElemBytes, m, hw); err == nil {
									want = append(want, n)
								}
							}
							if len(ld.Rungs) != len(want) {
								t.Fatalf("%s: %d rungs, want %d (the Evaluate-feasible candidates)", where, len(ld.Rungs), len(want))
							}
							for i, r := range ld.Rungs {
								if r.NTile != want[i] {
									t.Fatalf("%s: rung %d has NTile %d, want %d", where, i, r.NTile, want[i])
								}
								m := dataflow.Mapping{Dataflow: df, Partition: part, NTile: r.NTile}
								p, err := PlanLayer(l, w.ElemBytes, m, hw, rexc)
								if err != nil {
									t.Fatalf("%s NTile=%d: %v", where, r.NTile, err)
								}
								if bits(float64(r.Power)) != bits(float64(units.DivET(p.TileEnergy, p.TileTime))) ||
									bits(float64(r.TileEnergy)) != bits(float64(p.TileEnergy)) ||
									bits(float64(r.Energy)) != bits(float64(p.Energy)) {
									t.Fatalf("%s NTile=%d: rung scalars %+v differ from plan (power %v tile %v energy %v)",
										where, r.NTile, r, units.DivET(p.TileEnergy, p.TileTime), p.TileEnergy, p.Energy)
								}
								if !reflect.DeepEqual(planAt(&ld, i), p) {
									t.Fatalf("%s NTile=%d: PlanNTileInto differs from direct PlanLayer", where, r.NTile)
								}
							}
							shared, err := buildLadderShared(&l, w.ElemBytes, df, part,
								dataflow.CandidateNTiles(l, part), &hw, rexc)
							if err != nil || !reflect.DeepEqual(shared.Rungs, ld.Rungs) {
								t.Fatalf("%s: buildLadderShared rungs differ from BuildLadder (err %v)", where, err)
							}
							rungs += len(ld.Rungs)
						}
					}
				}
			}
		}
	}
	if rungs == 0 {
		t.Fatal("the matrix built no rungs at all")
	}
	ld, err := BuildLadder(convLayer(t), 2, dataflow.OS, dataflow.ByChannel, hwMSP(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Rexc != DefaultExceptionRate {
		t.Fatalf("rexc -1 stored as %v, want DefaultExceptionRate", ld.Rexc)
	}
}

// TestLadderInvalidInputs pins the historical behavior of ladders over
// inputs the cost model rejects: invalid hardware, a non-positive
// element width or an unknown dataflow or partition yields a ladder with
// zero rungs and a nil error (every tile count fails its checks), while
// an exception rate >= 1 is an error.
func TestLadderInvalidInputs(t *testing.T) {
	l := convLayer(t)
	bad := hwMSP()
	bad.NPE = 0
	cases := []struct {
		name      string
		elemBytes int
		df        dataflow.Dataflow
		part      dataflow.Partition
		hw        dataflow.HW
	}{
		{"invalid-hw", 2, dataflow.OS, dataflow.ByChannel, bad},
		{"zero-elem-bytes", 0, dataflow.OS, dataflow.ByChannel, hwMSP()},
		{"negative-elem-bytes", -2, dataflow.WS, dataflow.BySpatial, hwMSP()},
		{"unknown-dataflow", 2, dataflow.Dataflow(7), dataflow.ByChannel, hwMSP()},
		{"unknown-partition", 2, dataflow.OS, dataflow.Partition(7), hwMSP()},
	}
	for _, tc := range cases {
		ld, err := BuildLadder(l, tc.elemBytes, tc.df, tc.part, tc.hw, 0.05)
		if err != nil || len(ld.Rungs) != 0 {
			t.Errorf("%s: BuildLadder = %d rungs, err %v; want 0 rungs, nil error", tc.name, len(ld.Rungs), err)
		}
		ntiles := dataflow.CandidateNTiles(l, tc.part)
		ld, err = buildLadderShared(&l, tc.elemBytes, tc.df, tc.part, ntiles, &tc.hw, 0.05)
		if err != nil || len(ld.Rungs) != 0 {
			t.Errorf("%s: buildLadderShared = %d rungs, err %v; want 0 rungs, nil error", tc.name, len(ld.Rungs), err)
		}
	}
	if _, err := BuildLadder(l, 2, dataflow.OS, dataflow.ByChannel, hwMSP(), 1); err == nil {
		t.Error("rexc >= 1 must be rejected")
	}
}

// TestBuildLadderAllocs pins the copy-free kernel's allocation count:
// the rung slice is the only allocation. BuildLadder inlines, so the
// layer and HW copies its ladder points at stay in the caller's frame
// when the ladder does; the shared builder points at the caller's
// storage and allocates at most the rung slice.
func TestBuildLadderAllocs(t *testing.T) {
	l := convLayer(t)
	hw := hwMSP()
	if got := testing.AllocsPerRun(100, func() {
		ld, err := BuildLadder(l, 2, dataflow.OS, dataflow.ByChannel, hw, 0.05)
		if err != nil || len(ld.Rungs) == 0 {
			panic("BuildLadder built no rungs")
		}
	}); got != 1 {
		t.Errorf("BuildLadder: %v allocations per build, want exactly 1 (the rung slice)", got)
	}
	ntiles := dataflow.CandidateNTiles(l, dataflow.BySpatial)
	if got := testing.AllocsPerRun(100, func() {
		ld, err := buildLadderShared(&l, 2, dataflow.WS, dataflow.BySpatial, ntiles, &hw, 0.05)
		if err != nil || len(ld.Rungs) == 0 {
			panic("buildLadderShared built no rungs")
		}
	}); got > 1 {
		t.Errorf("buildLadderShared: %v allocations per build, want at most 1", got)
	}
}

// TestLadderNilBudget checks the nil-budget error paths of the ladder
// scan match the per-call scan's.
func TestLadderNilBudget(t *testing.T) {
	l := convLayer(t)
	ld, err := BuildLadder(l, 2, dataflow.OS, dataflow.ByChannel, hwMSP(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ld.MinFeasibleIndex(nil); ok {
		t.Fatal("MinFeasibleIndex(nil) must report no rung")
	}
	if _, err := MinFeasibleTiles(l, 2, dataflow.OS, dataflow.ByChannel, hwMSP(), 0.05, nil); !errors.Is(err, errNilBudget) {
		t.Fatalf("per-call nil budget: %v", err)
	}
}

// TestPlanWorkloadPartitionFallback builds a layer whose channel
// partition cannot fit VM at any candidate tile count (one output
// channel, large spatial plane) and checks PlanWorkload falls back to
// the spatial partition instead of failing.
func TestPlanWorkloadPartitionFallback(t *testing.T) {
	l, err := dnn.NewConv2D("wide", 8, 64, 64, 1, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := dnn.Workload{Name: "fallback", Input: [3]int{8, 64, 64}, Layers: []dnn.Layer{l}, ElemBytes: 2}
	hw := hwMSP()

	// Precondition: ByChannel really is infeasible for this layer.
	if _, err := MinFeasibleTiles(l, 2, dataflow.OS, dataflow.ByChannel, hw, 0.05, FixedBudget(3e-3)); !errors.Is(err, ErrNoFeasibleTile) {
		t.Fatalf("precondition: ByChannel should be Eq. 8 infeasible, got %v", err)
	}

	plans, err := PlanWorkload(w, dataflow.OS, hw, 0.05, FixedBudget(3e-3))
	if err != nil {
		t.Fatalf("PlanWorkload should fall back to BySpatial: %v", err)
	}
	if got := plans[0].Cost.Mapping.Partition; got != dataflow.BySpatial {
		t.Fatalf("partition = %v, want BySpatial fallback", got)
	}
	if plans[0].Cost.NTileEffective <= 1 {
		t.Fatal("spatial fallback should need multiple tiles")
	}
}
