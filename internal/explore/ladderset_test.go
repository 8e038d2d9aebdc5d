package explore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/units"
)

// eagerLadders builds, with the eager intermittent.BuildLadder oracle,
// every ladder of the set buildLadderSet sets up for (sc, cand),
// indexed like ladderSet.ladders.
func eagerLadders(t testing.TB, sc Scenario, cand Candidate) []intermittent.Ladder {
	t.Helper()
	sc = sc.withDefaults()
	dfs := dataflowChoices(sc)
	w := sc.Workload
	out := make([]intermittent.Ladder, 2*len(dfs)*len(w.Layers))
	for li, l := range w.Layers {
		for ci, df := range dfs {
			hw, err := platformHW(sc, cand, df)
			if err != nil {
				t.Fatal(err)
			}
			for part := range 2 {
				ld, err := intermittent.BuildLadder(l, w.ElemBytes, df, dataflow.Partition(part), hw, sc.Rexc)
				if err != nil {
					t.Fatal(err)
				}
				out[(li*len(dfs)+ci)*2+part] = ld
			}
		}
	}
	return out
}

// minFeasible is an unbounded scan: ladder k's first (smallest-NTile)
// rung whose tile energy fits the budget at its own power draw.
func (ls *ladderSet) minFeasible(k int, budget intermittent.BudgetFunc) (intermittent.Rung, bool) {
	return ls.scan(k, budget, units.Energy(math.Inf(1)), nil)
}

// sameRung compares two rungs bit for bit.
func sameRung(a, b intermittent.Rung) bool {
	bits := math.Float64bits
	return a.NTile == b.NTile && bits(float64(a.Power)) == bits(float64(b.Power)) &&
		bits(float64(a.TileEnergy)) == bits(float64(b.TileEnergy)) &&
		bits(float64(a.Energy)) == bits(float64(b.Energy))
}

// checkPrefix verifies that ladder k's published rungs are a prefix of
// the eager ladder and that a ladder marked done holds all of it.
func checkPrefix(ls *ladderSet, k int, eager *intermittent.Ladder) error {
	ld := &ls.ladders[k]
	s := ld.state.Load()
	n := rungCount(s)
	if n > len(eager.Rungs) || (s&ladderDone != 0 && n != len(eager.Rungs)) {
		return fmt.Errorf("ladder %d publishes %d rungs (done %v), eager has %d", k, n, s&ladderDone != 0, len(eager.Rungs))
	}
	for i := 0; i < n; i++ {
		if !sameRung(*ld.rung(i), eager.Rungs[i]) {
			return fmt.Errorf("ladder %d rung %d = %+v, eager %+v", k, i, *ld.rung(i), eager.Rungs[i])
		}
	}
	return nil
}

// checkStorage verifies that complete ladder k holds its rungs in the
// levels sized to them: the near chunk only past the head, and a tail,
// sized for every candidate past the chunk, only past the chunk.
func checkStorage(ls *ladderSet, k int) error {
	ld := &ls.ladders[k]
	n := rungCount(ld.state.Load())
	if (ld.near != nil) != (n > 1) {
		return fmt.Errorf("ladder %d: %d rungs, near chunk allocated: %v", k, n, ld.near != nil)
	}
	if (ld.tail != nil) != (n > 1+nearRungs) {
		return fmt.Errorf("ladder %d: %d rungs, tail allocated: %v", k, n, ld.tail != nil)
	}
	if want := len(ls.candidates(k)) - 1 - nearRungs; ld.tail != nil && len(ld.tail) != want {
		return fmt.Errorf("ladder %d: tail holds %d rungs, want %d", k, len(ld.tail), want)
	}
	return nil
}

// budgetRange returns the smallest and largest tile energy over every
// eager rung, so random budgets can be drawn across the whole range.
func budgetRange(eager []intermittent.Ladder) (lo, hi float64) {
	lo, hi = math.Inf(1), 0
	for i := range eager {
		for _, r := range eager[i].Rungs {
			lo = math.Min(lo, float64(r.TileEnergy))
			hi = math.Max(hi, float64(r.TileEnergy))
		}
	}
	return lo, hi
}

// randomBudget draws a budget log-uniformly from [lo/2, 2·hi] whose
// allowance also falls with the tile's power draw, like the Eq. 3 T term
// of the real cycle budget.
func randomBudget(rng *rand.Rand, lo, hi float64) intermittent.BudgetFunc {
	e := math.Exp(math.Log(lo/2) + rng.Float64()*(math.Log(4*hi)-math.Log(lo)))
	p0 := math.Exp(rng.Float64()*8 - 6)
	return func(load units.Power) units.Energy {
		return units.Energy(e / (1 + float64(load)/p0))
	}
}

// hwPoint is one hardware point of the ladder matrices.
type hwPoint struct {
	platform PlatformKind
	cand     Candidate
}

// matrixPoints returns the MSP430 and every accelerator architecture at
// three NPE/cache points: the smallest, a middle and the largest.
func matrixPoints() []hwPoint {
	points := []hwPoint{{MSP, Candidate{PanelArea: 8, Cap: 100e-6}}}
	for _, arch := range accel.Arches() {
		for _, pt := range []struct {
			npe   int
			cache units.Bytes
		}{{accel.MinPE, accel.MinCacheBytes}, {64, 512}, {accel.MaxPE, accel.MaxCacheBytes}} {
			points = append(points, hwPoint{Accel, Candidate{PanelArea: 8, Cap: 1e-3,
				Accel: &accel.Config{Arch: arch, NPE: pt.npe, CacheBytes: pt.cache}}})
		}
	}
	return points
}

// randomAccelPoint draws an accelerator configuration uniformly from the
// design space, the cache log-uniformly as the outer search maps it.
func randomAccelPoint(rng *rand.Rand) hwPoint {
	arches := accel.Arches()
	lo, hi := math.Log(float64(accel.MinCacheBytes)), math.Log(float64(accel.MaxCacheBytes))
	return hwPoint{Accel, Candidate{PanelArea: 8, Cap: 1e-3, Accel: &accel.Config{
		Arch:       arches[rng.Intn(len(arches))],
		NPE:        accel.MinPE + rng.Intn(accel.MaxPE-accel.MinPE+1),
		CacheBytes: units.Bytes(math.Exp(lo + rng.Float64()*(hi-lo))),
	}}}
}

// TestLadderSetMatchesEagerLadders is the lazy/eager bit-identity
// matrix. Over every catalog workload, on the MSP430 and on every
// accelerator architecture at three NPE/cache points, under r_exc
// default, 0 and 0.3, a set whose ladders are built on demand, both on
// the heap and carved from a slab whose recycled blocks hold garbage
// (poisonedSlab), must:
//
//   - answer every budget scan of a random sequence with the eager
//     ladder's first feasible rung (and infeasibility where it has none),
//     publishing at each step a prefix of the eager ladder;
//   - materialize each winning plan by tile count exactly as the eager
//     ladder's PlanNTileInto does;
//   - once every ladder is forced complete, hold exactly the eager
//     ladder's rungs, compared with math.Float64bits, and find each of
//     them, and no other candidate count, by tile count.
//
// The slab-backed sets thereby show that nothing reads storage a ladder
// has not published.
func TestLadderSetMatchesEagerLadders(t *testing.T) {
	points := matrixPoints()
	rng := rand.New(rand.NewSource(17))
	// rungs counts the eager rungs compared, deep the scans won past a
	// ladder's first rung and none the scans no rung fit, so the budgets
	// are known to reach into the ladders and past their ends. intoTail
	// counts the ladders whose rungs run from the near chunk into the
	// tail, short those with a second candidate but fewer candidates than
	// the head and near chunk hold.
	rungs, deep, none, intoTail, short := 0, 0, 0, 0, 0
	for _, name := range dnn.Names() {
		w, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			for _, rexc := range []float64{-1, 0, 0.3} {
				sc := Scenario{Workload: w, Platform: pt.platform, Objective: LatSP, Rexc: rexc}
				eager := eagerLadders(t, sc, pt.cand)
				lo, hi := budgetRange(eager)
				for _, slabbed := range []bool{false, true} {
					where := fmt.Sprintf("%s/%s/rexc=%g/slab=%v", w.Name, pt.cand, rexc, slabbed)
					e, err := NewEvaluator(sc)
					if err != nil {
						t.Fatal(err)
					}
					if slabbed {
						e.slab = poisonedSlab()
					}
					ls, err := e.buildLadderSet(pt.cand)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if len(eager) != len(ls.ladders) {
						t.Fatalf("%s: %d lazy ladders, %d eager", where, len(ls.ladders), len(eager))
					}
					for step := 0; step < 6; step++ {
						budget := randomBudget(rng, lo, hi)
						for k := range eager {
							r, ok := ls.minFeasible(k, budget)
							i, eok := eager[k].MinFeasibleIndex(budget)
							if ok != eok || (ok && !sameRung(r, eager[k].Rungs[i])) {
								t.Fatalf("%s ladder %d step %d: lazy scan (%+v, %v), eager (%d, %v)", where, k, step, r, ok, i, eok)
							}
							switch {
							case !ok:
								none++
							case i > 0:
								deep++
							}
							if err := checkPrefix(ls, k, &eager[k]); err != nil {
								t.Fatalf("%s step %d: %v", where, step, err)
							}
							if ok && step == 0 {
								var got, want intermittent.Plan
								ls.planInto(k, r.NTile, &got)
								eager[k].PlanNTileInto(eager[k].Rungs[i].NTile, &want)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%s ladder %d: plan by tile count %d differs from the eager ladder's", where, k, r.NTile)
								}
							}
						}
					}
					for k := range eager {
						if n := ls.complete(k, nil); n != len(eager[k].Rungs) {
							t.Fatalf("%s ladder %d: complete holds %d rungs, eager %d", where, k, n, len(eager[k].Rungs))
						}
						if err := checkPrefix(ls, k, &eager[k]); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						if err := checkStorage(ls, k); err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						switch nc := len(ls.candidates(k)); {
						case len(eager[k].Rungs) > 1+nearRungs:
							intoTail++
						case nc > 1 && nc <= nearRungs:
							short++
						}
						// By-count lookups hit every rung and miss every
						// candidate count the eager ladder excluded.
						i := 0
						for _, n := range ls.candidates(k) {
							r, ok := ls.byNTile(k, n, nil)
							hit := i < len(eager[k].Rungs) && eager[k].Rungs[i].NTile == n
							if ok != hit || (ok && !sameRung(r, eager[k].Rungs[i])) {
								t.Fatalf("%s ladder %d: byNTile(%d) = (%+v, %v), eager has it: %v", where, k, n, r, ok, hit)
							}
							if hit {
								i++
							}
						}
						rungs += len(eager[k].Rungs)
					}
					if s := e.slab; s != nil {
						// Every carve came from the poisoned blocks.
						if len(s.lblocks) != 1 || len(s.rblocks) > 1 {
							t.Fatalf("%s: the set took %d ladder and %d rung blocks, want only the poisoned ones",
								where, len(s.lblocks), len(s.rblocks))
						}
						s.release()
					}
				}
			}
		}
	}
	if rungs == 0 || deep == 0 || none == 0 || intoTail == 0 || short == 0 {
		t.Fatalf("the matrix compared %d rungs, with %d scans won past the first rung and %d with no rung, "+
			"%d ladders reaching the tail and %d shorter than the near chunk", rungs, deep, none, intoTail, short)
	}
	t.Logf("%d rungs; %d scans won past the first rung, %d found none; %d ladders reach the tail, %d are short",
		rungs, deep, none, intoTail, short)
}

// TestLadderSetFloorBelowRungs pins the bound the branch and bound
// rests on: every ladder's energy floor is at or below the Energy of
// every rung the eager oracle builds for it, and never falls with the
// tile count. The matrix is every catalog workload on the MSP430 and on
// every accelerator architecture at three NPE/cache points and at
// seeded random configurations, under r_exc default, 0 and 0.3.
func TestLadderSetFloorBelowRungs(t *testing.T) {
	points := matrixPoints()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		points = append(points, randomAccelPoint(rng))
	}
	// rungs counts the rungs compared; tight those within 1 % of their
	// floor, so the floors are known to be more than a vacuous bound.
	rungs, tight := 0, 0
	for _, name := range dnn.Names() {
		w, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			for _, rexc := range []float64{-1, 0, 0.3} {
				sc := Scenario{Workload: w, Platform: pt.platform, Objective: LatSP, Rexc: rexc}
				e, err := NewEvaluator(sc)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := e.buildLadderSet(pt.cand)
				if err != nil {
					t.Fatal(err)
				}
				for k, eager := range eagerLadders(t, sc, pt.cand) {
					f := ls.ladders[k].floor
					if !(f.B >= 0) {
						t.Fatalf("%s/%s/rexc=%g ladder %d: floor slope %g", w.Name, pt.cand, rexc, k, f.B)
					}
					for _, r := range eager.Rungs {
						if fl := f.At(r.NTile); !(fl <= r.Energy) {
							t.Fatalf("%s/%s/rexc=%g ladder %d: floor %v above the rung energy %v at NTile %d",
								w.Name, pt.cand, rexc, k, fl, r.Energy, r.NTile)
						} else if float64(r.Energy) < 1.01*float64(fl) {
							tight++
						}
						rungs++
					}
				}
			}
		}
	}
	if rungs == 0 || tight == 0 {
		t.Fatalf("compared %d rungs, %d within 1 %% of their floor", rungs, tight)
	}
	t.Logf("%d rungs at or above their floor, %d within 1 %% of it", rungs, tight)
}

// bruteBest is the oracle of ladderSet.best over eager ladders: of every
// ladder of layer li whose scan finds a rung, the least Energy, ties to
// the lowest ladder index.
func bruteBest(eager []intermittent.Ladder, li, per int, budget intermittent.BudgetFunc) (int, intermittent.Rung, bool) {
	bestK := -1
	var best intermittent.Rung
	for k := li * per; k < (li+1)*per; k++ {
		i, ok := eager[k].MinFeasibleIndex(budget)
		if !ok {
			continue
		}
		if r := eager[k].Rungs[i]; bestK < 0 || r.Energy < best.Energy {
			bestK, best = k, r
		}
	}
	return bestK, best, bestK >= 0
}

// TestLadderSetBranchAndBoundMatchesBruteForce checks the pruned
// per-layer search against the unpruned oracle. On real ladder sets,
// scanned under a sequence of random budgets so that later scans resume
// ladders earlier ones stopped on their floors, every layer's winner
// must equal the brute-force minimum over the eager ladders, rung bit
// for bit. On constructed sets, whose ladders tie on energy, sit exactly
// on their floors and are visited in random order, the winner must be
// the tie's lowest ladder index.
func TestLadderSetBranchAndBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	points := append(matrixPoints(), randomAccelPoint(rng), randomAccelPoint(rng))
	// pruned counts the real sets whose scans built fewer rungs than the
	// eager ladders hold, so pruning is known to have happened.
	layers, pruned := 0, 0
	for _, name := range []string{"har", "kws", "vgg16", "resnet18", "bert"} {
		w, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			sc := Scenario{Workload: w, Platform: pt.platform, Objective: LatSP}
			e, err := NewEvaluator(sc)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := e.buildLadderSet(pt.cand)
			if err != nil {
				t.Fatal(err)
			}
			eager := eagerLadders(t, sc, pt.cand)
			lo, hi := budgetRange(eager)
			var built int64
			for step := 0; step < 8; step++ {
				budget := randomBudget(rng, lo, hi)
				for li := range w.Layers {
					k, r, ok := ls.best(li, budget, &built)
					wk, wr, wok := bruteBest(eager, li, ls.perLayer(), budget)
					if ok != wok || (ok && (k != wk || !sameRung(r, wr))) {
						t.Fatalf("%s/%s step %d layer %d: best (%d, %+v, %v), brute force (%d, %+v, %v)",
							w.Name, pt.cand, step, li, k, r, ok, wk, wr, wok)
					}
					layers++
				}
			}
			total := 0
			for k := range eager {
				if err := checkPrefix(ls, k, &eager[k]); err != nil {
					t.Fatalf("%s/%s: %v", w.Name, pt.cand, err)
				}
				total += len(ls.candidates(k))
			}
			if built < int64(total) {
				pruned++
			}
		}
	}
	if pruned == 0 {
		t.Fatalf("no scan of %d layers stopped a ladder early", layers)
	}

	ties := 0
	for trial := 0; trial < 300; trial++ {
		ls, eager := tiedLadderSet(rng)
		allow := units.Energy(rng.Float64())
		budget := func(units.Power) units.Energy { return allow }
		for li := range ls.layers {
			k, r, ok := ls.best(li, budget, nil)
			wk, wr, wok := bruteBest(eager, li, ls.perLayer(), budget)
			if ok != wok || (ok && (k != wk || !sameRung(r, wr))) {
				t.Fatalf("constructed trial %d layer %d: best (%d, %+v, %v), brute force (%d, %+v, %v)",
					trial, li, k, r, ok, wk, wr, wok)
			}
			// Count the higher ladders the tie rule had to pass over.
			for j := wk + 1; ok && j < (li+1)*ls.perLayer(); j++ {
				if i, fit := eager[j].MinFeasibleIndex(budget); fit && eager[j].Rungs[i].Energy == wr.Energy {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no constructed layer had a tie on the winning energy")
	}
	t.Logf("%d layers matched brute force on real sets, %d sets pruned; %d constructed ties", layers, pruned, ties)
}

// tiedLadderSet constructs a done ladder set of two layers of three
// dataflow contexts, every ladder published in full, and the eager
// ladders that hold the same rungs. Rung energies are the ladder's floor
// plus a non-negative excess that is often zero; tile energies are
// uniform in [0, 1), so a budget allowance decides which rungs fit. Half
// the ladders copy the rungs and floor of a lower ladder of their layer,
// so their scans tie on energy, and each layer's visit order is a random
// permutation.
func tiedLadderSet(rng *rand.Rand) (*ladderSet, []intermittent.Ladder) {
	const layers, ctxs = 2, 3
	ls := &ladderSet{ctxs: make([]dfCtx, ctxs), layers: make([]dnn.Layer, layers)}
	per := ls.perLayer()
	ls.ladders = make([]lazyLadder, layers*per)
	eager := make([]intermittent.Ladder, len(ls.ladders))
	for k := range ls.ladders {
		ld := &ls.ladders[k]
		if j := k % per; j > 0 && rng.Intn(2) == 0 {
			src := k - 1 - rng.Intn(j)
			ld.floor = ls.ladders[src].floor
			eager[k].Rungs = eager[src].Rungs
		} else {
			ld.floor = intermittent.Floor{A: float64(rng.Intn(4)), B: float64(rng.Intn(3))}
			n := 0
			for i := rng.Intn(8); i > 0; i-- {
				n += 1 + rng.Intn(3)
				r := intermittent.Rung{NTile: n, Power: 1, TileEnergy: units.Energy(rng.Float64())}
				r.Energy = ld.floor.At(n) + units.Energy(rng.Intn(3))
				eager[k].Rungs = append(eager[k].Rungs, r)
			}
		}
		rungs := eager[k].Rungs
		for i, r := range rungs {
			ls.store(ld, i, len(rungs), r)
		}
		ld.state.Store(uint64(len(rungs))<<nextShift | uint64(len(rungs))<<1 | ladderDone)
	}
	for li := 0; li < layers; li++ {
		for j, v := range rng.Perm(per) {
			ls.ladders[li*per+j].visit = uint8(v)
		}
	}
	return ls, eager
}

// TestLadderSetExtendHammer scans one fresh ladder set from many
// goroutines released at once, each under its own mix of budgets, cut-off
// bounds and ladder order, while others force ladders complete and look
// rungs up by tile count. Budgets are random, pinned to one eager rung's
// tile energy (so a budget-driven extension stops at that rung, in the
// near chunk or deep in the tail) or fit no rung at all (so it runs the
// ladder to its end); bounds are unbounded, exactly the answer's energy,
// or random below it, so scans stop on the ladder's floor at different
// points while others extend it past them. Half the scans crowd onto the
// longest ladders so extensions race. Every answer must equal the serial
// scan of the eager ladders cut off at the same bound, the set must end
// up holding exactly the eager rungs, and the shared rung count must
// equal the candidates evaluated. Run under -race via
// `make race-explore`.
func TestLadderSetExtendHammer(t *testing.T) {
	sc := Scenario{Workload: dnn.ResNet18(), Platform: Accel, Objective: LatSP}
	cand := accelCandidates()[2]
	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.buildLadderSet(cand)
	if err != nil {
		t.Fatal(err)
	}
	eager := eagerLadders(t, sc, cand)
	lo, hi := budgetRange(eager)
	// hot holds the longest ladders, which half the scans share.
	hot := make([]int, len(eager))
	for k := range hot {
		hot[k] = k
	}
	sort.Slice(hot, func(i, j int) bool { return len(eager[hot[i]].Rungs) > len(eager[hot[j]].Rungs) })
	hot = hot[:8]

	const goroutines, steps = 8, 400
	type probe struct {
		k      int
		budget intermittent.BudgetFunc
		bound  units.Energy
		want   intermittent.Rung
		ok     bool
	}
	rng := rand.New(rand.NewSource(5))
	plans := make([][]probe, goroutines)
	tailWins, misses, cut := 0, 0, 0
	for g := range plans {
		for s := 0; s < steps; s++ {
			k := rng.Intn(len(eager))
			if s%2 == 0 {
				k = hot[rng.Intn(len(hot))]
			}
			var b intermittent.BudgetFunc
			switch rungs := eager[k].Rungs; {
			case s%3 == 0 && len(rungs) > 0:
				allow := rungs[rng.Intn(len(rungs))].TileEnergy
				b = func(units.Power) units.Energy { return allow }
			case s%7 == 0:
				b = func(units.Power) units.Energy { return 0 }
			default:
				b = randomBudget(rng, lo, hi)
			}
			p := probe{k: k, budget: b, bound: units.Energy(math.Inf(1))}
			if i, ok := eager[k].MinFeasibleIndex(b); ok {
				p.want, p.ok = eager[k].Rungs[i], true
				if i > nearRungs {
					tailWins++
				}
				switch s % 5 {
				case 1:
					p.bound = p.want.Energy
				case 2, 3:
					// A bound below the answer cuts the scan off where the
					// floor passes it, which may be before the answer.
					p.bound = units.Energy(rng.Float64() * float64(p.want.Energy))
					if ls.ladders[k].floor.At(p.want.NTile) > p.bound {
						p.ok = false
						cut++
					}
				}
			} else {
				misses++
				if s%5 == 2 {
					p.bound = units.Energy(rng.Float64() * hi)
				}
			}
			plans[g] = append(plans[g], p)
		}
	}
	if tailWins == 0 || misses == 0 || cut == 0 {
		t.Fatalf("probes won %d scans in a tail, %d with no rung and %d cut off by the bound; want all three",
			tailWins, misses, cut)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	// Each goroutine counts its own rung-kernel calls, as each inner
	// search does, and adds them to the total when it ends.
	var total atomic.Int64
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var built int64
			defer func() { total.Add(built) }()
			<-start
			for s, p := range plans[g] {
				if g%4 == 3 && s%8 == 0 {
					// Mix completions and by-count lookups into the scans.
					want := eager[p.k].Rungs
					if n := ls.complete(p.k, &built); n != len(want) {
						t.Errorf("goroutine %d: complete(%d) = %d rungs, want %d", g, p.k, n, len(want))
						return
					}
					if len(want) > 0 {
						r, ok := ls.byNTile(p.k, want[len(want)/2].NTile, &built)
						if !ok || !sameRung(r, want[len(want)/2]) {
							t.Errorf("goroutine %d: byNTile on ladder %d = (%+v, %v)", g, p.k, r, ok)
							return
						}
					}
				}
				r, ok := ls.scan(p.k, p.budget, p.bound, &built)
				if ok != p.ok || (ok && !sameRung(r, p.want)) {
					t.Errorf("goroutine %d step %d ladder %d bound %v: (%+v, %v), serial scan (%+v, %v)",
						g, s, p.k, p.bound, r, ok, p.want, p.ok)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	candidates := 0
	built := total.Load()
	for k := range eager {
		if err := checkPrefix(ls, k, &eager[k]); err != nil {
			t.Fatal(err)
		}
		ls.complete(k, &built)
		if err := checkPrefix(ls, k, &eager[k]); err != nil {
			t.Fatal(err)
		}
		if err := checkStorage(ls, k); err != nil {
			t.Fatal(err)
		}
		candidates += len(ls.candidates(k))
	}
	if built != int64(candidates) {
		t.Fatalf("the scans counted %d rung-kernel calls for %d candidates", built, candidates)
	}
}
