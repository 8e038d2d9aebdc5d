package explore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
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
	n := int(s >> 1)
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
	n := int(ld.state.Load() >> 1)
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

// TestLadderSetMatchesEagerLadders is the lazy/eager bit-identity
// matrix. Over every catalog workload, on the MSP430 and on every
// accelerator architecture at three NPE/cache points, under r_exc
// default, 0 and 0.3, a set whose ladders are built on demand must:
//
//   - answer every budget scan of a random sequence with the eager
//     ladder's first feasible rung (and infeasibility where it has none),
//     publishing at each step a prefix of the eager ladder;
//   - materialize each winning plan by tile count exactly as the eager
//     ladder's PlanAt does;
//   - once every ladder is forced complete, hold exactly the eager
//     ladder's rungs, compared with math.Float64bits, and find each of
//     them, and no other candidate count, by tile count.
func TestLadderSetMatchesEagerLadders(t *testing.T) {
	type hwPoint struct {
		platform PlatformKind
		cand     Candidate
	}
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
				where := fmt.Sprintf("%s/%s/rexc=%g", w.Name, pt.cand, rexc)
				e, err := NewEvaluator(sc)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := e.buildLadderSet(pt.cand)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				eager := eagerLadders(t, sc, pt.cand)
				if len(eager) != len(ls.ladders) {
					t.Fatalf("%s: %d lazy ladders, %d eager", where, len(ls.ladders), len(eager))
				}
				lo, hi := budgetRange(eager)
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
							var got intermittent.Plan
							ls.planInto(k, r.NTile, &got)
							if !reflect.DeepEqual(got, eager[k].PlanAt(i)) {
								t.Fatalf("%s ladder %d: plan by tile count %d differs from PlanAt", where, k, r.NTile)
							}
						}
					}
				}
				for k := range eager {
					if n := ls.complete(k); n != len(eager[k].Rungs) {
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
						r, ok := ls.byNTile(k, n)
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

// TestLadderSetExtendHammer scans one fresh ladder set from many
// goroutines released at once, each under its own mix of budgets and
// ladder order, while others force ladders complete and look rungs up
// by tile count. Budgets are random, pinned to one eager rung's tile
// energy (so a budget-driven extension stops at that rung, in the near
// chunk or deep in the tail) or fit no rung at all (so it runs the
// ladder to its end), and half the scans crowd onto the longest ladders
// so extensions race. Every answer must equal the serial scan of the
// eager ladders, and the set must end up holding exactly the eager
// rungs. Run under -race via `make race-explore`.
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
		want   intermittent.Rung
		ok     bool
	}
	rng := rand.New(rand.NewSource(5))
	plans := make([][]probe, goroutines)
	tailWins, misses := 0, 0
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
			p := probe{k: k, budget: b}
			if i, ok := eager[k].MinFeasibleIndex(b); ok {
				p.want, p.ok = eager[k].Rungs[i], true
				if i > nearRungs {
					tailWins++
				}
			} else {
				misses++
			}
			plans[g] = append(plans[g], p)
		}
	}
	if tailWins == 0 || misses == 0 {
		t.Fatalf("probes won %d scans in a tail and %d with no rung; want both", tailWins, misses)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for s, p := range plans[g] {
				if g%4 == 3 && s%8 == 0 {
					// Mix completions and by-count lookups into the scans.
					want := eager[p.k].Rungs
					if n := ls.complete(p.k); n != len(want) {
						t.Errorf("goroutine %d: complete(%d) = %d rungs, want %d", g, p.k, n, len(want))
						return
					}
					if len(want) > 0 {
						r, ok := ls.byNTile(p.k, want[len(want)/2].NTile)
						if !ok || !sameRung(r, want[len(want)/2]) {
							t.Errorf("goroutine %d: byNTile on ladder %d = (%+v, %v)", g, p.k, r, ok)
							return
						}
					}
				}
				r, ok := ls.minFeasible(p.k, p.budget)
				if ok != p.ok || (ok && !sameRung(r, p.want)) {
					t.Errorf("goroutine %d step %d ladder %d: (%+v, %v), serial scan (%+v, %v)", g, s, p.k, r, ok, p.want, p.ok)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for k := range eager {
		if err := checkPrefix(ls, k, &eager[k]); err != nil {
			t.Fatal(err)
		}
		ls.complete(k)
		if err := checkPrefix(ls, k, &eager[k]); err != nil {
			t.Fatal(err)
		}
		if err := checkStorage(ls, k); err != nil {
			t.Fatal(err)
		}
	}
}
