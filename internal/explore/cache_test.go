package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/obs"
	"chrysalis/internal/units"
)

// mspCandidates spans the energy genes the outer search varies on the
// MSP platform. The inference-side fingerprint is identical for all of
// them, so a single pinned ladder set must serve every one.
func mspCandidates() []Candidate {
	return []Candidate{
		{PanelArea: 4, Cap: 47e-6},
		{PanelArea: 8, Cap: 100e-6},
		{PanelArea: 16, Cap: 220e-6},
		{PanelArea: 25, Cap: 1e-3},
	}
}

// accelCandidates varies both the energy genes and the accelerator
// genes, so the evaluator must pin several distinct fingerprints.
func accelCandidates() []Candidate {
	return []Candidate{
		{PanelArea: 16, Cap: 1e-3, Accel: &accel.Config{Arch: accel.Eyeriss, NPE: 32, CacheBytes: 512}},
		{PanelArea: 16, Cap: 1e-3, Accel: &accel.Config{Arch: accel.Eyeriss, NPE: 64, CacheBytes: 1024}},
		{PanelArea: 25, Cap: 2e-3, Accel: &accel.Config{Arch: accel.TPU, NPE: 64, CacheBytes: 1024}},
		{PanelArea: 9, Cap: 470e-6, Accel: &accel.Config{Arch: accel.TPU, NPE: 16, CacheBytes: 512}},
	}
}

// oracleBudget is the unprepared Eq. 8 budget closure: it calls
// CycleBudget per environment per query where the evaluator reads its
// prepared budgets, and must agree with it bit for bit.
func oracleBudget(subsystems []*energy.Subsystem) intermittent.BudgetFunc {
	return func(load units.Power) units.Energy {
		minB := units.Energy(math.Inf(1))
		for _, es := range subsystems {
			if b, _ := es.CycleBudget(load); b < minB {
				minB = b
			}
		}
		if math.IsInf(float64(minB), 1) {
			return 1e6
		}
		return units.Energy(float64(minB) * budgetMargin)
	}
}

// directPlans is the uncached reference for the inner search: it scans
// each (dataflow, partition) mapping space per call with early exit at
// the first budget-feasible tile count, instead of reading pinned
// ladders. It explores the space in the same order with the same
// tie-breaks as innerSearch, so the two must choose bit-identical plans.
func directPlans(sc Scenario, cand Candidate) ([]intermittent.Plan, error) {
	sc = sc.withDefaults()
	subsystems, err := buildSubsystems(sc.Envs, cand)
	if err != nil {
		return nil, err
	}
	budget := oracleBudget(subsystems)
	dfs := dataflowChoices(sc)
	hws := make([]dataflow.HW, len(dfs))
	for i, df := range dfs {
		if hws[i], err = platformHW(sc, cand, df); err != nil {
			return nil, err
		}
	}
	w := sc.Workload
	plans := make([]intermittent.Plan, len(w.Layers))
	for li, l := range w.Layers {
		bestE := units.Energy(math.Inf(1))
		foundAny := false
		for ci, df := range dfs {
			for _, part := range []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial} {
				p, err := intermittent.MinFeasibleTiles(l, w.ElemBytes, df, part, hws[ci], sc.Rexc, budget)
				if err != nil {
					continue
				}
				if p.Energy < bestE {
					bestE = p.Energy
					plans[li] = p
					foundAny = true
				}
			}
		}
		if !foundAny {
			return nil, fmt.Errorf("explore: layer %s infeasible on %s: %w",
				l.Name, cand, intermittent.ErrNoFeasibleTile)
		}
	}
	return plans, nil
}

// matchesDirect reports whether an evaluation chose exactly the plans
// of the direct reference scan.
func matchesDirect(ev Evaluation, want []intermittent.Plan) bool {
	if len(ev.Mappings) != len(want) {
		return false
	}
	for i, m := range ev.Mappings {
		if m.Layer != want[i].Layer.Name || m.Mapping != want[i].Cost.Mapping || !reflect.DeepEqual(m.Plan, want[i]) {
			return false
		}
	}
	return true
}

// TestCachedMatchesUncached is the end-to-end differential for the
// memoized evaluation engine: an Evaluator serving pinned ladders must
// choose the plans of the uncached direct scan for both platforms,
// across repeated evaluations (cache hits included), and each
// evaluation must deep-equal the one-shot EvaluateCandidate result.
func TestCachedMatchesUncached(t *testing.T) {
	cases := []struct {
		name  string
		sc    Scenario
		cands []Candidate
	}{
		{"msp-har", Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}, mspCandidates()},
		{"msp-cifar", Scenario{Workload: dnn.CIFAR10(), Platform: MSP, Objective: Lat}, mspCandidates()},
		{"accel-har", Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}, accelCandidates()},
		{"accel-resnet", Scenario{Workload: dnn.ResNet18(), Platform: Accel, Objective: LatSP}, accelCandidates()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEvaluator(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			// Two rounds: the second is served entirely from the pins.
			for round := 0; round < 2; round++ {
				for _, cand := range tc.cands {
					want, wantErr := directPlans(tc.sc, cand)
					got, gotErr := e.Evaluate(cand)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("round %d %s: uncached err %v, cached err %v", round, cand, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if !matchesDirect(got, want) {
						t.Fatalf("round %d %s: cached plans diverged from the direct scan:\n%+v\nvs uncached\n%+v", round, cand, got.Mappings, want)
					}
					one, err := EvaluateCandidate(tc.sc, cand)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(one, got) {
						t.Fatalf("round %d %s: one-shot evaluation diverged:\n%+v\nvs\n%+v", round, cand, one, got)
					}
				}
			}
			hits, misses := e.CacheStats()
			if hits == 0 {
				t.Error("repeated evaluations should produce cache hits")
			}
			if tc.sc.Platform == MSP && misses != 1 {
				t.Errorf("MSP fingerprint is constant: misses = %d, want 1", misses)
			}
			if tc.sc.Platform == Accel && misses < 2 {
				t.Errorf("distinct accel configs should miss separately: misses = %d", misses)
			}
		})
	}
}

// TestInfeasibleLayerError pins the two forms of a candidate no mapping
// fits under the greedy inner search: the score path, which every
// search loop discards, returns the bare sentinel and allocates nothing,
// while Evaluate names the layer and the candidate, still matching the
// sentinel with errors.Is.
func TestInfeasibleLayerError(t *testing.T) {
	t.Run("greedy", func(t *testing.T) {
		sc := Scenario{Workload: dnn.VGG16(), Platform: MSP, Objective: LatSP}
		infeasible := Candidate{PanelArea: 1, Cap: 1e-6}
		e, err := NewEvaluator(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.score(infeasible); err != intermittent.ErrNoFeasibleTile {
			t.Fatalf("score error %v, want the bare sentinel", err)
		}
		_, want := directPlans(sc, infeasible)
		_, got := e.Evaluate(infeasible)
		if want == nil || got == nil || got.Error() != want.Error() || !errors.Is(got, intermittent.ErrNoFeasibleTile) {
			t.Fatalf("Evaluate error %q, want %q wrapping the sentinel", got, want)
		}
		if raceEnabled {
			return // the race detector makes sync.Pool drop arenas at random
		}
		if n := testing.AllocsPerRun(20, func() { e.score(infeasible) }); n != 0 {
			t.Errorf("an infeasible score allocates %v times, want 0", n)
		}
	})
}

// TestEvaluatorCacheConcurrent hammers one shared Evaluator from many
// goroutines (the GA Workers > 1 contract) and checks every result
// still matches the uncached reference. Run under -race via `make
// race-cache`.
func TestEvaluatorCacheConcurrent(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}
	cands := accelCandidates()

	refs := make([][]intermittent.Plan, len(cands))
	for i, cand := range cands {
		plans, err := directPlans(sc, cand)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = plans
	}

	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(cands)
				got, err := e.Evaluate(cands[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if !matchesDirect(got, refs[i]) {
					errs <- fmt.Errorf("goroutine %d round %d: result diverged for %s", g, r, cands[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := e.CacheStats()
	if hits+misses != goroutines*rounds {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, goroutines*rounds)
	}
	if misses != int64(len(cands)) {
		t.Errorf("misses = %d, want %d distinct fingerprints", misses, len(cands))
	}
}

// raceEnabled reports a -race build; race_test.go sets it.
var raceEnabled bool

// TestHotPathAllocs pins the steady-state allocation counts of the
// search's hot path, exactly: a lookup of a pinned fingerprint, scoring
// a candidate whose MSP fingerprint is already resolved, scoring an
// accelerator candidate on a set already extended as far as its scans
// read, a budget scan over such a set and a prepared cycle budget all
// allocate nothing, whether the set is on the heap or carved from a
// search's slab. It also pins a cold ladder-set build, heap-backed and
// slab-backed, at a fixed allocation count that does not grow with the
// number of ladders: rungs are built by scans, not by the build.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random")
	}
	e, err := NewEvaluator(Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP})
	if err != nil {
		t.Fatal(err)
	}
	cand := mspCandidates()[1]
	if _, err := e.score(cand); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { e.ladderSetFor(cand) }); n != 0 {
		t.Errorf("pinned ladder lookup allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { e.score(cand) }); n != 0 {
		t.Errorf("score on a resolved MSP fingerprint allocates %v times, want 0", n)
	}
	subs, _, err := e.subs.get(cand)
	if err != nil {
		t.Fatal(err)
	}
	b := subs[0].Budgeter()
	if n := testing.AllocsPerRun(100, func() { b.At(1e-3) }); n != 0 {
		t.Errorf("Budgeter.At allocates %v times, want 0", n)
	}

	for _, w := range []dnn.Workload{dnn.HAR(), dnn.VGG16()} {
		sc := Scenario{Workload: w, Platform: Accel, Objective: LatSP}
		ae, err := NewEvaluator(sc)
		if err != nil {
			t.Fatal(err)
		}
		acand := accelCandidates()[1]
		// The first build, AllocsPerRun's warm-up, also copies the
		// evaluator's layers and enumerates their candidate lists once.
		if n := testing.AllocsPerRun(20, func() { ae.buildLadderSet(acand) }); n != coldSetAllocs {
			t.Errorf("%s: cold buildLadderSet allocates %v times, want %d whatever the ladder count",
				w.Name, n, coldSetAllocs)
		}
		se, err := newSearchEvaluator(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		// Releasing the slab after each build hands its ladder block back
		// to the pool the next build takes it from.
		s := se.slab
		if n := testing.AllocsPerRun(20, func() { se.buildLadderSet(acand); s.release() }); n != slabColdSetAllocs {
			t.Errorf("%s: slab-backed cold buildLadderSet allocates %v times, want %d whatever the ladder count",
				w.Name, n, slabColdSetAllocs)
		}
		for _, ae := range []*Evaluator{ae, se} {
			ls, err := ae.ladderSetFor(acand)
			if err != nil {
				t.Fatal(err)
			}
			_, budget, err := ae.subs.get(acand)
			if err != nil {
				t.Fatal(err)
			}
			scan := func() {
				for k := range ls.ladders {
					ls.minFeasible(k, budget)
				}
			}
			scan()
			if n := testing.AllocsPerRun(100, scan); n != 0 {
				t.Errorf("%s (slab %v): scanning an extended ladder set allocates %v times, want 0", w.Name, ls.slab != nil, n)
			}
			if _, err := ae.score(acand); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() { ae.score(acand) }); n != 0 {
				t.Errorf("%s (slab %v): score on an extended accelerator set allocates %v times, want 0", w.Name, ls.slab != nil, n)
			}
		}
		se.release()
	}
}

// coldSetAllocs is a heap-backed cold buildLadderSet's allocation
// count: the set, its dataflow contexts and its ladder slice. A
// slab-backed build carves the ladder slice from a recycled block
// instead (slabColdSetAllocs).
const (
	coldSetAllocs     = 3
	slabColdSetAllocs = 2
)

// TestTracedColdSearchBuildLadderSpans covers the traced ladder-build
// path. A traced cold serial search records one "ladder-build" span per
// cache miss and, per miss, exactly layers × dataflows × 2
// "build-ladder" spans, each carrying its tuple identity and candidate
// count (rungs are built on demand, so their number is not known when
// the set is). The tracer rides the search's ctx (obs.WithTrace). A
// traced evaluator's spans then match the ladders of the set it built,
// in build order.
func TestTracedColdSearchBuildLadderSpans(t *testing.T) {
	tpu := accel.TPU
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &tpu}
	tr := obs.NewTrace(1 << 16)
	cfg := smallGA(11)
	cfg.Workers = -1
	out, err := Explore(obs.WithTrace(context.Background(), tr), sc, Full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Dropped(); n != 0 {
		t.Fatalf("trace ring dropped %d events; enlarge it", n)
	}
	var sets, ladders int
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "ladder-build":
			sets++
		case "build-ladder":
			ladders++
			if n, ok := ev.Args["candidates"].(int); !ok || n < 1 {
				t.Fatalf("build-ladder span without a candidate count: %+v", ev.Args)
			}
			for _, k := range []string{"layer", "dataflow", "partition"} {
				if _, ok := ev.Args[k].(string); !ok {
					t.Fatalf("build-ladder span without %q: %+v", k, ev.Args)
				}
			}
		}
	}
	perMiss := len(sc.Workload.Layers) * len(dataflow.Dataflows()) * 2
	if out.CacheMisses == 0 || int64(sets) != out.CacheMisses || int64(ladders) != out.CacheMisses*int64(perMiss) {
		t.Fatalf("%d misses recorded %d ladder-build and %d build-ladder spans, want %d and %d",
			out.CacheMisses, sets, ladders, out.CacheMisses, out.CacheMisses*int64(perMiss))
	}

	tr = obs.NewTrace(1 << 12)
	e, err := newSearchEvaluator(obs.WithTrace(context.Background(), tr), sc)
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	ls, err := e.ladderSetFor(accelCandidates()[2])
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, ev := range tr.Events() {
		if ev.Name != "build-ladder" {
			continue
		}
		if k >= len(ls.ladders) {
			t.Fatalf("more build-ladder spans than the %d ladders built", len(ls.ladders))
		}
		hdr := ls.header(k)
		want := map[string]any{"layer": hdr.Layer.Name, "dataflow": hdr.Dataflow.String(),
			"partition": hdr.Partition.String(), "candidates": len(ls.candidates(k))}
		for key, v := range want {
			if ev.Args[key] != v {
				t.Fatalf("span %d: %s = %v, want %v", k, key, ev.Args[key], v)
			}
		}
		k++
	}
	if k != len(ls.ladders) {
		t.Fatalf("%d build-ladder spans for %d ladders", k, len(ls.ladders))
	}
}

// BenchmarkBuildLadderSet times one cold ladder-set build carried to
// completion — every rung of every (layer, dataflow, partition) ladder
// of a workload on one hardware fingerprint. A search builds only the
// rungs its budget scans reach, so this is the upper bound of the work
// behind one cold cache miss.
func BenchmarkBuildLadderSet(b *testing.B) {
	cases := []struct {
		name string
		sc   Scenario
		cand Candidate
	}{
		{"accel-resnet18", Scenario{Workload: dnn.ResNet18(), Platform: Accel, Objective: LatSP}, accelCandidates()[2]},
		{"accel-vgg16", Scenario{Workload: dnn.VGG16(), Platform: Accel, Objective: LatSP}, accelCandidates()[1]},
		{"msp-cifar10", Scenario{Workload: dnn.CIFAR10(), Platform: MSP, Objective: LatSP}, mspCandidates()[0]},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			e, err := NewEvaluator(tc.sc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ls, err := e.buildLadderSet(tc.cand)
				if err != nil {
					b.Fatal(err)
				}
				for k := range ls.ladders {
					ls.complete(k, nil)
				}
			}
		})
	}
}
