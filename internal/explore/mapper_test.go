package explore

import (
	"context"
	"math"
	"sort"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/search"
	"chrysalis/internal/units"
)

// ladderIndex returns the index of the ladder for (layer, dataflow
// context, partition).
func (ls *ladderSet) ladderIndex(layer, ctx int, part dataflow.Partition) int {
	return (layer*len(ls.ctxs)+ctx)*2 + int(part)
}

// complete extends ladder k through its last candidate and returns its
// rung count, adding the rung-kernel calls it makes to *built, which may
// be nil.
func (ls *ladderSet) complete(k int, built *int64) int {
	ld := &ls.ladders[k]
	s := ld.state.Load()
	if s&ladderDone == 0 {
		ls.extend(k, rungCount(s), nil, units.Energy(math.Inf(1)), built)
		s = ld.state.Load()
	}
	return rungCount(s)
}

// byNTile completes ladder k and returns the rung whose requested tile
// count is n, by binary search over the ascending rungs. ok is false
// when that count was VM-infeasible (and therefore has no rung).
func (ls *ladderSet) byNTile(k, n int, built *int64) (intermittent.Rung, bool) {
	ld := &ls.ladders[k]
	cnt := ls.complete(k, built)
	i := sort.Search(cnt, func(i int) bool { return ld.rung(i).NTile >= n })
	if i < cnt && ld.rung(i).NTile == n {
		return *ld.rung(i), true
	}
	return intermittent.Rung{}, false
}

// gaMapping is the CHRYSALIS-GAMMA mapping search (Table III's genetic
// realization of the SW-level optimizer), kept as an oracle for the
// greedy inner search: one genome holds (dataflow, partition,
// tile-count index) for every layer, and a GA minimizes the summed
// Eq. 5 layer energy subject to per-layer Eq. 8 feasibility. Genes
// resolve to rungs of the evaluator's pinned ladder set. It returns the
// winning genome's plans, or nil when no genome is feasible.
func gaMapping(t *testing.T, sc Scenario, cand Candidate) []intermittent.Plan {
	t.Helper()
	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	_, budget, err := e.subs.get(cand)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.ladderSetFor(cand)
	if err != nil {
		t.Fatal(err)
	}
	layers := len(sc.Workload.Layers)
	// The genome indexes each layer's full candidate list, including
	// counts the ladder excluded as VM-infeasible.
	resolve := func(genome []float64, i int) (int, intermittent.Rung, bool) {
		dfi := search.MapChoice(genome[3*i], len(ls.ctxs))
		part := dataflow.Partition(search.MapChoice(genome[3*i+1], 2))
		nt := ls.ntiles[i][part]
		k := ls.ladderIndex(i, dfi, part)
		r, ok := ls.byNTile(k, nt[search.MapChoice(genome[3*i+2], len(nt))], nil)
		return k, r, ok && fits(&r, budget)
	}
	problem := search.Problem{
		Dim: 3 * layers,
		Eval: func(genome []float64) float64 {
			var total float64
			for i := 0; i < layers; i++ {
				_, r, ok := resolve(genome, i)
				if !ok {
					return math.Inf(1)
				}
				total += float64(r.Energy)
			}
			return total
		},
	}
	cfg := search.DefaultGA(int64(float64(cand.PanelArea)*1e3) ^ int64(float64(cand.Cap)*1e9))
	cfg.Population = 16
	cfg.Generations = min(6+layers/2, 40)
	res, err := search.RunGA(context.Background(), problem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.BestValue, 1) {
		return nil
	}
	plans := make([]intermittent.Plan, layers)
	for i := range plans {
		k, r, ok := resolve(res.Best, i)
		if !ok {
			t.Fatalf("GA winner unresolvable for layer %d of %s", i, sc.Workload.Name)
		}
		ls.planInto(k, r.NTile, &plans[i])
	}
	return plans
}

func sumEnergy(plans []intermittent.Plan) units.Energy {
	var total units.Energy
	for _, p := range plans {
		total += p.Energy
	}
	return total
}

// checkGreedyBeatsGA asserts the greedy inner search is exact for the
// per-layer-decomposable energy objective: its summed layer energy is
// at most the GA mapper's, which must itself land on a feasible mapping
// within a modest factor of greedy.
func checkGreedyBeatsGA(t *testing.T, sc Scenario, cand Candidate) {
	t.Helper()
	ev, err := EvaluateCandidate(sc, cand)
	if err != nil {
		t.Fatalf("%s greedy: %v", sc.Workload.Name, err)
	}
	ga := gaMapping(t, sc, cand)
	if ga == nil {
		t.Fatalf("%s: the GA mapper found no feasible mapping", sc.Workload.Name)
	}
	greedy := make([]intermittent.Plan, len(ev.Mappings))
	for i, m := range ev.Mappings {
		greedy[i] = m.Plan
	}
	g, a := sumEnergy(greedy), sumEnergy(ga)
	if g > a {
		t.Errorf("%s: greedy layer energy %v exceeds the GA mapper's %v", sc.Workload.Name, g, a)
	}
	if a > 1.5*g {
		t.Errorf("%s: GA mapper energy %v much worse than greedy %v", sc.Workload.Name, a, g)
	}
}

func TestGAMapperFeasibleAndNearGreedy(t *testing.T) {
	for _, wl := range []dnn.Workload{dnn.HAR(), dnn.KWS()} {
		checkGreedyBeatsGA(t, Scenario{Workload: wl, Platform: MSP, Objective: LatSP},
			Candidate{PanelArea: 8, Cap: 470e-6})
	}
}

func TestGAMapperOnAccelerator(t *testing.T) {
	ac := accel.Config{Arch: accel.Eyeriss, NPE: 64, CacheBytes: 512}
	checkGreedyBeatsGA(t, Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP},
		Candidate{PanelArea: 16, Cap: 1e-3, Accel: &ac})
}

func TestGAMapperDeterministicPerCandidate(t *testing.T) {
	sc := Scenario{Workload: dnn.KWS(), Platform: MSP, Objective: LatSP}
	cand := Candidate{PanelArea: 8, Cap: 470e-6}
	a, b := gaMapping(t, sc, cand), gaMapping(t, sc, cand)
	if a == nil || sumEnergy(a) != sumEnergy(b) {
		t.Fatal("the GA mapper must be deterministic per candidate")
	}
}
