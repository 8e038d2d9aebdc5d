package explore

import (
	"fmt"
	"math"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/search"
)

// Mapper selects the SW-level optimizer realization (Table III lists
// two: the iNAS-like tile searcher and CHRYSALIS-GAMMA, a genetic
// mapping search).
type Mapper int

const (
	// MapperGreedy is the default analytical planner: per layer, the
	// cheapest feasible (dataflow, partition, N_tile) via Eq. 8/9. The
	// per-layer costs are independent, so greedy per-layer choice is
	// exact for the energy objective.
	MapperGreedy Mapper = iota
	// MapperGA is the CHRYSALIS-GAMMA realization: a genetic search
	// over the joint per-layer mapping genome. It exists to validate
	// the greedy planner and to support cost models with cross-layer
	// coupling.
	MapperGA
)

// String implements fmt.Stringer.
func (m Mapper) String() string {
	if m == MapperGA {
		return "gamma-ga"
	}
	return "greedy"
}

// gaMapperBudget sizes the inner GA. The genome has 3 genes per layer;
// budgets scale with depth.
func gaMapperConfig(layers int, seed int64) search.GAConfig {
	cfg := search.DefaultGA(seed)
	cfg.Population = 16
	cfg.Generations = 6 + layers/2
	if cfg.Generations > 40 {
		cfg.Generations = 40
	}
	return cfg
}

// innerSearchGA is the CHRYSALIS-GAMMA mapping search: one genome
// holds (dataflow, partition, tile-count index) for every layer and a
// GA minimizes the summed Eq. 5 energy subject to per-layer Eq. 8
// feasibility. Genome decoding resolves rungs from the pinned ladder
// set (binary search by tile count) instead of re-running
// the cost model per evaluation; only the winning genome's plans are
// materialized, into the caller's arena. The nested GA itself always
// runs serially (it never sets Workers) — the outer candidate loop is
// the parallel axis, and each call here is already confined to one
// worker.
func (e *Evaluator) innerSearchGA(cand Candidate, budget intermittent.BudgetFunc, a *evalArena) ([]*intermittent.Plan, error) {
	w := e.sc.Workload
	ls, err := e.ladderSetFor(cand)
	if err != nil {
		return nil, err
	}

	// Candidate tile counts per layer per partition (precomputed); the
	// genome indexes the full candidate list, including counts the
	// ladder excluded as VM-infeasible.
	type layerSpace struct {
		ntiles [2][]int // indexed by partition
	}
	spaces := make([]layerSpace, len(w.Layers))
	for i, l := range w.Layers {
		spaces[i].ntiles[dataflow.ByChannel] = dataflow.CandidateNTiles(l, dataflow.ByChannel)
		spaces[i].ntiles[dataflow.BySpatial] = dataflow.CandidateNTiles(l, dataflow.BySpatial)
	}

	// resolve maps one layer's genes to its ladder and rung index; ok is
	// false when the tile count is VM-infeasible or the budget check
	// (Eq. 8) fails.
	resolve := func(genome []float64, i int) (*intermittent.Ladder, int, bool) {
		dfi := search.MapChoice(genome[3*i], len(ls.ctxs))
		part := dataflow.Partition(search.MapChoice(genome[3*i+1], 2))
		nt := spaces[i].ntiles[part]
		n := nt[search.MapChoice(genome[3*i+2], len(nt))]
		ld := ls.ladderAt(i, dfi, part)
		ri, ok := ld.ByNTile(n)
		if !ok {
			return nil, 0, false // tile does not fit VM
		}
		r := &ld.Rungs[ri]
		if avail := budget(r.Power); avail <= 0 || r.TileEnergy > avail {
			return nil, 0, false // Eq. 8 violated
		}
		return ld, ri, true
	}

	problem := search.Problem{
		Dim: 3 * len(w.Layers),
		Eval: func(genome []float64) float64 {
			var total float64
			for i := range w.Layers {
				ld, ri, ok := resolve(genome, i)
				if !ok {
					return math.Inf(1)
				}
				total += float64(ld.Rungs[ri].Energy)
			}
			return total
		},
	}
	seed := int64(float64(cand.PanelArea)*1e3) ^ int64(float64(cand.Cap)*1e9)
	res, err := search.RunGA(problem, gaMapperConfig(len(w.Layers), seed))
	if err != nil {
		return nil, err
	}
	if math.IsInf(res.BestValue, 1) {
		return nil, fmt.Errorf("explore: gamma mapper found no feasible mapping for %s on %s", w.Name, cand)
	}
	for i := range w.Layers {
		ld, ri, ok := resolve(res.Best, i)
		if !ok {
			return nil, fmt.Errorf("explore: gamma mapper winner unresolvable for layer %d of %s", i, w.Name)
		}
		ld.PlanInto(ri, &a.backing[i])
	}
	return a.plans, nil
}
