package explore

import (
	"context"
	"errors"
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

// errNoGAMapping is innerSearchGA's bare result when no genome is
// feasible: every search loop discards score errors, so the score path
// formats nothing and evaluateInner names the workload and candidate.
var errNoGAMapping = errors.New("explore: gamma mapper found no feasible mapping")

// innerSearchGA is the CHRYSALIS-GAMMA mapping search: one genome
// holds (dataflow, partition, tile-count index) for every layer and a
// GA minimizes the summed Eq. 5 energy subject to per-layer Eq. 8
// feasibility. Genome decoding resolves rungs from the pinned ladder
// set (binary search by tile count over a completed ladder) instead of
// re-running the cost model per evaluation; only the winning genome's
// plans are materialized, into the caller's arena. The nested GA itself
// always runs serially (it never sets Workers) — the outer candidate
// loop is the parallel axis, and each call here is already confined to
// one worker. It runs untraced under its own background context: it is
// part of one candidate evaluation, and the outer GA is where a search
// is cancelled or traced.
func (e *Evaluator) innerSearchGA(cand Candidate, budget intermittent.BudgetFunc, a *evalArena) ([]*intermittent.Plan, error) {
	w := e.sc.Workload
	ls, err := e.ladderSetFor(cand)
	if err != nil {
		return nil, err
	}
	var built int64
	defer func() { e.rungs.Add(built) }()

	// resolve maps one layer's genes to its ladder and rung; ok is false
	// when the tile count is VM-infeasible or the budget check (Eq. 8)
	// fails. The genome indexes the full candidate list, including
	// counts the ladder excluded as VM-infeasible, so the ladder is
	// completed before its by-count lookup.
	resolve := func(genome []float64, i int) (int, intermittent.Rung, bool) {
		dfi := search.MapChoice(genome[3*i], len(ls.ctxs))
		part := dataflow.Partition(search.MapChoice(genome[3*i+1], 2))
		nt := ls.ntiles[i][part]
		k := ls.ladderIndex(i, dfi, part)
		r, ok := ls.byNTile(k, nt[search.MapChoice(genome[3*i+2], len(nt))], &built)
		if !ok {
			return 0, r, false // tile does not fit VM
		}
		if avail := budget(r.Power); avail <= 0 || r.TileEnergy > avail {
			return 0, r, false // Eq. 8 violated
		}
		return k, r, true
	}

	problem := search.Problem{
		Dim: 3 * len(w.Layers),
		Eval: func(genome []float64) float64 {
			var total float64
			for i := range w.Layers {
				_, r, ok := resolve(genome, i)
				if !ok {
					return math.Inf(1)
				}
				total += float64(r.Energy)
			}
			return total
		},
	}
	seed := int64(float64(cand.PanelArea)*1e3) ^ int64(float64(cand.Cap)*1e9)
	res, err := search.RunGA(context.Background(), problem, gaMapperConfig(len(w.Layers), seed))
	if err != nil {
		return nil, err
	}
	if math.IsInf(res.BestValue, 1) {
		return nil, errNoGAMapping
	}
	for i := range w.Layers {
		k, r, ok := resolve(res.Best, i)
		if !ok {
			return nil, fmt.Errorf("explore: gamma mapper winner unresolvable for layer %d of %s", i, w.Name)
		}
		ls.planInto(k, r.NTile, &a.backing[i])
	}
	return a.plans, nil
}
