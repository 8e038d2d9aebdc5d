package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// BiProblem is a bi-objective minimization problem over [0,1]^Dim —
// the latency-vs-panel-size tradeoff of the paper's Figure 6.
type BiProblem struct {
	Dim int
	// Eval returns the two objective values (both minimized). Either
	// may be +Inf for infeasible points.
	Eval func(genome []float64) (f1, f2 float64)
	// EvalCtx, when non-nil, is used instead of Eval and receives the
	// evaluation's EvalContext (see Problem.EvalCtx): the global ordinal.
	EvalCtx func(ec EvalContext, genome []float64) (f1, f2 float64)
}

// Validate checks the problem definition.
func (p BiProblem) Validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("search: dimension must be positive, got %d", p.Dim)
	}
	if p.Eval == nil && p.EvalCtx == nil {
		return fmt.Errorf("search: Eval must not be nil")
	}
	return nil
}

// evalFn returns the unified evaluation function, preferring EvalCtx.
func (p BiProblem) evalFn() func(ec EvalContext, genome []float64) (float64, float64) {
	if p.EvalCtx != nil {
		return p.EvalCtx
	}
	eval := p.Eval
	return func(_ EvalContext, genome []float64) (float64, float64) { return eval(genome) }
}

// nsgaIndividual carries a genome, its objectives, and NSGA-II bookkeeping.
type nsgaIndividual struct {
	genome   []float64
	f1, f2   float64
	rank     int
	crowding float64
}

func (a nsgaIndividual) dominates(b nsgaIndividual) bool {
	return a.f1 <= b.f1 && a.f2 <= b.f2 && (a.f1 < b.f1 || a.f2 < b.f2)
}

// FrontPoint is a member of the final non-dominated front.
type FrontPoint struct {
	Genome []float64
	F1, F2 float64
}

// NSGAStats is the run-level telemetry of an NSGA-II run. History is
// the per-generation dominated-hypervolume series (the bi-objective
// analogue of Result.History), parallel to Quality.
type NSGAStats struct {
	Evals   int
	History []float64
	Quality QualityHistory
	// StoppedEarly reports that the plateau policy (GAConfig.Patience,
	// applied to relative hypervolume improvement) ended the run before
	// the configured generation count.
	StoppedEarly bool
}

// RunNSGA2 runs a compact NSGA-II: non-dominated sorting, crowding
// distance, binary tournament on (rank, crowding), uniform crossover
// and Gaussian mutation. It returns the final population's first
// (non-dominated) front sorted by F1, plus per-generation telemetry.
//
// The hypervolume indicator uses cfg.HVRef when set; otherwise the
// reference point freezes at 1.1× the finite objective maxima of the
// first generation with a feasible member (deterministic: the early
// population depends only on the seed). ctx is checked once per
// generation, as in RunGA; cfg.OnQuality fires per generation with the
// quality record, whose Best is the scalarized (f1·f2) population best.
func RunNSGA2(ctx context.Context, p BiProblem, cfg GAConfig) ([]FrontPoint, NSGAStats, error) {
	var stats NSGAStats
	if err := p.Validate(); err != nil {
		return nil, stats, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, stats, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	eval := p.evalFn()
	// Genome generation stays sequential and seeded; only objective
	// evaluations fan out across cfg.Workers, per batch, so the search
	// trajectory is identical for any worker count (the same contract as
	// RunGA).
	evalBatch := func(batch []nsgaIndividual) {
		base := stats.Evals
		forEachIndex(len(batch), cfg.Workers, func(i int) {
			batch[i].f1, batch[i].f2 = eval(EvalContext{Index: base + i}, batch[i].genome)
		})
		stats.Evals += len(batch)
	}

	pop := make([]nsgaIndividual, cfg.Population)
	for i := range pop {
		pop[i] = nsgaIndividual{genome: randomGenome(rng, p.Dim)}
	}
	evalBatch(pop)
	rankAndCrowd(pop)

	ref := cfg.HVRef
	values := make([]float64, cfg.Population)
	genomes := make([][]float64, cfg.Population)
	stopper := newPlateau(cfg.Patience, cfg.PlateauTol)

	for gen := 0; gen < cfg.Generations; gen++ {
		if ctx.Err() != nil {
			break
		}
		// Offspring.
		children := make([]nsgaIndividual, 0, cfg.Population)
		for len(children) < cfg.Population {
			a := nsgaTournament(rng, pop)
			b := nsgaTournament(rng, pop)
			child := crossover(rng, a.genome, b.genome)
			mutate(rng, child, cfg.MutRate, cfg.MutSigma)
			children = append(children, nsgaIndividual{genome: child})
		}
		evalBatch(children)
		// Environmental selection over parents ∪ children.
		union := append(pop, children...)
		rankAndCrowd(union)
		sort.SliceStable(union, func(i, j int) bool {
			if union[i].rank != union[j].rank {
				return union[i].rank < union[j].rank
			}
			return union[i].crowding > union[j].crowding
		})
		pop = append([]nsgaIndividual(nil), union[:cfg.Population]...)

		// Per-generation telemetry: scalar statistics over the f1·f2
		// product, front-quality indicators over the selected rank-0
		// members, plateau bookkeeping on the hypervolume series.
		if ref == ([2]float64{}) {
			ref = freezeHVRef(pop)
		}
		for i, ind := range pop {
			values[i] = scalarObjective(ind.f1, ind.f2)
			genomes[i] = ind.genome
		}
		q := scalarQuality(gen+1, stats.Evals, values, genomes)
		front := selectedFront(pop)
		q.FrontSize = len(front)
		q.Spacing = Spacing(front)
		if ref != ([2]float64{}) {
			q.Hypervolume = Hypervolume2(front, ref[0], ref[1])
		}
		var stop bool
		q.Stagnation, stop = stopper.observe(-q.Hypervolume)
		stats.History = append(stats.History, q.Hypervolume)
		stats.Quality = append(stats.Quality, q)
		if cfg.OnQuality != nil {
			cfg.OnQuality(q)
		}
		if stop {
			stats.StoppedEarly = true
			break
		}
	}

	rankAndCrowd(pop)
	var front []FrontPoint
	for _, ind := range pop {
		if ind.rank == 0 && !math.IsInf(ind.f1, 1) && !math.IsInf(ind.f2, 1) {
			front = append(front, FrontPoint{
				Genome: append([]float64(nil), ind.genome...),
				F1:     ind.f1, F2: ind.f2,
			})
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].F1 < front[j].F1 })
	// Drop duplicates that crowd the same point.
	front = dedupeFront(front)
	return front, stats, nil
}

// scalarObjective collapses a bi-objective sample to the domain's
// space-time product (panel·latency); infeasible in either coordinate
// is infeasible overall.
func scalarObjective(f1, f2 float64) float64 {
	if math.IsInf(f1, 1) || math.IsInf(f2, 1) || math.IsNaN(f1) || math.IsNaN(f2) {
		return math.Inf(1)
	}
	return f1 * f2
}

// selectedFront extracts the finite rank-0 members of the current
// population as a deduplicated, F1-sorted front (ranks are valid from
// the preceding rankAndCrowd over the selection union).
func selectedFront(pop []nsgaIndividual) []FrontPoint {
	var front []FrontPoint
	for _, ind := range pop {
		if ind.rank == 0 && !math.IsInf(ind.f1, 1) && !math.IsInf(ind.f2, 1) {
			front = append(front, FrontPoint{F1: ind.f1, F2: ind.f2})
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].F1 != front[j].F1 {
			return front[i].F1 < front[j].F1
		}
		return front[i].F2 < front[j].F2
	})
	return dedupeFront(front)
}

// freezeHVRef derives the run's fixed hypervolume reference from the
// first population holding a feasible member: 1.1× the finite
// objective maxima (plus a tiny absolute pad so zero-valued objectives
// still dominate area). Returns the zero value while no member is
// feasible.
func freezeHVRef(pop []nsgaIndividual) [2]float64 {
	m1, m2 := math.Inf(-1), math.Inf(-1)
	any := false
	for _, ind := range pop {
		if math.IsInf(ind.f1, 1) || math.IsInf(ind.f2, 1) || math.IsNaN(ind.f1) || math.IsNaN(ind.f2) {
			continue
		}
		any = true
		if ind.f1 > m1 {
			m1 = ind.f1
		}
		if ind.f2 > m2 {
			m2 = ind.f2
		}
	}
	if !any {
		return [2]float64{}
	}
	pad := func(m float64) float64 { return m + 0.1*math.Abs(m) + 1e-9 }
	return [2]float64{pad(m1), pad(m2)}
}

// rankAndCrowd assigns Pareto ranks (0 = non-dominated) and crowding
// distances in place.
func rankAndCrowd(pop []nsgaIndividual) {
	n := len(pop)
	dominatedBy := make([]int, n)
	dominatesList := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if pop[i].dominates(pop[j]) {
				dominatesList[i] = append(dominatesList[i], j)
			} else if pop[j].dominates(pop[i]) {
				dominatedBy[i]++
			}
		}
	}
	// Peel fronts.
	var current []int
	for i := 0; i < n; i++ {
		pop[i].rank = -1
		if dominatedBy[i] == 0 {
			pop[i].rank = 0
			current = append(current, i)
		}
	}
	for rank := 0; len(current) > 0; rank++ {
		var next []int
		for _, i := range current {
			for _, j := range dominatesList[i] {
				dominatedBy[j]--
				if dominatedBy[j] == 0 {
					pop[j].rank = rank + 1
					next = append(next, j)
				}
			}
		}
		crowd(pop, current)
		current = next
	}
}

// crowd computes crowding distance within one front (given by indices).
func crowd(pop []nsgaIndividual, front []int) {
	if len(front) == 0 {
		return
	}
	for _, i := range front {
		pop[i].crowding = 0
	}
	for _, objective := range []func(nsgaIndividual) float64{
		func(x nsgaIndividual) float64 { return x.f1 },
		func(x nsgaIndividual) float64 { return x.f2 },
	} {
		idx := append([]int(nil), front...)
		sort.Slice(idx, func(a, b int) bool { return objective(pop[idx[a]]) < objective(pop[idx[b]]) })
		lo, hi := objective(pop[idx[0]]), objective(pop[idx[len(idx)-1]])
		pop[idx[0]].crowding = math.Inf(1)
		pop[idx[len(idx)-1]].crowding = math.Inf(1)
		if span := hi - lo; span > 0 && !math.IsInf(span, 1) {
			for k := 1; k < len(idx)-1; k++ {
				gap := objective(pop[idx[k+1]]) - objective(pop[idx[k-1]])
				pop[idx[k]].crowding += gap / span
			}
		}
	}
}

// nsgaTournament selects by (rank, crowding) between two random members.
func nsgaTournament(rng *rand.Rand, pop []nsgaIndividual) nsgaIndividual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.rank != b.rank {
		if a.rank < b.rank {
			return a
		}
		return b
	}
	if a.crowding >= b.crowding {
		return a
	}
	return b
}

// dedupeFront removes near-identical consecutive points.
func dedupeFront(front []FrontPoint) []FrontPoint {
	if len(front) < 2 {
		return front
	}
	out := front[:1]
	for _, p := range front[1:] {
		last := out[len(out)-1]
		if math.Abs(p.F1-last.F1) < 1e-12 && math.Abs(p.F2-last.F2) < 1e-12 {
			continue
		}
		out = append(out, p)
	}
	return out
}
