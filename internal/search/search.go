// Package search provides the black-box optimizers behind the
// CHRYSALIS Explorer: a genetic algorithm (the paper implements its
// explorer "based on the open-source library Optuna and a genetic
// algorithm"), plus random and grid samplers used as ablation baselines,
// and Pareto-front utilities for the Figure 6 analyses.
//
// Optimizers work on genomes: vectors in [0,1]^dim that problem
// definitions decode into typed parameters with the Map* helpers.
// Objective values are minimized; +Inf marks infeasible points.
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chrysalis/internal/obs"
)

// Problem is a black-box minimization problem over [0,1]^Dim.
type Problem struct {
	Dim  int
	Eval func(genome []float64) float64
	// EvalCtx, when non-nil, is used instead of Eval and additionally
	// receives the evaluation's context: its global ordinal. Objectives
	// that need deterministic tie-breaking or ordering across parallel
	// runs (lowest evaluation index wins) use it; everything else can
	// keep the plain Eval form.
	EvalCtx func(ec EvalContext, genome []float64) float64
}

// EvalContext identifies one objective evaluation inside a run.
type EvalContext struct {
	// Index is the global, generation-order ordinal of this evaluation
	// (0-based). It is identical for any worker count because candidate
	// generation stays sequential: evaluation i always sees the same
	// genome.
	Index int
}

// Validate checks the problem definition.
func (p Problem) Validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("search: dimension must be positive, got %d", p.Dim)
	}
	if p.Eval == nil && p.EvalCtx == nil {
		return fmt.Errorf("search: Eval must not be nil")
	}
	return nil
}

// evalFn returns the unified evaluation function, preferring EvalCtx.
func (p Problem) evalFn() func(ec EvalContext, genome []float64) float64 {
	if p.EvalCtx != nil {
		return p.EvalCtx
	}
	eval := p.Eval
	return func(_ EvalContext, genome []float64) float64 { return eval(genome) }
}

// Result is the outcome of an optimization run.
type Result struct {
	Best      []float64
	BestValue float64
	// Evals is the number of objective evaluations performed.
	Evals int
	// History records the best value after each generation (GA) or
	// sample batch (random), for convergence ablations.
	History []float64
	// Quality records per-generation population statistics, parallel to
	// History (filled by RunGA; samplers leave it nil).
	Quality QualityHistory
	// StoppedEarly reports that the plateau policy (GAConfig.Patience)
	// ended the run before the configured generation count; the stop
	// generation is len(History).
	StoppedEarly bool
	// Visited holds every evaluated (genome, value) pair when the
	// optimizer is asked to keep them (for Pareto analyses).
	Visited []Sample
}

// Sample is one evaluated point.
type Sample struct {
	Genome []float64
	Value  float64
}

// GAConfig parameterizes the genetic algorithm.
type GAConfig struct {
	Population  int
	Generations int
	// MutRate is the per-gene mutation probability.
	MutRate float64
	// MutSigma is the Gaussian mutation step.
	MutSigma float64
	// TournamentK is the tournament selection size.
	TournamentK int
	// Elite is how many best individuals survive unchanged.
	Elite int
	Seed  int64
	// KeepVisited retains all evaluated samples in Result.Visited.
	KeepVisited bool
	// Workers evaluates candidates concurrently when > 1. The search
	// trajectory is unchanged (candidate generation stays sequential and
	// seeded); only objective evaluations run in parallel, so Eval must
	// be safe for concurrent use.
	Workers int
	// SerialCostFloor makes parallel dispatch cost-aware: when > 0 and
	// the estimated serial cost of one evaluation falls below it, the
	// batch runs serially even if Workers > 1 — goroutine fan-out costs
	// more than it saves on microsecond-cheap objectives (the memoized
	// MSP430 fast path). The first estimate comes from a two-evaluation
	// serial probe at the head of the first batch (the cheaper of the
	// two, since the first evaluation often carries one-time cache
	// builds) and is refreshed from every batch thereafter.
	// <= 0 disables the floor. Never changes results, only wall-clock:
	// worker count is invisible to the search trajectory by design.
	SerialCostFloor time.Duration
	// Patience, when > 0, enables the plateau early-stop policy: the run
	// ends after Patience consecutive generations whose relative
	// improvement of the best objective (dominated hypervolume for
	// NSGA-II) stayed below PlateauTol. The decision depends only on the
	// per-generation best series, which is bit-identical for any worker
	// count, so early stopping preserves the determinism contract:
	// Workers=1 and Workers=N stop at the identical generation. 0
	// disables early stopping.
	Patience int
	// PlateauTol is the relative-improvement threshold backing Patience;
	// <= 0 selects DefaultPlateauTol.
	PlateauTol float64
	// HVRef is the fixed (f1, f2) reference point for the per-generation
	// dominated-hypervolume indicator of NSGA-II runs. Zero (the
	// default) freezes the reference from the first generation with a
	// feasible member: 1.1× that generation's finite objective maxima —
	// deterministic, since the first population depends only on the
	// seed. Ignored by the scalar GA.
	HVRef [2]float64
	// OnQuality, when non-nil, receives each generation's GenQuality
	// record right after it is computed, on the search goroutine. It is
	// the run's only per-generation hook: implementations must be fast
	// and must not call back into the optimizer. Observational only.
	OnQuality func(q GenQuality)
}

// DefaultGA returns a reasonable configuration for the AuT design
// spaces (a few thousand evaluations).
func DefaultGA(seed int64) GAConfig {
	return GAConfig{
		Population:  40,
		Generations: 30,
		MutRate:     0.25,
		MutSigma:    0.2,
		TournamentK: 3,
		Elite:       2,
		Seed:        seed,
	}
}

// Validate checks GA hyperparameters.
func (c GAConfig) Validate() error {
	if c.Population < 2 {
		return fmt.Errorf("search: population must be >= 2, got %d", c.Population)
	}
	if c.Generations < 1 {
		return fmt.Errorf("search: generations must be >= 1, got %d", c.Generations)
	}
	if c.MutRate < 0 || c.MutRate > 1 {
		return fmt.Errorf("search: mutation rate %g outside [0,1]", c.MutRate)
	}
	if c.MutSigma <= 0 {
		return fmt.Errorf("search: mutation sigma must be positive, got %g", c.MutSigma)
	}
	if c.TournamentK < 1 || c.TournamentK > c.Population {
		return fmt.Errorf("search: tournament size %d outside [1, population]", c.TournamentK)
	}
	if c.Elite < 0 || c.Elite >= c.Population {
		return fmt.Errorf("search: elite count %d outside [0, population)", c.Elite)
	}
	if c.Patience < 0 {
		return fmt.Errorf("search: patience must be >= 0, got %d", c.Patience)
	}
	return nil
}

type individual struct {
	genome []float64
	value  float64
}

// RunGA minimizes the problem with a (μ+λ)-style generational GA using
// tournament selection, uniform crossover and Gaussian mutation.
//
// ctx is checked once per generation, before the generation runs: a
// cancelled run ends early with the best individual found so far and a
// nil error. A trace attached with obs.WithTrace records one span per
// generation (with the cumulative evaluation count and best objective
// as attributes) plus a run-level span. Evaluation workers inherit the
// caller's pprof labels.
func RunGA(ctx context.Context, p Problem, cfg GAConfig) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var res Result
	record := func(batch []individual) {
		res.Evals += len(batch)
		if cfg.KeepVisited {
			for _, ind := range batch {
				cp := append([]float64(nil), ind.genome...)
				res.Visited = append(res.Visited, Sample{Genome: cp, Value: ind.value})
			}
		}
	}
	// costEst is the estimated serial cost of one evaluation, refreshed
	// from each batch. A batch measured at width w took roughly
	// elapsed·w worker-time for n evaluations; the estimate deliberately
	// leans high for parallel batches (idle-worker time counts), which
	// only makes the serial fallback trigger sooner — the cheap-objective
	// case is exactly where the estimate is inflated by dispatch
	// overhead.
	costEst := time.Duration(-1) // unknown until the first probe
	evalBatch := func(batch []individual) {
		base, rest := res.Evals, batch
		if cfg.SerialCostFloor > 0 && costEst < 0 && cfg.Workers > 1 && len(batch) > 2 {
			// No estimate yet: price the objective on a two-evaluation
			// serial probe before paying for any goroutine fan-out — on
			// microsecond-cheap objectives even one parallel batch costs
			// more than its serial run. Each probe evaluation is timed
			// alone and the cheaper one becomes the estimate: the first
			// evaluation often carries one-time cache builds that would
			// overstate the steady-state cost.
			for i := 0; i < 2; i++ {
				start := time.Now()
				evaluateBatch(p, base, rest[:1], 1)
				if d := time.Since(start); costEst < 0 || d < costEst {
					costEst = d
				}
				base, rest = base+1, rest[1:]
			}
		}
		workers := cfg.Workers
		if cfg.SerialCostFloor > 0 && costEst >= 0 && costEst < cfg.SerialCostFloor {
			workers = 1
		}
		start := time.Now()
		evaluateBatch(p, base, rest, workers)
		if n := len(rest); n > 0 && cfg.SerialCostFloor > 0 {
			per := time.Since(start) / time.Duration(n)
			if workers > 1 {
				per *= time.Duration(workers)
			}
			costEst = per
		}
		record(batch)
	}

	tr := obs.TraceFrom(ctx)
	var runSpan *obs.Span
	if tr != nil {
		runSpan = tr.Start("search", "ga-run",
			obs.A("population", cfg.Population), obs.A("generations", cfg.Generations),
			obs.A("dim", p.Dim), obs.A("seed", cfg.Seed))
	}

	pop := make([]individual, cfg.Population)
	for i := range pop {
		pop[i] = individual{genome: randomGenome(rng, p.Dim)}
	}
	evalBatch(pop)
	sortPop(pop)

	// Quality telemetry is default-on: the per-generation statistics are
	// O(population·dim), noise next to the objective evaluations.
	values := make([]float64, cfg.Population)
	genomes := make([][]float64, cfg.Population)
	stopper := newPlateau(cfg.Patience, cfg.PlateauTol)

	for gen := 0; gen < cfg.Generations; gen++ {
		if ctx.Err() != nil {
			break
		}
		var genSpan *obs.Span
		if tr != nil {
			genSpan = tr.Start("search", fmt.Sprintf("generation %d", gen+1))
		}
		next := make([]individual, 0, cfg.Population)
		// Elitism (already evaluated).
		for i := 0; i < cfg.Elite; i++ {
			next = append(next, pop[i])
		}
		// Candidate generation stays sequential so the trajectory is
		// identical regardless of worker count.
		fresh := make([]individual, 0, cfg.Population-cfg.Elite)
		for len(next)+len(fresh) < cfg.Population {
			a := tournament(rng, pop, cfg.TournamentK)
			b := tournament(rng, pop, cfg.TournamentK)
			child := crossover(rng, a.genome, b.genome)
			mutate(rng, child, cfg.MutRate, cfg.MutSigma)
			fresh = append(fresh, individual{genome: child})
		}
		evalBatch(fresh)
		pop = append(next, fresh...)
		sortPop(pop)
		res.History = append(res.History, pop[0].value)
		for i, ind := range pop {
			values[i], genomes[i] = ind.value, ind.genome
		}
		q := scalarQuality(gen+1, res.Evals, values, genomes)
		var stop bool
		q.Stagnation, stop = stopper.observe(pop[0].value)
		res.Quality = append(res.Quality, q)
		if genSpan != nil {
			genSpan.End(obs.A("evals", res.Evals), obs.A("best", pop[0].value))
		}
		if cfg.OnQuality != nil {
			cfg.OnQuality(q)
		}
		if stop {
			res.StoppedEarly = true
			break
		}
	}

	res.Best = append([]float64(nil), pop[0].genome...)
	res.BestValue = pop[0].value
	if runSpan != nil {
		runSpan.End(obs.A("evals", res.Evals), obs.A("best", res.BestValue))
	}
	return res, nil
}

// evaluateBatch fills in the values of a batch, optionally across
// workers. base is the global ordinal of batch[0] (the run's cumulative
// evaluation count before this batch), so batch[i] evaluates as
// EvalContext{Index: base+i} regardless of worker count.
func evaluateBatch(p Problem, base int, batch []individual, workers int) {
	eval := p.evalFn()
	forEachIndex(len(batch), workers, func(i int) {
		batch[i].value = eval(EvalContext{Index: base + i}, batch[i].genome)
	})
}

// dispatchChunk sizes the per-grab work chunk for forEachIndex: small
// enough that workers stay balanced on skewed objective costs, large
// enough that the shared counter isn't contended per index.
func dispatchChunk(n, workers int) int {
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// forEachIndex runs fn(i) for every i in [0, n), distributed
// across the given number of worker goroutines via chunked claims on a
// shared atomic counter. The earlier implementation pushed every index
// through an unbuffered channel, which cost two scheduler handoffs per
// element and dominated cheap objectives; claiming chunks amortizes the
// synchronization to a few atomic adds per worker (see
// BenchmarkBatchDispatch). workers <= 1 (or n < 2) degenerates to a
// plain serial loop on the caller's goroutine. Spawned workers inherit
// the caller's pprof labels, so profiles attribute their work to
// whatever job and phase the caller is tagged with.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	chunk := dispatchChunk(n, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// RunRandom minimizes by uniform random sampling (the wo/search
// ablation baseline).
func RunRandom(p Problem, n int, seed int64, keepVisited bool) (Result, error) {
	return RunRandomWorkers(p, n, seed, keepVisited, 1)
}

// RunRandomWorkers is RunRandom with concurrent objective evaluation.
// Genome generation stays sequential and seeded and the best-so-far
// fold runs in sample order, so the result is bit-identical for any
// worker count; only the objective calls run in parallel (Eval/EvalCtx
// must be safe for concurrent use when workers > 1).
func RunRandomWorkers(p Problem, n int, seed int64, keepVisited bool, workers int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("search: sample count must be >= 1, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	genomes := make([][]float64, n)
	for i := range genomes {
		genomes[i] = randomGenome(rng, p.Dim)
	}
	values := make([]float64, n)
	eval := p.evalFn()
	forEachIndex(n, workers, func(i int) {
		values[i] = eval(EvalContext{Index: i}, genomes[i])
	})

	var res Result
	res.BestValue = math.Inf(1)
	for i := 0; i < n; i++ {
		g, v := genomes[i], values[i]
		res.Evals++
		if keepVisited {
			res.Visited = append(res.Visited, Sample{Genome: g, Value: v})
		}
		if v < res.BestValue {
			res.BestValue = v
			res.Best = append([]float64(nil), g...)
		}
		res.History = append(res.History, res.BestValue)
	}
	return res, nil
}

// RunGrid minimizes by exhaustive grid sampling with k points per
// dimension. Practical only for low-dimensional spaces; used for
// sampler-quality ablations.
func RunGrid(p Problem, k int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if k < 2 {
		return Result{}, fmt.Errorf("search: grid needs >= 2 points per dim, got %d", k)
	}
	total := 1
	for i := 0; i < p.Dim; i++ {
		total *= k
		if total > 1_000_000 {
			return Result{}, fmt.Errorf("search: grid of %d^%d points is too large", k, p.Dim)
		}
	}
	var res Result
	res.BestValue = math.Inf(1)
	eval := p.evalFn()
	g := make([]float64, p.Dim)
	idx := make([]int, p.Dim)
	for {
		for d, i := range idx {
			g[d] = float64(i) / float64(k-1)
		}
		v := eval(EvalContext{Index: res.Evals}, g)
		res.Evals++
		if v < res.BestValue {
			res.BestValue = v
			res.Best = append([]float64(nil), g...)
		}
		// Odometer increment.
		d := 0
		for ; d < p.Dim; d++ {
			idx[d]++
			if idx[d] < k {
				break
			}
			idx[d] = 0
		}
		if d == p.Dim {
			break
		}
	}
	res.History = []float64{res.BestValue}
	return res, nil
}

func randomGenome(rng *rand.Rand, dim int) []float64 {
	g := make([]float64, dim)
	for i := range g {
		g[i] = rng.Float64()
	}
	return g
}

func sortPop(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].value < pop[j].value })
}

func tournament(rng *rand.Rand, pop []individual, k int) individual {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.value < best.value {
			best = c
		}
	}
	return best
}

func crossover(rng *rand.Rand, a, b []float64) []float64 {
	child := make([]float64, len(a))
	for i := range child {
		if rng.Float64() < 0.5 {
			child[i] = a[i]
		} else {
			child[i] = b[i]
		}
	}
	return child
}

func mutate(rng *rand.Rand, g []float64, rate, sigma float64) {
	for i := range g {
		if rng.Float64() < rate {
			g[i] += rng.NormFloat64() * sigma
			if g[i] < 0 {
				g[i] = 0
			}
			if g[i] > 1 {
				g[i] = 1
			}
		}
	}
}

// --- Genome decoding helpers ---

// MapFloat decodes u in [0,1] to [min,max], optionally log-scaled (for
// parameters spanning decades, like the 1 µF – 10 mF capacitor range).
func MapFloat(u, min, max float64, log bool) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	if log {
		return min * math.Pow(max/min, u)
	}
	return min + u*(max-min)
}

// MapInt decodes u to an integer in [min,max] inclusive.
func MapInt(u float64, min, max int) int {
	if max < min {
		min, max = max, min
	}
	v := min + int(math.Floor(MapFloat(u, 0, float64(max-min+1), false)))
	if v > max {
		v = max
	}
	return v
}

// MapChoice decodes u to an index in [0,n).
func MapChoice(u float64, n int) int {
	return MapInt(u, 0, n-1)
}

// --- Pareto utilities ---

// Point2 is a bi-objective sample (both minimized), carrying an opaque
// tag so callers can recover the configuration behind a front member.
type Point2 struct {
	X, Y float64
	Tag  int
}

// ParetoFront returns the non-dominated subset of pts (minimizing both
// coordinates), sorted by X ascending. A point dominates another when
// it is no worse in both coordinates and strictly better in at least
// one.
func ParetoFront(pts []Point2) []Point2 {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]Point2(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	var front []Point2
	bestY := math.Inf(1)
	for _, p := range sorted {
		if p.Y < bestY {
			front = append(front, p)
			bestY = p.Y
		}
	}
	return front
}

// Dominates reports whether a dominates b (minimization).
func Dominates(a, b Point2) bool {
	return a.X <= b.X && a.Y <= b.Y && (a.X < b.X || a.Y < b.Y)
}
