// Package core orchestrates CHRYSALIS's usage model (Sec. III-A,
// Table II): given a domain-specific DNN workload, platform and
// environment constraints, and an objective demand function, it wires
// the AuT HW/SW Describer, the Evaluator and the Explorer together and
// returns the ideal AuT solution — energy-harvester hardware, inference
// hardware and per-layer dataflow.
package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"chrysalis/internal/audit"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/explore"
	"chrysalis/internal/obs"
	"chrysalis/internal/search"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// Spec is the full input of a CHRYSALIS run, mirroring Table II's
// input categories: workload, environment constraint, technology
// constraint and objective.
type Spec struct {
	// Workload is the DNN task. Either set it directly or name a
	// catalog workload in WorkloadName.
	Workload     *dnn.Workload
	WorkloadName string

	// Platform selects MSP430-class or reconfigurable-accelerator
	// inference hardware.
	Platform explore.PlatformKind

	// Objective and its constraints.
	Objective  explore.Objective
	MaxPanel   units.AreaCM2
	MaxLatency units.Seconds

	// Envs are the environment constraints (k_eh providers); nil
	// selects the paper's bright/dark pair.
	Envs []solar.Environment

	// Rexc is the energy-exception rate (technology constraint; <0
	// selects the default).
	Rexc float64

	// SimMode selects the simulator core for the single-inference
	// co-simulations of this spec (verification, the facade's Simulate,
	// SimulateWithPolicy, SimulateWithHarvester and SimulateTraced,
	// serving): the event-driven analytic simulator (the zero value),
	// the fixed-step oracle, or the differential mode that runs both and
	// fails on divergence. The series replays (SimulateSeries,
	// SimulateSeriesFlight) always run the fixed-step simulator. Search
	// scoring is analytic and unaffected.
	SimMode sim.Mode

	// Search configures the outer optimizer.
	Search SearchConfig
}

// SearchConfig sizes the HW-level optimizer.
type SearchConfig struct {
	// Algorithm is "ga" (default), "random", or "nsga" — the
	// multi-objective NSGA-II search over (panel area, latency) whose
	// Result additionally carries the Pareto front.
	Algorithm string
	// Budget approximates the number of candidate evaluations
	// (0 selects ~1200, matching the paper's hardware-point counts
	// scaled to interactive runtimes).
	Budget int
	Seed   int64
	// Workers is the candidate-evaluation concurrency: 0 (the default)
	// uses every core (GOMAXPROCS), negative forces serial, >= 1 is
	// taken literally. Candidate generation stays sequential and seeded,
	// so results are bit-identical for any worker count — Workers is a
	// throughput knob, not part of a design's identity (serving layers
	// exclude it from cache keys).
	Workers int
	// Patience, when > 0, enables the deterministic plateau early-stop
	// policy: the search ends after Patience consecutive generations
	// whose relative best-objective improvement (dominated-hypervolume
	// improvement for "nsga") stays below PlateauTol. Unlike Workers it
	// changes results, so it IS part of a design's identity — serving
	// layers include it in cache keys. 0 disables early stopping.
	Patience int
	// PlateauTol is the relative-improvement threshold backing Patience;
	// <= 0 selects search.DefaultPlateauTol (0.1%).
	PlateauTol float64
	// OnQuality, when non-nil, receives every generation's quality
	// record (population statistics and, for "nsga", front-quality
	// indicators) as the search runs. Observational only, like Progress:
	// excluded from identity, serialization and caching.
	OnQuality func(q search.GenQuality) `json:"-"`
	// Progress, when non-nil, receives a callback after every outer-GA
	// generation, before OnQuality: the 1-based generation index,
	// cumulative candidate evaluations and best objective value so far
	// (+Inf while no candidate is feasible). It runs on the search
	// goroutine and must be fast. Not part of a design's identity (it is
	// ignored by serialization and caching layers).
	Progress func(gen, evals int, best float64) `json:"-"`
	// Trace, when non-nil, records spans for the whole pipeline — the
	// outer GA's per-generation spans, the explorer's score/evaluate and
	// ladder-build spans — for Chrome trace-event / Perfetto export. Like
	// Progress it is observational only: not part of a design's identity,
	// ignored by serialization and caching layers. Nil (the default)
	// disables tracing at zero cost. Cancellation is not a field: it is
	// the ctx given to RunBaseline.
	Trace *obs.Trace `json:"-"`
	// Warm, when non-nil, attaches the process-lifetime warm-start tier
	// (explore.WarmCache): the search reuses plan ladders previous
	// searches built and publishes its own. Like Trace it is excluded
	// from identity, serialization and caching, and it never affects
	// results — warm and cold runs produce bit-identical designs.
	Warm *explore.WarmCache `json:"-"`
}

func (s SearchConfig) withDefaults() SearchConfig {
	if s.Algorithm == "" {
		s.Algorithm = "ga"
	}
	if s.Budget == 0 {
		s.Budget = 1200
	}
	return s
}

// resolveWorkload picks the workload from the spec.
func (s Spec) resolveWorkload() (dnn.Workload, error) {
	if s.Workload != nil {
		return *s.Workload, s.Workload.Validate()
	}
	if s.WorkloadName == "" {
		return dnn.Workload{}, fmt.Errorf("core: spec needs a Workload or WorkloadName")
	}
	return dnn.ByName(s.WorkloadName)
}

// Scenario converts the spec to an explorer scenario.
func (s Spec) Scenario() (explore.Scenario, error) {
	w, err := s.resolveWorkload()
	if err != nil {
		return explore.Scenario{}, err
	}
	return explore.Scenario{
		Workload:   w,
		Platform:   s.Platform,
		Envs:       s.Envs,
		Objective:  s.Objective,
		MaxPanel:   s.MaxPanel,
		MaxLatency: s.MaxLatency,
		Rexc:       s.Rexc,
		SimMode:    s.SimMode,
	}, nil
}

// LayerDataflow reports the chosen mapping of one layer, including the
// paper's Figure 4 directive rendering.
type LayerDataflow struct {
	Layer      string
	Dataflow   string
	Partition  string
	NTile      int
	CkptBytes  units.Bytes
	Directives []string
	// LoopNest is the rendered Figure-4 style loop nest, one line per
	// level plus the annotated compute body.
	LoopNest []string
}

// EnvMetrics reports per-environment outcomes.
type EnvMetrics struct {
	Env        string
	Latency    units.Seconds
	Energy     units.Energy
	Efficiency float64
}

// Result is the ideal AuT solution CHRYSALIS outputs (Table II's output
// category).
type Result struct {
	// Energy-harvester hardware.
	PanelArea units.AreaCM2
	Cap       units.Capacitance
	// Inference hardware ("msp430" or "tpu"/"eyeriss" with PE/cache).
	InferHW    string
	NPE        int
	CacheBytes units.Bytes
	// Dataflow per layer.
	Dataflow []LayerDataflow

	// Metrics.
	PerEnv     []EnvMetrics
	AvgLatency units.Seconds
	LatSP      float64
	Evals      int
	// Workers is the resolved evaluation concurrency the search used
	// (informational; results are identical for any worker count).
	Workers   int
	Objective string
	Baseline  string

	// CacheHits / CacheMisses count the search's ladder-set lookups:
	// misses are the distinct hardware fingerprints, hits the rest;
	// WarmHits is the subset of misses served by the process-lifetime
	// warm tier (SearchConfig.Warm) instead of a fresh ladder build.
	// Informational only — like Workers they never affect the design.
	CacheHits   int64 `json:",omitempty"`
	CacheMisses int64 `json:",omitempty"`
	WarmHits    int64 `json:",omitempty"`

	// History is the per-generation convergence series: best objective
	// value for scalar searches, dominated hypervolume for "nsga".
	History []float64 `json:",omitempty"`
	// Quality is the matching per-generation population-statistics
	// series (sanitized for JSON: non-finite fields are zeroed, with
	// Feasible==0 marking all-infeasible generations).
	Quality search.QualityHistory `json:",omitempty"`
	// StoppedEarly reports that the plateau policy (Search.Patience)
	// ended the search before its configured generation count; the stop
	// generation is len(History).
	StoppedEarly bool `json:",omitempty"`
	// Front is the Pareto front of an "nsga" run over (panel area,
	// average latency), sorted by panel area; empty for scalar searches.
	Front []FrontMember `json:",omitempty"`
}

// FrontMember is one member of an "nsga" result's Pareto front.
type FrontMember struct {
	PanelArea  units.AreaCM2
	Cap        units.Capacitance
	InferHW    string      `json:",omitempty"`
	NPE        int         `json:",omitempty"`
	CacheBytes units.Bytes `json:",omitempty"`
	Latency    units.Seconds
	LatSP      float64
}

// Run executes the full CHRYSALIS pipeline for a spec under the full
// (co-design) search space.
func Run(spec Spec) (Result, error) {
	return RunBaseline(context.TODO(), spec, explore.Full)
}

// RunBaseline executes the pipeline with one of Table VI's ablated
// search spaces (or the full space). The "nsga" algorithm always
// searches the full co-design space (the front is a Figure-6 artifact,
// not a Table VI ablation) and reports the Pareto front alongside the
// minimum-lat·sp member as the headline design.
//
// Cancelling ctx ends the search between generations with the best
// design found so far. spec.Search.Trace, when set, rides ctx down to
// the explorer and the optimizer.
func RunBaseline(ctx context.Context, spec Spec, b explore.Baseline) (Result, error) {
	sc, err := spec.Scenario()
	if err != nil {
		return Result{}, err
	}
	sc.Warm = spec.Search.Warm
	cfg, err := gaConfig(spec.Search)
	if err != nil {
		return Result{}, err
	}
	ctx = obs.WithTrace(ctx, spec.Search.Trace)
	if spec.Search.withDefaults().Algorithm == "nsga" {
		return runPareto(ctx, sc, b, cfg)
	}
	out, err := explore.Explore(ctx, sc, b, cfg)
	if err != nil {
		return Result{}, err
	}
	return assemble(out), nil
}

// runPareto is the multi-objective pipeline: NSGA-II over (panel,
// latency), headline design = the front member minimizing lat·sp.
func runPareto(ctx context.Context, sc explore.Scenario, b explore.Baseline, cfg search.GAConfig) (Result, error) {
	po, err := explore.ParetoSearch(ctx, sc, cfg)
	if err != nil {
		return Result{}, err
	}
	if len(po.Front) == 0 {
		return Result{}, fmt.Errorf("core: empty Pareto front for %s/%s: %w",
			po.Scenario.Workload.Name, po.Scenario.Platform, explore.ErrNoFeasibleDesign)
	}
	r := assemble(explore.Outcome{
		Scenario: po.Scenario, Baseline: b, Best: po.Best, Value: po.Best.LatSP,
		Evals: po.Evals, Workers: po.Workers,
		CacheHits: po.CacheHits, CacheMisses: po.CacheMisses, WarmHits: po.WarmHits,
		History: po.History, Quality: po.Quality, StoppedEarly: po.StoppedEarly,
	})
	for _, p := range po.Front {
		m := FrontMember{PanelArea: p.PanelArea, Cap: p.Candidate.Cap,
			InferHW: "msp430", NPE: 1, Latency: p.Latency, LatSP: p.LatSP}
		if ac := p.Candidate.Accel; ac != nil {
			m.InferHW = ac.Arch.String()
			m.NPE = ac.NPE
			m.CacheBytes = ac.CacheBytes
		}
		r.Front = append(r.Front, m)
	}
	return r, nil
}

// gaConfig maps the search config onto GA hyperparameters.
func gaConfig(s SearchConfig) (search.GAConfig, error) {
	s = s.withDefaults()
	cfg := search.DefaultGA(s.Seed)
	switch s.Algorithm {
	case "ga", "nsga":
	case "random":
		// Random sampling is modeled as a GA with no selection pressure:
		// full mutation, no elitism.
		cfg.MutRate = 1
		cfg.MutSigma = 10
		cfg.Elite = 0
		cfg.TournamentK = 1
	default:
		return search.GAConfig{}, fmt.Errorf("core: unknown search algorithm %q (want ga, random or nsga)", s.Algorithm)
	}
	sizeGA(&cfg, s.Budget)
	cfg.Workers = s.Workers
	cfg.Patience = s.Patience
	cfg.PlateauTol = s.PlateauTol
	cfg.OnQuality = onGeneration(s.Progress, s.OnQuality)
	return cfg, nil
}

// onGeneration folds the two per-generation hooks into the optimizer's
// one: Progress reads the (Gen, Evals, Best) slice of the record.
func onGeneration(progress func(gen, evals int, best float64), onQuality func(search.GenQuality)) func(search.GenQuality) {
	if progress == nil {
		return onQuality
	}
	return func(q search.GenQuality) {
		progress(q.Gen, q.Evals, q.Best)
		if onQuality != nil {
			onQuality(q)
		}
	}
}

// sizeGA scales population/generations to approximate an evaluation
// budget.
func sizeGA(cfg *search.GAConfig, budget int) {
	if budget <= 0 {
		return
	}
	pop := int(math.Sqrt(float64(budget)))
	if pop < 8 {
		pop = 8
	}
	if pop > 80 {
		pop = 80
	}
	gens := budget / pop
	if gens < 2 {
		gens = 2
	}
	cfg.Population = pop
	cfg.Generations = gens
	if cfg.Elite >= pop {
		cfg.Elite = pop / 4
	}
	if cfg.TournamentK > pop {
		cfg.TournamentK = 2
	}
}

// assemble converts an explorer outcome into the public result. The
// convergence series are sanitized for the wire: Result round-trips
// through JSON (WAL journal, HTTP responses), which rejects IEEE
// infinities, so all-infeasible generations carry 0 with the matching
// Quality record's Feasible==0 marking them.
func assemble(out explore.Outcome) Result {
	ev := out.Best
	r := Result{
		PanelArea:   ev.Candidate.PanelArea,
		Cap:         ev.Candidate.Cap,
		InferHW:     "msp430",
		NPE:         1,
		AvgLatency:  ev.AvgLatency,
		LatSP:       ev.LatSP,
		Evals:       out.Evals,
		Workers:     out.Workers,
		CacheHits:   out.CacheHits,
		CacheMisses: out.CacheMisses,
		WarmHits:    out.WarmHits,
		Objective:   out.Scenario.Objective.String(),
		Baseline:    out.Baseline.String(),
		History:     sanitizeSeries(out.History),
		Quality:     out.Quality.SanitizeJSON(),

		StoppedEarly: out.StoppedEarly,
	}
	if ac := ev.Candidate.Accel; ac != nil {
		r.InferHW = ac.Arch.String()
		r.NPE = ac.NPE
		r.CacheBytes = ac.CacheBytes
	}
	for _, m := range ev.Mappings {
		nest := dataflow.BuildLoopNest(m.Plan.Layer, m.Mapping)
		r.Dataflow = append(r.Dataflow, LayerDataflow{
			Layer:      m.Layer,
			Dataflow:   m.Mapping.Dataflow.String(),
			Partition:  m.Mapping.Partition.String(),
			NTile:      m.Plan.Cost.NTileEffective,
			CkptBytes:  m.Plan.CkptBytes,
			Directives: dataflow.Directives(m.Plan.Layer, m.Mapping),
			LoopNest:   strings.Split(strings.TrimRight(nest.Render(), "\n"), "\n"),
		})
	}
	for _, e := range ev.PerEnv {
		r.PerEnv = append(r.PerEnv, EnvMetrics{
			Env:        e.Env,
			Latency:    e.Latency,
			Energy:     e.Energy,
			Efficiency: e.Efficiency,
		})
	}
	return r
}

// sanitizeSeries maps non-finite history entries to 0 so the series
// survives encoding/json.
func sanitizeSeries(h []float64) []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h))
	for i, v := range h {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = 0
		}
		out[i] = v
	}
	return out
}

// Verify re-evaluates a result with the co-simulator selected by
// spec.SimMode (the event-driven simulator by default) under the first
// environment and returns the simulated run, cross-checking the
// analytic search estimate (the paper's model-vs-platform validation
// flow, Fig. 7).
func Verify(spec Spec, res Result) (sim.Result, error) {
	run, _, err := VerifyFlight(spec, res, nil, nil)
	return run, err
}

// VerifyFlight is the full-introspection verification path: it plans
// the design under every environment of the spec, replays it through
// the co-simulator selected by spec.SimMode under the first one, with
// an optional event tracer (the hook the serving layer streams live
// telemetry from) AND an optional flight recorder, then — when a
// recorder was attached — audits the recorded physics for
// energy-conservation violations. The audit report is nil when rec is
// nil.
func VerifyFlight(spec Spec, res Result, tr sim.Tracer, rec *sim.Recorder) (sim.Result, *audit.Report, error) {
	sc, err := spec.Scenario()
	if err != nil {
		return sim.Result{}, nil, err
	}
	cand, err := candidateFromResult(spec, res)
	if err != nil {
		return sim.Result{}, nil, err
	}
	ev, err := explore.EvaluateCandidate(sc, cand)
	if err != nil {
		return sim.Result{}, nil, err
	}
	var env solar.Environment
	if len(sc.Envs) > 0 {
		env = sc.Envs[0]
	} else {
		env = solar.Bright() // the default pair opens with bright
	}
	cfg, err := ev.SimConfig(env)
	if err != nil {
		return sim.Result{}, nil, err
	}
	cfg.Trace, cfg.Record = tr, rec
	run, err := sim.RunMode(cfg, sc.SimMode)
	if err != nil {
		return sim.Result{}, nil, err
	}
	var rep *audit.Report
	if rec != nil {
		rep = audit.Run(rec, audit.Options{})
	}
	return run, rep, nil
}

func candidateFromResult(spec Spec, res Result) (explore.Candidate, error) {
	cand := explore.Candidate{PanelArea: res.PanelArea, Cap: res.Cap}
	if spec.Platform == explore.Accel {
		arch, err := accelArch(res.InferHW)
		if err != nil {
			return explore.Candidate{}, err
		}
		cand.Accel = &arch
		cand.Accel.NPE = res.NPE
		cand.Accel.CacheBytes = res.CacheBytes
	}
	return cand, nil
}
