package chrysalis

// Benchmarks that regenerate each table and figure of the paper's
// evaluation (via the same internal/experiments generators the
// cmd/experiments binary uses), plus micro-benchmarks of the pipeline
// stages: the dataflow cost model, the intermittent planner, the
// analytic evaluator, the step simulator, and the bi-level search.
//
// Run everything:   go test -bench=. -benchmem
// One figure only:  go test -bench=BenchmarkFig9

import (
	"errors"
	"io"
	"testing"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/experiments"
	"chrysalis/internal/explore"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/msp430"
	"chrysalis/internal/search"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
)

// benchOpts keeps per-iteration work bounded so -bench runs finish in
// minutes; cmd/experiments runs the full-budget versions.
func benchOpts() experiments.Options {
	return experiments.Options{Budget: 60, ParetoSamples: 80, Fast: true, Seed: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	g, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	o := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Run(io.Discard, o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per table/figure of the evaluation section ---

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFig2a(b *testing.B)    { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)    { benchExperiment(b, "fig2b") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }

// --- Pipeline micro-benchmarks ---

// BenchmarkCostModel measures one dataflow cost evaluation (the inner
// loop of every search).
func BenchmarkCostModel(b *testing.B) {
	l := dnn.CIFAR10().Layers[3]
	hw := msp430.Config{}.HW()
	m := dataflow.Mapping{Dataflow: dataflow.OS, Partition: dataflow.BySpatial, NTile: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataflow.Evaluate(l, 2, m, hw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanWorkload measures the intermittent planner across a
// whole network (Eq. 8 feasibility scan per layer).
func BenchmarkPlanWorkload(b *testing.B) {
	hw := msp430.Config{}.HW()
	w := dnn.CIFAR10()
	budget := intermittent.FixedBudget(3e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := intermittent.PlanWorkload(w, dataflow.OS, hw, 0.05, budget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticEvaluate measures one full candidate evaluation
// (inner mapping search + Eq. 5/7 under two environments) — the unit
// of work the outer GA spends its budget on.
func BenchmarkAnalyticEvaluate(b *testing.B) {
	sc := explore.Scenario{Workload: dnn.HAR(), Platform: explore.MSP, Objective: explore.LatSP}
	cand := explore.Candidate{PanelArea: 8, Cap: 100e-6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explore.EvaluateCandidate(sc, cand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepSimulator measures the step-based co-simulation of one
// HAR inference (hundreds of 1 ms steps with checkpointing).
func BenchmarkStepSimulator(b *testing.B) {
	hw := msp430.Config{}.HW()
	es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Bright())
	if err != nil {
		b.Fatal(err)
	}
	budget, _ := es.CycleBudget(msp430.Config{}.ActivePower())
	plans, err := intermittent.PlanWorkload(dnn.HAR(), dataflow.OS, hw, 0.05,
		intermittent.FixedBudget(budget*0.8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{Energy: es, HW: hw, Plans: plans})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("benchmark run did not complete")
		}
	}
}

// BenchmarkEventSimulator measures the event-driven analytic
// co-simulation of the same HAR inference BenchmarkStepSimulator grinds
// step by step: quiet windows are solved in closed form, so the run
// collapses to a few dozen literal steps plus analytic jumps.
func BenchmarkEventSimulator(b *testing.B) {
	hw := msp430.Config{}.HW()
	es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Bright())
	if err != nil {
		b.Fatal(err)
	}
	budget, _ := es.CycleBudget(msp430.Config{}.ActivePower())
	plans, err := intermittent.PlanWorkload(dnn.HAR(), dataflow.OS, hw, 0.05,
		intermittent.FixedBudget(budget*0.8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunEvent(sim.Config{Energy: es, HW: hw, Plans: plans})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("benchmark run did not complete")
		}
	}
}

// BenchmarkGASearch measures a complete (small) bi-level search on the
// existing-AuT platform.
func BenchmarkGASearch(b *testing.B) {
	sc := explore.Scenario{Workload: dnn.SimpleConv(), Platform: explore.MSP, Objective: explore.LatSP}
	cfg := search.DefaultGA(1)
	cfg.Population = 10
	cfg.Generations = 6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := explore.Explore(sc, explore.Full, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccelSearch measures the accelerator-platform search on the
// heaviest Table V workload (VGG16). With this small a GA budget some
// seeds legitimately end with no feasible design; the search still runs
// full-length, so those iterations are kept.
func BenchmarkAccelSearch(b *testing.B) {
	sc := explore.Scenario{Workload: dnn.VGG16(), Platform: explore.Accel, Objective: explore.LatSP}
	cfg := search.DefaultGA(1)
	cfg.Population = 10
	cfg.Generations = 6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := explore.Explore(sc, explore.Full, cfg); err != nil && !errors.Is(err, explore.ErrNoFeasibleDesign) {
			b.Fatal(err)
		}
	}
}

// --- Warm-start benchmarks (the PR10 cross-job reuse tier) ---

// benchWarmSearch is the shared warm-start harness: prime a
// process-lifetime tier with one untimed search, then time searches
// over a perturbed energy-gene space (a slightly tighter panel bound —
// a genuinely different job whose panel/cap decode differs) against
// the same tier. Plan ladders are energy-independent by construction,
// so the warm tier serves them unchanged; this is the chrysalisd
// serving shape, where a fleet of near-duplicate jobs shares one tier
// and the steady state is almost entirely warm. The seed stays fixed
// (unlike the cold benchmarks' per-iteration seeds) because the
// near-duplicate stream, not seed averaging, is the thing measured.
func benchWarmSearch(b *testing.B, sc explore.Scenario) {
	b.Helper()
	warm := explore.NewWarmCache(256 << 20)
	sc.Warm = warm
	cfg := search.DefaultGA(1)
	cfg.Population = 10
	cfg.Generations = 6
	if _, err := explore.Explore(sc, explore.Full, cfg); err != nil && !errors.Is(err, explore.ErrNoFeasibleDesign) {
		b.Fatal(err)
	}
	perturbed := sc
	perturbed.MaxPanel = 29.97 // 0.1% under the 30 cm² default bound
	var warmHits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := explore.Explore(perturbed, explore.Full, cfg)
		if err != nil && !errors.Is(err, explore.ErrNoFeasibleDesign) {
			b.Fatal(err)
		}
		warmHits += out.WarmHits
	}
	b.StopTimer()
	if warmHits == 0 {
		b.Fatal("warm tier never engaged: 0 warm hits across all iterations")
	}
}

// BenchmarkGASearchWarm re-runs BenchmarkGASearch's search warm. The
// MSP scenario has a single hardware fingerprint, so the tier saves
// exactly the one ladder build each job would otherwise pay.
func BenchmarkGASearchWarm(b *testing.B) {
	benchWarmSearch(b, explore.Scenario{Workload: dnn.SimpleConv(), Platform: explore.MSP, Objective: explore.LatSP})
}

// BenchmarkAccelSearchWarm re-runs BenchmarkAccelSearch's search warm:
// the accelerator space fingerprints on (NPE, cache), so each search
// builds hundreds of ladder sets cold and the tier absorbs nearly all
// of them.
func BenchmarkAccelSearchWarm(b *testing.B) {
	benchWarmSearch(b, explore.Scenario{Workload: dnn.VGG16(), Platform: explore.Accel, Objective: explore.LatSP})
}

// --- Ablation benchmarks for DESIGN.md's called-out design choices ---

// BenchmarkAblationStepSize compares simulator cost across step sizes
// (the paper's "adjustable based on requirements" knob).
func BenchmarkAblationStepSize(b *testing.B) {
	hw := msp430.Config{}.HW()
	for _, step := range []float64{0.5e-3, 1e-3, 2e-3, 5e-3} {
		b.Run(Seconds(step).String(), func(b *testing.B) {
			es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Bright())
			if err != nil {
				b.Fatal(err)
			}
			budget, _ := es.CycleBudget(msp430.Config{}.ActivePower())
			plans, err := intermittent.PlanWorkload(dnn.HAR(), dataflow.OS, hw, 0.05,
				intermittent.FixedBudget(budget*0.8))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{Energy: es, HW: hw, Plans: plans, Step: Seconds(step)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSampler compares GA against random sampling at equal
// evaluation budgets (the Optuna-GA design choice).
func BenchmarkAblationSampler(b *testing.B) {
	for _, alg := range []string{"ga", "random"} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := Spec{
					WorkloadName: "simpleconv",
					Platform:     MSP430,
					Objective:    MinimizeLatTimesSP,
					Search:       SearchConfig{Algorithm: alg, Budget: 60, Seed: int64(i)},
				}
				if _, err := Design(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNSGAFront measures the multi-objective Pareto search used by
// the Figure 6 front refinement.
func BenchmarkNSGAFront(b *testing.B) {
	sc := explore.Scenario{Workload: dnn.SimpleConv(), Platform: explore.MSP, Objective: explore.LatSP}
	cfg := search.DefaultGA(1)
	cfg.Population = 16
	cfg.Generations = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := explore.ParetoSearch(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivity measures the tornado analysis around a design.
func BenchmarkSensitivity(b *testing.B) {
	spec := Spec{
		WorkloadName: "har",
		Platform:     MSP430,
		Objective:    MinimizeLatTimesSP,
		Search:       SearchConfig{Budget: 60, Seed: 1},
	}
	res, err := Design(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sensitivity(spec, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCheckpointPolicy compares simulator cost under the
// three checkpoint policies.
func BenchmarkAblationCheckpointPolicy(b *testing.B) {
	for _, pol := range []sim.Policy{sim.PolicyEveryTile, sim.PolicyAdaptive} {
		b.Run(pol.String(), func(b *testing.B) {
			hw := msp430.Config{}.HW()
			es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Bright())
			if err != nil {
				b.Fatal(err)
			}
			budget, _ := es.CycleBudget(msp430.Config{}.ActivePower())
			plans, err := intermittent.PlanWorkload(dnn.HAR(), dataflow.OS, hw, 0.05,
				intermittent.FixedBudget(budget*0.8))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{Energy: es, HW: hw, Plans: plans, Policy: pol}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
