package search

import (
	"context"
	"math"
	"reflect"
	"testing"
)

func fp(pairs ...float64) []FrontPoint {
	front := make([]FrontPoint, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		front = append(front, FrontPoint{F1: pairs[i], F2: pairs[i+1]})
	}
	return front
}

// TestHypervolume2Goldens pins the promoted hypervolume on clean and
// degenerate fronts (the same shapes TestParetoFrontDuplicatesAndDegenerates
// exercises for ParetoFront: duplicates, collinear ties, singletons).
func TestHypervolume2Goldens(t *testing.T) {
	cases := []struct {
		name       string
		front      []FrontPoint
		refX, refY float64
		want       float64
	}{
		{"empty", nil, 10, 10, 0},
		{"single point", fp(7, 7), 10, 10, 9},
		{"staircase", fp(1, 10, 2, 5, 4, 1), 12, 12, 11*2 + 10*5 + 8*4},
		// Exact duplicates contribute once.
		{"duplicates", fp(1, 1, 1, 1, 1, 1), 10, 10, 81},
		{"duplicated staircase", fp(1, 10, 1, 10, 2, 5, 2, 5, 4, 1, 4, 1), 12, 12, 11*2 + 10*5 + 8*4},
		// Collinear ties along one axis: only the best member counts.
		{"same F1", fp(2, 9, 2, 3, 2, 5), 10, 10, 8 * 7},
		{"same F2", fp(4, 2, 1, 2, 3, 2), 10, 10, 9 * 8},
		// Dominated members contribute nothing regardless of order.
		{"dominated member", fp(3, 20, 1, 10, 2, 5, 4, 1), 12, 12, 11*2 + 10*5 + 8*4},
		// Points at or beyond the reference in either axis are skipped
		// entirely — dominated area outside the box is not counted.
		{"beyond reference", fp(11, 1, 1, 11, 5, 5), 10, 10, 25},
		{"on reference", fp(10, 1, 1, 10), 10, 10, 0},
	}
	for _, tc := range cases {
		if got := Hypervolume2(tc.front, tc.refX, tc.refY); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: Hypervolume2 = %g, want %g", tc.name, got, tc.want)
		}
	}
	// Input order must not matter.
	a := fp(1, 10, 2, 5, 4, 1, 3, 20)
	b := fp(3, 20, 4, 1, 2, 5, 1, 10)
	if Hypervolume2(a, 12, 12) != Hypervolume2(b, 12, 12) {
		t.Error("hypervolume depends on input order")
	}
}

func TestSpacing(t *testing.T) {
	if got := Spacing(fp(1, 1)); got != 0 {
		t.Errorf("singleton spacing = %g, want 0", got)
	}
	if got := Spacing(fp(1, 1, 2, 2)); got != 0 {
		t.Errorf("two-point spacing = %g, want 0", got)
	}
	// Perfectly even staircase: zero deviation.
	if got := Spacing(fp(0, 4, 1, 3, 2, 2, 3, 1)); math.Abs(got) > 1e-12 {
		t.Errorf("even front spacing = %g, want 0", got)
	}
	// Uneven gaps (1 and 3 along F1): sd of {1,3} = 1.
	if got := Spacing(fp(0, 0, 1, 0, 4, 0)); math.Abs(got-1) > 1e-12 {
		t.Errorf("uneven front spacing = %g, want 1", got)
	}
}

func TestScalarQuality(t *testing.T) {
	inf := math.Inf(1)
	genomes := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	q := scalarQuality(3, 120, []float64{4, 1, inf, 3}, genomes)
	if q.Gen != 3 || q.Evals != 120 {
		t.Fatalf("bookkeeping fields wrong: %+v", q)
	}
	if q.Feasible != 3 || q.Best != 1 || q.Spread != 3 || q.Median != 3 {
		t.Fatalf("objective stats wrong: %+v", q)
	}
	if math.Abs(q.Mean-8.0/3) > 1e-12 {
		t.Fatalf("mean = %g", q.Mean)
	}
	// Unit square corners: every corner is √2/2 from the centroid.
	if math.Abs(q.Diversity-math.Sqrt2/2) > 1e-12 {
		t.Fatalf("diversity = %g, want %g", q.Diversity, math.Sqrt2/2)
	}

	// All-infeasible generation: summary pins to +Inf, Feasible 0.
	q = scalarQuality(1, 10, []float64{inf, inf}, genomes[:2])
	if q.Feasible != 0 || !math.IsInf(q.Best, 1) || !math.IsInf(q.Mean, 1) {
		t.Fatalf("infeasible generation stats wrong: %+v", q)
	}
	s := q.SanitizeJSON()
	if s.Best != 0 || s.Mean != 0 || s.Feasible != 0 {
		t.Fatalf("sanitizeJSON left non-finite fields: %+v", s)
	}
}

func TestPlateauObserve(t *testing.T) {
	// Patience 2, 1% tolerance: two sub-tolerance generations stop.
	p := newPlateau(2, 0.01)
	steps := []struct {
		score    float64
		stagnant int
		stop     bool
	}{
		{100, 0, false},  // first feasible score = progress
		{90, 0, false},   // 10% better
		{89.9, 1, false}, // 0.1% — stagnant
		{89.8, 2, true},  // cumulative drift still < 1% of 90 — stop
	}
	for i, s := range steps {
		stag, stop := p.observe(s.score)
		if stag != s.stagnant || stop != s.stop {
			t.Fatalf("step %d: got (%d, %v), want (%d, %v)", i, stag, stop, s.stagnant, s.stop)
		}
	}

	// Slow drift that accumulates past the tolerance resets the counter.
	p = newPlateau(3, 0.01)
	p.observe(100)
	p.observe(99.6) // 0.4% — stagnant (1)
	if stag, _ := p.observe(98.9); stag != 0 {
		t.Fatalf("cumulative 1.1%% improvement should reset, got stagnation %d", stag)
	}

	// Infinite scores are never progress; first feasible one is.
	p = newPlateau(2, 0)
	inf := math.Inf(1)
	if stag, stop := p.observe(inf); stag != 1 || stop {
		t.Fatalf("inf start: (%d, %v)", stag, stop)
	}
	if stag, stop := p.observe(inf); stag != 2 || !stop {
		t.Fatalf("inf plateau should stop: (%d, %v)", stag, stop)
	}
	p = newPlateau(0, 0)
	for i := 0; i < 5; i++ {
		if _, stop := p.observe(inf); stop {
			t.Fatal("patience 0 must never stop")
		}
	}
}

// TestRunGAQualityAndPatience checks the GA-side telemetry contract:
// Quality parallels History, and Patience stops a stalled run early at
// a deterministic generation.
func TestRunGAQualityAndPatience(t *testing.T) {
	sphere := Problem{Dim: 3, Eval: func(g []float64) float64 {
		s := 0.0
		for _, v := range g {
			s += (v - 0.4) * (v - 0.4)
		}
		return s
	}}
	cfg := DefaultGA(5)
	cfg.Population = 16
	cfg.Generations = 60
	full, err := RunGA(context.Background(), sphere, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Quality) != len(full.History) {
		t.Fatalf("quality length %d != history length %d", len(full.Quality), len(full.History))
	}
	for i, q := range full.Quality {
		if q.Gen != i+1 || q.Best != full.History[i] || q.Feasible != cfg.Population {
			t.Fatalf("generation %d quality malformed: %+v", i+1, q)
		}
		if q.Mean < q.Best || q.Spread < 0 || q.Diversity < 0 {
			t.Fatalf("generation %d stats inconsistent: %+v", i+1, q)
		}
	}
	if full.StoppedEarly {
		t.Fatal("patience disabled must not stop early")
	}

	cfg.Patience = 4
	var seen []GenQuality
	cfg.OnQuality = func(q GenQuality) { seen = append(seen, q) }
	early, err := RunGA(context.Background(), sphere, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !early.StoppedEarly || len(early.History) >= len(full.History) {
		t.Fatalf("patience should stop early: stopped=%v after %d generations",
			early.StoppedEarly, len(early.History))
	}
	if last := early.Quality[len(early.Quality)-1]; last.Stagnation < cfg.Patience {
		t.Fatalf("final stagnation %d < patience %d", last.Stagnation, cfg.Patience)
	}
	if !reflect.DeepEqual(seen, []GenQuality(early.Quality)) {
		t.Fatal("OnQuality stream diverges from Result.Quality")
	}
	// The truncated run is a prefix of the full run — early stop must
	// not perturb the trajectory it did run.
	if !reflect.DeepEqual(early.History, full.History[:len(early.History)]) {
		t.Fatal("early-stopped history is not a prefix of the full run")
	}
}

// TestNSGA2PatienceStopsOnHypervolumePlateau checks the bi-objective
// plateau policy and its determinism across worker counts.
func TestNSGA2PatienceStopsOnHypervolumePlateau(t *testing.T) {
	cfg := nsgaCfg(11)
	cfg.Generations = 60
	cfg.Patience = 3
	run := func(workers int) ([]FrontPoint, NSGAStats) {
		c := cfg
		c.Workers = workers
		front, stats, err := RunNSGA2(context.Background(), BiProblem{Dim: 1, Eval: schaffer}, c)
		if err != nil {
			t.Fatal(err)
		}
		return front, stats
	}
	front1, stats1 := run(1)
	front8, stats8 := run(8)
	if !stats1.StoppedEarly || len(stats1.History) >= 60 {
		t.Fatalf("schaffer run should plateau before 60 generations, ran %d", len(stats1.History))
	}
	if !reflect.DeepEqual(stats1, stats8) {
		t.Fatal("NSGA stats differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(front1, front8) {
		t.Fatal("NSGA fronts differ between 1 and 8 workers")
	}
}
