package search

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// sphere is a convex test objective with minimum 0 at the center.
func sphere(g []float64) float64 {
	var s float64
	for _, x := range g {
		d := x - 0.5
		s += d * d
	}
	return s
}

func TestProblemValidate(t *testing.T) {
	if err := (Problem{Dim: 0, Eval: sphere}).Validate(); err == nil {
		t.Error("zero dim should fail")
	}
	if err := (Problem{Dim: 2}).Validate(); err == nil {
		t.Error("nil eval should fail")
	}
	if err := (Problem{Dim: 2, Eval: sphere}).Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func TestGAConfigValidate(t *testing.T) {
	good := DefaultGA(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*GAConfig){
		func(c *GAConfig) { c.Population = 1 },
		func(c *GAConfig) { c.Generations = 0 },
		func(c *GAConfig) { c.MutRate = -0.1 },
		func(c *GAConfig) { c.MutRate = 1.1 },
		func(c *GAConfig) { c.MutSigma = 0 },
		func(c *GAConfig) { c.TournamentK = 0 },
		func(c *GAConfig) { c.TournamentK = 1000 },
		func(c *GAConfig) { c.Elite = -1 },
		func(c *GAConfig) { c.Elite = 40 },
	}
	for i, mut := range cases {
		c := DefaultGA(1)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGAFindsSphereMinimum(t *testing.T) {
	p := Problem{Dim: 4, Eval: sphere}
	res, err := RunGA(context.Background(), p, DefaultGA(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue > 0.01 {
		t.Fatalf("GA best %v, want < 0.01", res.BestValue)
	}
	if res.Evals != 40+40*30-2*30 { // pop + gens*(pop-elite)
		t.Logf("evals = %d", res.Evals) // informational; exact count depends on elitism
	}
	if len(res.History) != 30 {
		t.Fatalf("history length %d, want 30", len(res.History))
	}
}

func TestGADeterministicPerSeed(t *testing.T) {
	p := Problem{Dim: 3, Eval: sphere}
	a, err := RunGA(context.Background(), p, DefaultGA(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGA(context.Background(), p, DefaultGA(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestValue != b.BestValue {
		t.Fatal("same seed must reproduce the same result")
	}
	c, err := RunGA(context.Background(), p, DefaultGA(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestValue == c.BestValue && equal(a.Best, c.Best) {
		t.Fatal("different seeds should explore differently")
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGAHistoryMonotone(t *testing.T) {
	// With elitism the best-so-far never regresses.
	p := Problem{Dim: 5, Eval: sphere}
	res, err := RunGA(context.Background(), p, DefaultGA(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-15 {
			t.Fatalf("history regressed at %d: %v -> %v", i, res.History[i-1], res.History[i])
		}
	}
}

func TestGAHandlesInfeasible(t *testing.T) {
	// Objective that is infeasible on half the space.
	eval := func(g []float64) float64 {
		if g[0] < 0.5 {
			return math.Inf(1)
		}
		return sphere(g)
	}
	res, err := RunGA(context.Background(), Problem{Dim: 2, Eval: eval}, DefaultGA(11))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.BestValue, 1) {
		t.Fatal("GA should find the feasible half")
	}
	if res.Best[0] < 0.5 {
		t.Fatal("best genome should be feasible")
	}
}

func TestGAKeepVisited(t *testing.T) {
	cfg := DefaultGA(5)
	cfg.KeepVisited = true
	res, err := RunGA(context.Background(), Problem{Dim: 2, Eval: sphere}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visited) != res.Evals {
		t.Fatalf("visited %d != evals %d", len(res.Visited), res.Evals)
	}
}

func TestGABeatsRandomOnBudget(t *testing.T) {
	// The paper's premise for using a GA: with an equal evaluation
	// budget it should find better optima than random sampling on a
	// structured landscape.
	rosen := func(g []float64) float64 {
		x, y := g[0]*4-2, g[1]*4-2
		return 100*(y-x*x)*(y-x*x) + (1-x)*(1-x)
	}
	p := Problem{Dim: 2, Eval: rosen}
	ga, err := RunGA(context.Background(), p, DefaultGA(21))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RunRandom(p, ga.Evals, 21, false)
	if err != nil {
		t.Fatal(err)
	}
	if ga.BestValue > rnd.BestValue*2 {
		t.Fatalf("GA (%v) much worse than random (%v) at equal budget", ga.BestValue, rnd.BestValue)
	}
}

// progress is the (Gen, Evals, Best) slice of a GenQuality record —
// the triple the per-generation progress hook of the serving and
// facade layers reads.
type progress struct {
	gen, evals int
	best       float64
}

func progressOf(qs []GenQuality) []progress {
	out := make([]progress, len(qs))
	for i, q := range qs {
		out[i] = progress{q.Gen, q.Evals, q.Best}
	}
	return out
}

func infeasible(g []float64) float64 { return math.Inf(1) }

// TestGAProgressCallback checks that the OnQuality stream carries, per
// generation, exactly the (Gen, Evals, Best) progress triple the
// optimizers report elsewhere — for the GA the 1-based generation, the
// cumulative evaluation count and the population's best value (its
// History entry), for NSGA-II the scalarized best of its Quality record
// — both while the best is finite and while nothing is feasible (+Inf).
func TestGAProgressCallback(t *testing.T) {
	cfg := DefaultGA(1)
	cfg.Population = 10
	cfg.Generations = 5
	for _, tc := range []struct {
		name string
		eval func([]float64) float64
	}{{"finite", sphere}, {"infeasible", infeasible}} {
		t.Run("ga/"+tc.name, func(t *testing.T) {
			c := cfg
			var seen []GenQuality
			c.OnQuality = func(q GenQuality) { seen = append(seen, q) }
			res, err := RunGA(context.Background(), Problem{Dim: 3, Eval: tc.eval}, c)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]progress, c.Generations)
			for i := range want {
				want[i] = progress{i + 1, c.Population + (i+1)*(c.Population-c.Elite), res.History[i]}
			}
			if got := progressOf(seen); !reflect.DeepEqual(got, want) {
				t.Fatalf("OnQuality progress = %v, want %v", got, want)
			}
			if last := seen[len(seen)-1]; last.Evals != res.Evals || last.Best != res.BestValue {
				t.Fatalf("final record %+v disagrees with result evals %d best %g", last, res.Evals, res.BestValue)
			}
			if math.IsInf(res.BestValue, 1) != (tc.name == "infeasible") {
				t.Fatalf("best %g under a %s objective", res.BestValue, tc.name)
			}
		})
	}
	for _, tc := range []struct {
		name string
		eval func([]float64) (float64, float64)
	}{{"finite", schaffer}, {"infeasible", func([]float64) (float64, float64) { return math.Inf(1), math.Inf(1) }}} {
		t.Run("nsga/"+tc.name, func(t *testing.T) {
			c := cfg
			var seen []GenQuality
			c.OnQuality = func(q GenQuality) { seen = append(seen, q) }
			_, stats, err := RunNSGA2(context.Background(), BiProblem{Dim: 1, Eval: tc.eval}, c)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]progress, c.Generations)
			for i := range want {
				want[i] = progress{i + 1, (i + 2) * c.Population, stats.Quality[i].Best}
				if math.IsInf(want[i].best, 1) != (tc.name == "infeasible") {
					t.Fatalf("generation %d best %g under a %s objective", i+1, want[i].best, tc.name)
				}
			}
			if got := progressOf(seen); !reflect.DeepEqual(got, want) {
				t.Fatalf("OnQuality progress = %v, want %v", got, want)
			}
		})
	}
}

// TestGAStopEndsSearchEarly checks ctx cancellation for both
// optimizers: cancelling ends the run before the next generation with
// the best found so far and a nil error, and an already-cancelled ctx
// runs no generation past the initial population.
func TestGAStopEndsSearchEarly(t *testing.T) {
	cfg := DefaultGA(1)
	cfg.Population = 10
	cfg.Generations = 1000
	run := func(t *testing.T, nsga bool, cancelAfter int) (gens, evals int, best float64) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelAfter == 0 {
			cancel()
		}
		c := cfg
		c.OnQuality = func(GenQuality) {
			if gens++; gens == cancelAfter {
				cancel()
			}
		}
		if nsga {
			front, stats, err := RunNSGA2(ctx, BiProblem{Dim: 1, Eval: schaffer}, c)
			if err != nil {
				t.Fatal(err)
			}
			if len(front) == 0 {
				t.Fatal("cancelled NSGA-II run must still return its front")
			}
			return gens, stats.Evals, front[0].F1
		}
		res, err := RunGA(ctx, Problem{Dim: 3, Eval: sphere}, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Best) != 3 || math.IsInf(res.BestValue, 1) || len(res.History) != gens {
			t.Fatalf("cancelled search must still return the best so far: %+v", res)
		}
		return gens, res.Evals, res.BestValue
	}
	for _, name := range []string{"ga", "nsga"} {
		nsga := name == "nsga"
		t.Run(name, func(t *testing.T) {
			gens, evals, _ := run(t, nsga, 3)
			if gens != 3 {
				t.Fatalf("ran %d generations, want 3", gens)
			}
			if evals >= cfg.Population*cfg.Generations {
				t.Fatal("cancel did not shorten the search")
			}
			if gens, evals, best := run(t, nsga, 0); gens != 0 || evals != cfg.Population || math.IsInf(best, 1) {
				t.Fatalf("pre-cancelled run: %d generations, %d evals, best %g; want 0, %d, finite",
					gens, evals, best, cfg.Population)
			}
		})
	}
}

func TestRunRandom(t *testing.T) {
	res, err := RunRandom(Problem{Dim: 3, Eval: sphere}, 500, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 500 || len(res.Visited) != 500 {
		t.Fatalf("evals %d, visited %d", res.Evals, len(res.Visited))
	}
	if res.BestValue > 0.1 {
		t.Fatalf("random best %v too poor", res.BestValue)
	}
	if _, err := RunRandom(Problem{Dim: 3, Eval: sphere}, 0, 1, false); err == nil {
		t.Fatal("zero samples should fail")
	}
}

func TestRunGrid(t *testing.T) {
	res, err := RunGrid(Problem{Dim: 2, Eval: sphere}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 121 {
		t.Fatalf("evals = %d, want 121", res.Evals)
	}
	// Grid point (0.5, 0.5) exists for k=11, so the exact minimum is hit.
	if res.BestValue > 1e-12 {
		t.Fatalf("grid should hit exact center, got %v", res.BestValue)
	}
	if _, err := RunGrid(Problem{Dim: 2, Eval: sphere}, 1); err == nil {
		t.Fatal("k=1 should fail")
	}
	if _, err := RunGrid(Problem{Dim: 8, Eval: sphere}, 100); err == nil {
		t.Fatal("oversized grid should fail")
	}
}

func TestMapFloat(t *testing.T) {
	if got := MapFloat(0, 1, 30, false); got != 1 {
		t.Fatalf("MapFloat(0) = %v", got)
	}
	if got := MapFloat(1, 1, 30, false); got != 30 {
		t.Fatalf("MapFloat(1) = %v", got)
	}
	if got := MapFloat(0.5, 1, 30, false); got != 15.5 {
		t.Fatalf("MapFloat(0.5) = %v", got)
	}
	// Log scaling: midpoint of 1uF..10mF (4 decades) is 100uF.
	got := MapFloat(0.5, 1e-6, 10e-3, true)
	if math.Abs(got-1e-4) > 1e-9 {
		t.Fatalf("log midpoint = %v, want 1e-4", got)
	}
	// Clamping.
	if MapFloat(-1, 0, 10, false) != 0 || MapFloat(2, 0, 10, false) != 10 {
		t.Fatal("out-of-range u should clamp")
	}
}

func TestMapIntAndChoice(t *testing.T) {
	if MapInt(0, 1, 168) != 1 || MapInt(1, 1, 168) != 168 {
		t.Fatal("MapInt endpoints")
	}
	// Every value in range must be reachable and roughly uniform.
	counts := map[int]int{}
	for i := 0; i <= 1000; i++ {
		counts[MapInt(float64(i)/1000, 0, 4)]++
	}
	for v := 0; v <= 4; v++ {
		if counts[v] == 0 {
			t.Fatalf("value %d unreachable", v)
		}
	}
	if MapChoice(0.99, 3) != 2 || MapChoice(0, 3) != 0 {
		t.Fatal("MapChoice endpoints")
	}
	if MapInt(0.5, 5, 5) != 5 {
		t.Fatal("degenerate range")
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point2{
		{X: 1, Y: 10, Tag: 0},
		{X: 2, Y: 5, Tag: 1},
		{X: 3, Y: 6, Tag: 2}, // dominated by (2,5)
		{X: 4, Y: 1, Tag: 3},
		{X: 4, Y: 2, Tag: 4}, // dominated by (4,1)
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front = %v", front)
	}
	wantTags := []int{0, 1, 3}
	for i, p := range front {
		if p.Tag != wantTags[i] {
			t.Fatalf("front tags = %v, want %v", front, wantTags)
		}
	}
	if ParetoFront(nil) != nil {
		t.Fatal("empty input should give nil front")
	}
}

func TestParetoFrontInvariant(t *testing.T) {
	// Property: no front member dominates another front member.
	f := func(raw []uint16) bool {
		var pts []Point2
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point2{X: float64(raw[i] % 100), Y: float64(raw[i+1] % 100), Tag: i})
		}
		front := ParetoFront(pts)
		for i := range front {
			for j := range front {
				if i != j && Dominates(front[i], front[j]) {
					return false
				}
			}
		}
		// Every original point is dominated-or-equal by some front member.
		for _, p := range pts {
			ok := false
			for _, f := range front {
				if f == p || Dominates(f, p) || (f.X == p.X && f.Y == p.Y) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDominates(t *testing.T) {
	a := Point2{X: 1, Y: 1}
	b := Point2{X: 2, Y: 2}
	if !Dominates(a, b) || Dominates(b, a) {
		t.Fatal("basic domination")
	}
	if Dominates(a, a) {
		t.Fatal("a point does not dominate itself")
	}
}
