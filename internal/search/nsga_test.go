package search

import (
	"context"
	"math"
	"testing"
)

// schaffer is the classic bi-objective test problem: f1 = x², f2 =
// (x−2)² over x ∈ [−A, A]; the true Pareto set is x ∈ [0, 2] with
// front f2 = (√f1 − 2)².
func schaffer(g []float64) (float64, float64) {
	x := g[0]*8 - 4
	return x * x, (x - 2) * (x - 2)
}

func nsgaCfg(seed int64) GAConfig {
	cfg := DefaultGA(seed)
	cfg.Population = 40
	cfg.Generations = 40
	return cfg
}

func TestNSGA2Validation(t *testing.T) {
	if _, _, err := RunNSGA2(context.Background(), BiProblem{Dim: 0, Eval: schaffer}, nsgaCfg(1)); err == nil {
		t.Error("zero dim should fail")
	}
	if _, _, err := RunNSGA2(context.Background(), BiProblem{Dim: 1}, nsgaCfg(1)); err == nil {
		t.Error("nil eval should fail")
	}
	bad := nsgaCfg(1)
	bad.Population = 1
	if _, _, err := RunNSGA2(context.Background(), BiProblem{Dim: 1, Eval: schaffer}, bad); err == nil {
		t.Error("bad GA config should fail")
	}
}

func TestNSGA2FindsSchafferFront(t *testing.T) {
	front, stats, err := RunNSGA2(context.Background(), BiProblem{Dim: 1, Eval: schaffer}, nsgaCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 10 {
		t.Fatalf("front has only %d points", len(front))
	}
	if stats.Evals < 40*40 {
		t.Fatalf("evals = %d", stats.Evals)
	}
	if len(stats.Quality) != 40 || len(stats.History) != 40 {
		t.Fatalf("telemetry lengths = %d/%d, want 40", len(stats.Quality), len(stats.History))
	}
	for i, q := range stats.Quality {
		if q.Gen != i+1 || q.FrontSize < 1 || q.Hypervolume <= 0 {
			t.Fatalf("generation %d quality malformed: %+v", i+1, q)
		}
		if q.Hypervolume != stats.History[i] {
			t.Fatalf("history[%d] diverges from quality record", i)
		}
	}
	// Front must be sorted by F1 with F2 strictly decreasing
	// (non-dominated), and close to the analytic front.
	for i, p := range front {
		if i > 0 {
			if p.F1 < front[i-1].F1 {
				t.Fatal("front not sorted by F1")
			}
			if p.F2 >= front[i-1].F2 {
				t.Fatalf("front point %d dominated: %+v after %+v", i, p, front[i-1])
			}
		}
		want := (math.Sqrt(p.F1) - 2) * (math.Sqrt(p.F1) - 2)
		if math.Abs(p.F2-want) > 0.3 {
			t.Fatalf("point %d off the analytic front: f1=%.3f f2=%.3f want f2≈%.3f",
				i, p.F1, p.F2, want)
		}
	}
	// Endpoints should approach the extremes (0,4) and (4,0).
	if front[0].F1 > 0.3 || front[len(front)-1].F2 > 0.3 {
		t.Fatalf("front endpoints not reached: %+v .. %+v", front[0], front[len(front)-1])
	}
}

func TestNSGA2Deterministic(t *testing.T) {
	a, _, err := RunNSGA2(context.Background(), BiProblem{Dim: 1, Eval: schaffer}, nsgaCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunNSGA2(context.Background(), BiProblem{Dim: 1, Eval: schaffer}, nsgaCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("front sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].F1 != b[i].F1 || a[i].F2 != b[i].F2 {
			t.Fatal("same seed must reproduce the same front")
		}
	}
}

func TestNSGA2HandlesInfeasibleRegions(t *testing.T) {
	// Half the space is infeasible; the front must still emerge from
	// the feasible half.
	eval := func(g []float64) (float64, float64) {
		if g[0] < 0.5 {
			return math.Inf(1), math.Inf(1)
		}
		return schaffer([]float64{(g[0] - 0.5) * 2})
	}
	front, _, err := RunNSGA2(context.Background(), BiProblem{Dim: 1, Eval: eval}, nsgaCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("no feasible front found")
	}
	for _, p := range front {
		if math.IsInf(p.F1, 1) || math.IsInf(p.F2, 1) {
			t.Fatal("infeasible point leaked into the front")
		}
	}
}

func TestNSGA2BeatsRandomScanHypervolume(t *testing.T) {
	// At equal evaluation budgets the NSGA-II front should dominate at
	// least as much objective space as a random scan's front.
	front, stats, err := RunNSGA2(context.Background(), BiProblem{Dim: 1, Eval: schaffer}, nsgaCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	evals := stats.Evals
	// Random scan with the same budget.
	rngPts := make([]Point2, 0, evals)
	probe := Problem{Dim: 1, Eval: func(g []float64) float64 {
		f1, f2 := schaffer(g)
		rngPts = append(rngPts, Point2{X: f1, Y: f2})
		return f1 + f2
	}}
	if _, err := RunRandom(probe, evals, 9, false, 1); err != nil {
		t.Fatal(err)
	}
	rndFront := ParetoFront(rngPts)

	ref := 20.0 // reference point beyond both fronts
	hvNSGA := Hypervolume2(front, ref, ref)
	var rnd []FrontPoint
	for _, p := range rndFront {
		rnd = append(rnd, FrontPoint{F1: p.X, F2: p.Y})
	}
	hvRnd := Hypervolume2(rnd, ref, ref)
	if hvNSGA < hvRnd*0.95 {
		t.Fatalf("NSGA-II hypervolume %.3f worse than random %.3f", hvNSGA, hvRnd)
	}
}
