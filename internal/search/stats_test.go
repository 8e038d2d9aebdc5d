package search

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 4})
	if s.Runs != 4 || s.Feasible != 4 {
		t.Fatalf("runs/feasible = %d/%d", s.Runs, s.Feasible)
	}
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Fatalf("stats = %+v", s)
	}
	// Sample std of {1,2,3,4} = sqrt(5/3).
	if math.Abs(s.Std-math.Sqrt(5.0/3.0)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if !strings.Contains(s.String(), "mean 2.5") {
		t.Fatalf("string = %q", s.String())
	}
}

func TestSummarizeWithInfeasible(t *testing.T) {
	s := Summarize([]float64{2, math.Inf(1), 4, math.NaN()})
	if s.Runs != 4 || s.Feasible != 2 {
		t.Fatalf("runs/feasible = %d/%d", s.Runs, s.Feasible)
	}
	if s.Mean != 3 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestSummarizeAllInfeasible(t *testing.T) {
	s := Summarize([]float64{math.Inf(1), math.Inf(1)})
	if s.Feasible != 0 || !math.IsInf(s.Mean, 1) {
		t.Fatalf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "infeasible in all") {
		t.Fatalf("string = %q", s.String())
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{5, 1, 3})
	if s.Median != 3 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestRunRepeatedGA(t *testing.T) {
	p := Problem{Dim: 3, Eval: sphere}
	cfg := DefaultGA(1)
	cfg.Population = 10
	cfg.Generations = 8
	stats, best, err := RunRepeatedGA(context.Background(), p, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 5 || stats.Feasible != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	if best.BestValue != stats.Min {
		t.Fatalf("best %v should equal stats min %v", best.BestValue, stats.Min)
	}
	if stats.Std < 0 {
		t.Fatal("negative std")
	}
	if _, _, err := RunRepeatedGA(context.Background(), p, cfg, 0); err == nil {
		t.Fatal("zero repetitions should fail")
	}
}

func TestParallelGADeterministic(t *testing.T) {
	p := Problem{Dim: 4, Eval: sphere}
	serial := DefaultGA(11)
	parallel := DefaultGA(11)
	parallel.Workers = 4
	a, err := RunGA(context.Background(), p, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGA(context.Background(), p, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestValue != b.BestValue {
		t.Fatalf("parallel evaluation changed the trajectory: %v vs %v", a.BestValue, b.BestValue)
	}
	if a.Evals != b.Evals {
		t.Fatalf("eval counts differ: %d vs %d", a.Evals, b.Evals)
	}
}
