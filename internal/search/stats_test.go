package search

import (
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
