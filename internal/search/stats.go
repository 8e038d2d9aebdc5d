package search

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarizes repeated optimization runs across seeds — the
// robustness view of a stochastic search (the paper runs one large
// search per scenario; this library also supports quantifying
// seed-to-seed variance).
type Stats struct {
	Runs   int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	// Feasible counts runs that found any finite objective value.
	Feasible int
}

// Summarize computes statistics over a set of best-objective values.
// Infinite values (infeasible runs) are excluded from the moments but
// counted via Runs − Feasible.
func Summarize(values []float64) Stats {
	s := Stats{Runs: len(values), Min: math.Inf(1), Max: math.Inf(-1)}
	var finite []float64
	for _, v := range values {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		finite = append(finite, v)
	}
	s.Feasible = len(finite)
	if len(finite) == 0 {
		s.Min, s.Max = math.Inf(1), math.Inf(1)
		s.Mean, s.Median = math.Inf(1), math.Inf(1)
		return s
	}
	sort.Float64s(finite)
	s.Min = finite[0]
	s.Max = finite[len(finite)-1]
	var sum float64
	for _, v := range finite {
		sum += v
	}
	s.Mean = sum / float64(len(finite))
	var ss float64
	for _, v := range finite {
		d := v - s.Mean
		ss += d * d
	}
	if len(finite) > 1 {
		s.Std = math.Sqrt(ss / float64(len(finite)-1))
	}
	mid := len(finite) / 2
	if len(finite)%2 == 1 {
		s.Median = finite[mid]
	} else {
		s.Median = (finite[mid-1] + finite[mid]) / 2
	}
	return s
}

// String renders the summary compactly.
func (s Stats) String() string {
	if s.Feasible == 0 {
		return fmt.Sprintf("infeasible in all %d runs", s.Runs)
	}
	return fmt.Sprintf("mean %.4g ± %.2g (min %.4g, median %.4g, max %.4g, %d/%d feasible)",
		s.Mean, s.Std, s.Min, s.Median, s.Max, s.Feasible, s.Runs)
}
