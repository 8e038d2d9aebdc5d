package explore

import (
	"context"
	"math"
	"sync"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dnn"
	"chrysalis/internal/units"
)

// TestExploreWorkersDefaultsToAllCores checks the Workers=0 default
// resolves to GOMAXPROCS and is reported in the Outcome.
func TestExploreWorkersDefaultsToAllCores(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}
	out, err := Explore(context.Background(), sc, Full, smallGA(11))
	if err != nil {
		t.Fatal(err)
	}
	if out.Workers != resolveWorkers(0) {
		t.Errorf("default Outcome.Workers = %d, want %d", out.Workers, resolveWorkers(0))
	}
	cfg := smallGA(11)
	cfg.Workers = -1
	out, err = Explore(context.Background(), sc, Full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Workers != 1 {
		t.Errorf("Workers=-1 Outcome.Workers = %d, want 1 (serial opt-out)", out.Workers)
	}
}

// TestBestTrackerTieBreak checks ties on the objective value resolve to
// the lowest evaluation index regardless of observation order — the
// serial fold's first-wins semantics.
func TestBestTrackerTieBreak(t *testing.T) {
	bt := newBestTracker()
	bt.observe(7, 1.5, []float64{0.7})
	bt.observe(3, 1.5, []float64{0.3}) // same value, lower index: must win
	bt.observe(9, 1.5, []float64{0.9}) // same value, higher index: must lose
	if bt.index != 3 || bt.genome[0] != 0.3 {
		t.Errorf("tie-break picked index %d genome %v, want index 3 genome [0.3]", bt.index, bt.genome)
	}
	bt.observe(20, 1.0, []float64{0.2}) // strictly better value wins at any index
	if bt.index != 20 || bt.value != 1.0 {
		t.Errorf("strict improvement lost: index %d value %v", bt.index, bt.value)
	}
	bt.observe(1, math.Inf(1), []float64{0.1}) // infeasible never recorded
	if bt.index != 20 {
		t.Error("infeasible observation overwrote the best")
	}
}

// TestPinMapHammer hammers one evaluator's pin map from many
// goroutines over many distinct fingerprints and checks the counter
// invariants: every lookup is either a hit or a miss, every distinct
// fingerprint misses exactly once however many workers race for it,
// and every worker is served the same pinned set.
func TestPinMapHammer(t *testing.T) {
	tpu := accel.TPU
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: Accel, Objective: LatSP, Arch: &tpu}
	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	// 24 distinct fingerprints: NPE varies, and NPE is a fingerprint
	// field.
	const distinct = 24
	cands := make([]Candidate, distinct)
	for i := range cands {
		cands[i] = Candidate{
			PanelArea: 10,
			Cap:       470e-6,
			Accel:     &accel.Config{Arch: accel.TPU, NPE: 4 + i, CacheBytes: units.Bytes(256)},
		}
	}
	const goroutines = 16
	const rounds = 30
	sets := make([][distinct]*ladderSet, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (worker + r) % distinct
				ls, err := e.ladderSetFor(cands[i])
				if err != nil {
					t.Errorf("worker %d: %v", worker, err)
					return
				}
				sets[worker][i] = ls
			}
		}(g)
	}
	wg.Wait()
	hits, misses := e.CacheStats()
	lookups := int64(goroutines * rounds)
	if hits+misses != lookups {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d lookups", hits, misses, hits+misses, lookups)
	}
	if misses != distinct {
		t.Errorf("misses = %d, want %d (each distinct fingerprint resolves once)", misses, distinct)
	}
	for i, cand := range cands {
		ls, err := e.ladderSetFor(cand)
		if err != nil {
			t.Fatal(err)
		}
		for g := range sets {
			if sets[g][i] != nil && sets[g][i] != ls {
				t.Errorf("candidate %d: worker %d got a different ladder-set pointer", i, g)
			}
		}
	}
}
