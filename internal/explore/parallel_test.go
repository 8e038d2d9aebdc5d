package explore

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"chrysalis/internal/accel"
	"chrysalis/internal/dnn"
	"chrysalis/internal/units"
)

// exploreWorkers runs Explore with an explicit worker count and strips
// the (deliberately worker-dependent) Workers field so the rest of the
// Outcome, cache counters included, can be compared bit for bit.
func exploreWorkers(t *testing.T, sc Scenario, b Baseline, workers int) Outcome {
	t.Helper()
	cfg := smallGA(11)
	cfg.Workers = workers
	// Opt out of the cost-aware serial fallback: this contract test must
	// exercise true parallel dispatch even for cheap score paths.
	cfg.SerialCostFloor = -1
	out, err := Explore(context.Background(), sc, b, cfg)
	if err != nil {
		t.Fatalf("Explore(context.Background(), %v, workers=%d): %v", b, workers, err)
	}
	out.Workers = 0
	return out
}

// TestExploreWorkersBitIdentical is the determinism contract test: the
// same seed must produce a bit-identical Outcome whether candidates are
// evaluated serially or across 8 workers, on every platform (MSP430,
// TPU-pinned and Eyeriss-pinned accelerators) and every Table VI
// baseline — the rungs built included.
func TestExploreWorkersBitIdentical(t *testing.T) {
	tpu, eyeriss := accel.TPU, accel.Eyeriss
	platforms := []struct {
		name string
		sc   Scenario
	}{
		{"msp430", Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}},
		{"accel-tpu", Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &tpu}},
		{"accel-eyeriss", Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &eyeriss}},
	}
	for _, tc := range platforms {
		for _, b := range Baselines() {
			t.Run(fmt.Sprintf("%s/%s", tc.name, b), func(t *testing.T) {
				serial := exploreWorkers(t, tc.sc, b, 1)
				parallel := exploreWorkers(t, tc.sc, b, 8)
				// A cold search builds each ladder as far as its furthest
				// scan reached, whichever worker ran that scan.
				if serial.RungsBuilt <= 0 || serial.RungsBuilt != parallel.RungsBuilt {
					t.Errorf("rungs built: %d with Workers=1, %d with Workers=8", serial.RungsBuilt, parallel.RungsBuilt)
				}
				if !reflect.DeepEqual(serial, parallel) {
					t.Errorf("Outcome differs between Workers=1 and Workers=8\nserial:   value=%v cand=%v\nparallel: value=%v cand=%v",
						serial.Value, serial.Best.Candidate, parallel.Value, parallel.Best.Candidate)
				}
			})
		}
	}
}

// TestSerialCostFloorBitIdentical checks the cost-aware serial
// fallback (installed by default when SerialCostFloor is zero) never
// changes the Outcome: the same seed produces bit-identical results
// whether the fallback is active, disabled, or the search is fully
// serial. The MSP score path is a few µs per candidate, well under
// DefaultSerialCostFloor, so the default-floor run genuinely exercises
// the parallel→serial demotion.
func TestSerialCostFloorBitIdentical(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}
	run := func(workers int, floor time.Duration) Outcome {
		t.Helper()
		cfg := smallGA(11)
		cfg.Workers = workers
		cfg.SerialCostFloor = floor
		out, err := Explore(context.Background(), sc, Full, cfg)
		if err != nil {
			t.Fatalf("Explore(context.Background(), workers=%d, floor=%v): %v", workers, floor, err)
		}
		out.Workers = 0
		return out
	}
	serial := run(1, -1)
	withFloor := run(8, 0) // zero installs DefaultSerialCostFloor
	noFloor := run(8, -1)
	if !reflect.DeepEqual(serial, withFloor) {
		t.Errorf("default floor changed the Outcome vs serial\nserial: value=%v cand=%v\nfloor:  value=%v cand=%v",
			serial.Value, serial.Best.Candidate, withFloor.Value, withFloor.Best.Candidate)
	}
	if !reflect.DeepEqual(serial, noFloor) {
		t.Errorf("floor opt-out changed the Outcome vs serial\nserial: value=%v cand=%v\nno floor: value=%v cand=%v",
			serial.Value, serial.Best.Candidate, noFloor.Value, noFloor.Best.Candidate)
	}
}

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

// TestParetoScanWorkersBitIdentical checks the random-scan Pareto path
// returns identically ordered points and front for any worker count.
func TestParetoScanWorkersBitIdentical(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}
	sPts, sFront, err := ParetoScanWorkers(sc, 120, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pPts, pFront, err := ParetoScanWorkers(sc, 120, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sPts, pPts) {
		t.Error("ParetoScan points differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(sFront, pFront) {
		t.Error("ParetoScan front differs between 1 and 8 workers")
	}
}

// TestParetoSearchWorkersBitIdentical checks the NSGA-II front path.
func TestParetoSearchWorkersBitIdentical(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}
	run := func(workers int) ParetoOutcome {
		cfg := smallGA(5)
		cfg.Workers = workers
		out, err := ParetoSearch(context.Background(), sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out.Workers = 0
		return out
	}
	if serial, parallel := run(1), run(8); !reflect.DeepEqual(serial, parallel) {
		t.Error("ParetoSearch outcomes differ between 1 and 8 workers")
	}
}

// TestPatienceEarlyStopWorkersBitIdentical extends the determinism
// contract to the plateau early-stop policy: with Patience set, a
// serial and an 8-worker run must stop at the identical generation
// with bit-identical Outcomes (including the Quality series the stop
// decision is derived from), on both platform presets.
func TestPatienceEarlyStopWorkersBitIdentical(t *testing.T) {
	tpu := accel.TPU
	presets := []struct {
		name string
		sc   Scenario
	}{
		{"msp430", Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}},
		{"accel-tpu", Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &tpu}},
	}
	run := func(t *testing.T, sc Scenario, workers int) Outcome {
		t.Helper()
		cfg := smallGA(11)
		cfg.Generations = 40
		cfg.Patience = 3
		cfg.Workers = workers
		cfg.SerialCostFloor = -1
		out, err := Explore(context.Background(), sc, Full, cfg)
		if err != nil {
			t.Fatalf("Explore(context.Background(), workers=%d): %v", workers, err)
		}
		out.Workers = 0
		return out
	}
	for _, tc := range presets {
		t.Run(tc.name, func(t *testing.T) {
			serial := run(t, tc.sc, 1)
			parallel := run(t, tc.sc, 8)
			if !serial.StoppedEarly || len(serial.History) >= 40 {
				t.Fatalf("patience 3 should stop a 40-generation run early, ran %d (stopped=%v)",
					len(serial.History), serial.StoppedEarly)
			}
			if len(serial.History) != len(parallel.History) {
				t.Fatalf("stop generation differs: %d serial vs %d parallel",
					len(serial.History), len(parallel.History))
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("Outcome differs between Workers=1 and Workers=8\nserial:   value=%v\nparallel: value=%v",
					serial.Value, parallel.Value)
			}
		})
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
