package explore

import (
	"context"
	"reflect"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dnn"
	"chrysalis/internal/search"
)

// sameOutput reports whether two outputs of one matrix row agree bit
// for bit outside the fields a variant is allowed to change: Workers
// always, and for a warm variant also the tier pointer, WarmHits and
// RungsBuilt, since a warm run reuses rungs earlier searches built.
// Every other field, cache hits and misses included, must match.
func sameOutput(a, b any, warm bool) bool {
	return reflect.DeepEqual(stripVariant(a, warm), stripVariant(b, warm))
}

func stripVariant(v any, warm bool) any {
	switch o := v.(type) {
	case Outcome:
		o.Workers = 0
		if warm {
			o.Scenario.Warm = nil
			o.WarmHits = 0
			o.RungsBuilt = 0
		}
		return o
	case ParetoOutcome:
		o.Workers = 0
		return o
	}
	return v
}

// determinismRow is one case of the worker-count determinism matrix.
// run performs the row's search at a worker count, against warm when
// it is non-nil; the serial cold run is the reference every variant
// must equal.
type determinismRow struct {
	// group is the subtest the row runs under (a platform for the
	// baseline rows, else the contract: warm, patience, ...); name is
	// the row's subtest within it.
	group, name string
	run         func(t *testing.T, workers int, warm *WarmCache) any
	// warm rows also prime a tier with one search and compare a serial
	// and an 8-worker warm search against the cold reference.
	warm bool
	// check, when non-nil, asserts row-specific facts about the
	// reference, so the comparison is not vacuous.
	check func(t *testing.T, ref any)
}

// exploreRow runs Explore on sc under b with smallGA(11), adjusted by
// tune when non-nil.
func exploreRow(sc Scenario, b Baseline, tune func(*search.GAConfig)) func(*testing.T, int, *WarmCache) any {
	return func(t *testing.T, workers int, warm *WarmCache) any {
		t.Helper()
		cfg := smallGA(11)
		if tune != nil {
			tune(&cfg)
		}
		cfg.Workers = workers
		sc := sc
		sc.Warm = warm
		out, err := Explore(context.Background(), sc, b, cfg)
		if err != nil {
			t.Fatalf("Explore(%v, workers=%d, warm=%v): %v", b, workers, warm != nil, err)
		}
		return out
	}
}

// TestExploreWorkersBitIdentical is the explore package's determinism
// matrix: the same seed produces bit-identical outputs whether
// candidates are evaluated serially or across 8 workers, whether the
// ladder sets come from a primed warm tier (heap-backed) or are built
// cold (slab-backed), and whether the plateau policy stops the search
// early — for Explore under every Table VI baseline on the MSP430,
// TPU-pinned and Eyeriss-pinned platforms, for ParetoScan and for
// ParetoSearch.
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
	msp := platforms[0].sc

	var rows []determinismRow
	for _, p := range platforms {
		for _, b := range Baselines() {
			rows = append(rows, determinismRow{
				group: p.name,
				name:  b.String(),
				run:   exploreRow(p.sc, b, nil),
				// A cold search builds each ladder as far as its furthest
				// scan reached, whichever worker ran that scan.
				check: func(t *testing.T, ref any) {
					if r := ref.(Outcome).RungsBuilt; r <= 0 {
						t.Errorf("serial cold search built %d rungs", r)
					}
				},
			})
		}
	}
	for _, p := range platforms {
		rows = append(rows, determinismRow{
			group: "warm",
			name:  p.name,
			run:   exploreRow(p.sc, Full, nil),
			warm:  true,
		})
	}
	for _, p := range platforms[:2] {
		rows = append(rows, determinismRow{
			group: "patience",
			name:  p.name,
			run: exploreRow(p.sc, Full, func(cfg *search.GAConfig) {
				cfg.Generations = 40
				cfg.Patience = 3
			}),
			check: func(t *testing.T, ref any) {
				if o := ref.(Outcome); !o.StoppedEarly || len(o.History) >= 40 {
					t.Fatalf("patience 3 should stop a 40-generation run early, ran %d (stopped=%v)",
						len(o.History), o.StoppedEarly)
				}
			},
		})
	}
	rows = append(rows,
		determinismRow{
			group: "pareto-scan",
			name:  "msp430",
			run: func(t *testing.T, workers int, _ *WarmCache) any {
				points, front, err := ParetoScan(msp, 120, 3, workers)
				if err != nil {
					t.Fatal(err)
				}
				return [2][]ParetoPoint{points, front}
			},
		},
		determinismRow{
			group: "pareto-search",
			name:  "msp430",
			run: func(t *testing.T, workers int, _ *WarmCache) any {
				cfg := smallGA(5)
				cfg.Workers = workers
				out, err := ParetoSearch(context.Background(), msp, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return out
			},
		},
	)

	// Rows of one group are adjacent; each group is one subtest.
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && rows[n].group == rows[0].group {
			n++
		}
		group := rows[:n]
		rows = rows[n:]
		t.Run(group[0].group, func(t *testing.T) {
			for _, row := range group {
				t.Run(row.name, func(t *testing.T) {
					ref := row.run(t, 1, nil)
					if row.check != nil {
						row.check(t, ref)
					}
					if !row.warm {
						if got := row.run(t, 8, nil); !sameOutput(ref, got, false) {
							t.Error("output differs between Workers=1 and Workers=8")
						}
						return
					}
					tier := NewWarmCache(64 << 20)
					// Prime the tier with one full search; every fingerprint the
					// next searches touch is then warm-servable.
					row.run(t, 1, tier)
					for _, workers := range []int{1, 8} {
						got := row.run(t, workers, tier)
						if got.(Outcome).WarmHits == 0 {
							t.Fatalf("primed Workers=%d run reports WarmHits=0; warm tier never engaged (stats %+v)",
								workers, tier.Stats())
						}
						if !sameOutput(ref, got, true) {
							t.Errorf("primed warm Workers=%d run differs from the cold serial run", workers)
						}
					}
				})
			}
		})
	}
}
