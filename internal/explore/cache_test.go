package explore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/obs"
)

// mspCandidates spans the energy genes the outer search varies on the
// MSP platform. The inference-side fingerprint is identical for all of
// them, so a single cached ladder set must serve every one.
func mspCandidates() []Candidate {
	return []Candidate{
		{PanelArea: 4, Cap: 47e-6},
		{PanelArea: 8, Cap: 100e-6},
		{PanelArea: 16, Cap: 220e-6},
		{PanelArea: 25, Cap: 1e-3},
	}
}

// accelCandidates varies both the energy genes and the accelerator
// genes, so the fingerprint cache must hold several distinct entries.
func accelCandidates() []Candidate {
	return []Candidate{
		{PanelArea: 16, Cap: 1e-3, Accel: &accel.Config{Arch: accel.Eyeriss, NPE: 32, CacheBytes: 512}},
		{PanelArea: 16, Cap: 1e-3, Accel: &accel.Config{Arch: accel.Eyeriss, NPE: 64, CacheBytes: 1024}},
		{PanelArea: 25, Cap: 2e-3, Accel: &accel.Config{Arch: accel.TPU, NPE: 64, CacheBytes: 1024}},
		{PanelArea: 9, Cap: 470e-6, Accel: &accel.Config{Arch: accel.TPU, NPE: 16, CacheBytes: 512}},
	}
}

// TestCachedMatchesUncached is the end-to-end differential for the
// memoized evaluation engine: a caching Evaluator must produce
// Evaluations deep-equal to the uncached one-shot EvaluateCandidate
// path for both platforms, across repeated evaluations (cache hits
// included).
func TestCachedMatchesUncached(t *testing.T) {
	cases := []struct {
		name  string
		sc    Scenario
		cands []Candidate
	}{
		{"msp-har", Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}, mspCandidates()},
		{"msp-cifar", Scenario{Workload: dnn.CIFAR10(), Platform: MSP, Objective: Lat}, mspCandidates()},
		{"accel-har", Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}, accelCandidates()},
		{"accel-resnet", Scenario{Workload: dnn.ResNet18(), Platform: Accel, Objective: LatSP}, accelCandidates()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEvaluator(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			// Two rounds: the second is served entirely from the cache.
			for round := 0; round < 2; round++ {
				for _, cand := range tc.cands {
					want, wantErr := EvaluateCandidate(tc.sc, cand)
					got, gotErr := e.Evaluate(cand)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("round %d %s: uncached err %v, cached err %v", round, cand, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("round %d %s: cached evaluation diverged:\n%+v\nvs uncached\n%+v", round, cand, got, want)
					}
				}
			}
			hits, misses := e.CacheStats()
			if hits == 0 {
				t.Error("repeated evaluations should produce cache hits")
			}
			if tc.sc.Platform == MSP && misses != 1 {
				t.Errorf("MSP fingerprint is constant: misses = %d, want 1", misses)
			}
			if tc.sc.Platform == Accel && misses < 2 {
				t.Errorf("distinct accel configs should miss separately: misses = %d", misses)
			}
		})
	}
}

// TestEvaluatorCacheConcurrent hammers one shared Evaluator from many
// goroutines (the GA Workers > 1 contract) and checks every result
// still matches the uncached reference. Run under -race via `make
// race-cache`.
func TestEvaluatorCacheConcurrent(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}
	cands := accelCandidates()

	refs := make([]Evaluation, len(cands))
	for i, cand := range cands {
		ev, err := EvaluateCandidate(sc, cand)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ev
	}

	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(cands)
				got, err := e.Evaluate(cands[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if !reflect.DeepEqual(got, refs[i]) {
					errs <- fmt.Errorf("goroutine %d round %d: result diverged for %s", g, r, cands[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := e.CacheStats()
	if hits+misses != goroutines*rounds {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, goroutines*rounds)
	}
	if misses < int64(len(cands)) {
		t.Errorf("misses = %d, want >= %d distinct fingerprints", misses, len(cands))
	}
}

// TestTracedColdSearchBuildLadderSpans covers the traced ladder-build
// path. A traced cold serial search records one "ladder-build" span per
// plan-cache miss and, per miss, exactly layers × dataflows × 2
// "build-ladder" spans, each carrying its tuple identity and rung count.
// A traced evaluator's spans then match the ladders of the set it built,
// in build order.
func TestTracedColdSearchBuildLadderSpans(t *testing.T) {
	tpu := accel.TPU
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &tpu, Trace: obs.NewTrace(1 << 16)}
	cfg := smallGA(11)
	cfg.Workers = -1
	out, err := Explore(sc, Full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := sc.Trace.Dropped(); n != 0 {
		t.Fatalf("trace ring dropped %d events; enlarge it", n)
	}
	var sets, ladders int
	for _, ev := range sc.Trace.Events() {
		switch ev.Name {
		case "ladder-build":
			sets++
		case "build-ladder":
			ladders++
			if rungs, ok := ev.Args["rungs"].(int); !ok || rungs < 0 {
				t.Fatalf("build-ladder span without a rung count: %+v", ev.Args)
			}
			for _, k := range []string{"layer", "dataflow", "partition"} {
				if _, ok := ev.Args[k].(string); !ok {
					t.Fatalf("build-ladder span without %q: %+v", k, ev.Args)
				}
			}
		}
	}
	perMiss := len(sc.Workload.Layers) * len(dataflow.Dataflows()) * 2
	if out.CacheMisses == 0 || int64(sets) != out.CacheMisses || int64(ladders) != out.CacheMisses*int64(perMiss) {
		t.Fatalf("%d misses recorded %d ladder-build and %d build-ladder spans, want %d and %d",
			out.CacheMisses, sets, ladders, out.CacheMisses, out.CacheMisses*int64(perMiss))
	}

	sc.Trace = obs.NewTrace(1 << 12)
	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.cache.get(e.sc, accelCandidates()[2], 0)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, ev := range sc.Trace.Events() {
		if ev.Name != "build-ladder" {
			continue
		}
		if k >= len(ls.ladders) {
			t.Fatalf("more build-ladder spans than the %d ladders built", len(ls.ladders))
		}
		ld := &ls.ladders[k]
		want := map[string]any{"layer": ld.Layer.Name, "dataflow": ld.Dataflow.String(),
			"partition": ld.Partition.String(), "rungs": len(ld.Rungs), "err": false}
		for key, v := range want {
			if ev.Args[key] != v {
				t.Fatalf("span %d: %s = %v, want %v", k, key, ev.Args[key], v)
			}
		}
		k++
	}
	if k != len(ls.ladders) {
		t.Fatalf("%d build-ladder spans for %d ladders", k, len(ls.ladders))
	}
}

// BenchmarkBuildLadderSet times one cold ladder-set build — every
// (layer, dataflow, partition) ladder of a workload on one hardware
// fingerprint — the unit of work behind each plan-cache miss.
func BenchmarkBuildLadderSet(b *testing.B) {
	cases := []struct {
		name string
		sc   Scenario
		cand Candidate
	}{
		{"accel-resnet18", Scenario{Workload: dnn.ResNet18(), Platform: Accel, Objective: LatSP}, accelCandidates()[2]},
		{"accel-vgg16", Scenario{Workload: dnn.VGG16(), Platform: Accel, Objective: LatSP}, accelCandidates()[1]},
		{"msp-cifar10", Scenario{Workload: dnn.CIFAR10(), Platform: MSP, Objective: LatSP}, mspCandidates()[0]},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			e, err := NewEvaluator(tc.sc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buildLadderSet(e.sc, tc.cand); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
