package search

import (
	"context"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachIndexCoversAllIndices checks the chunked dispatcher visits
// every index exactly once for a grid of sizes and worker counts,
// including workers > n and the serial fast path.
func TestForEachIndexCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 257} {
		for _, workers := range []int{1, 2, 4, 8, 300} {
			var visits sync.Map
			forEachIndex(n, workers, func(i int) {
				if c, loaded := visits.LoadOrStore(i, 1); loaded {
					visits.Store(i, c.(int)+1)
				}
			})
			count := 0
			visits.Range(func(k, v any) bool {
				i, c := k.(int), v.(int)
				if i < 0 || i >= n {
					t.Errorf("n=%d workers=%d: visited out-of-range index %d", n, workers, i)
				}
				if c != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
				count++
				return true
			})
			if count != n {
				t.Errorf("n=%d workers=%d: visited %d distinct indices", n, workers, count)
			}
		}
	}
}

// TestForEachIndexWorkerSlots checks the dispatcher runs every index
// exactly once while never occupying more than its worker count of
// concurrent slots.
func TestForEachIndexWorkerSlots(t *testing.T) {
	const n, workers = 100, 4
	var runs [n]atomic.Int32
	var active, peak atomic.Int64
	forEachIndex(n, workers, func(i int) {
		a := active.Add(1)
		for {
			cur := peak.Load()
			if a <= cur || peak.CompareAndSwap(cur, a) {
				break
			}
		}
		runs[i].Add(1)
		active.Add(-1)
	})
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times, want 1", i, c)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d indices ran at once, above the %d workers", p, workers)
	}
}

// TestEvalContextIndexDeterministic checks the Index each evaluation
// receives is the same for any worker count: it is assigned at
// (sequential) generation time, not completion time.
func TestEvalContextIndexDeterministic(t *testing.T) {
	collect := func(workers int) map[string]int {
		got := make(map[string]int)
		var mu sync.Mutex
		p := Problem{
			Dim: 2,
			EvalCtx: func(ec EvalContext, g []float64) float64 {
				key := string(rune('a'+int(g[0]*26))) + string(rune('a'+int(g[1]*26)))
				mu.Lock()
				if _, dup := got[key]; !dup {
					got[key] = ec.Index
				}
				mu.Unlock()
				return g[0] + g[1]
			},
		}
		cfg := DefaultGA(7)
		cfg.Population = 12
		cfg.Generations = 4
		cfg.Workers = workers
		if _, err := RunGA(context.Background(), p, cfg); err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := collect(1)
	parallel := collect(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("evaluation indices differ between Workers=1 and Workers=8")
	}
}

// TestRunGAWorkersBitIdentical checks the whole GA Result — best, value,
// history, visited set — is identical for serial and parallel runs.
func TestRunGAWorkersBitIdentical(t *testing.T) {
	sphere := Problem{Dim: 3, Eval: func(g []float64) float64 {
		s := 0.0
		for _, v := range g {
			s += (v - 0.5) * (v - 0.5)
		}
		return s
	}}
	run := func(workers int) Result {
		cfg := DefaultGA(42)
		cfg.Population = 16
		cfg.Generations = 8
		cfg.Workers = workers
		res, err := RunGA(context.Background(), sphere, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(serial, got) {
			t.Errorf("Workers=%d Result differs from serial", w)
		}
	}
}

// TestRunRandomWorkersBitIdentical checks the parallel random sampler
// reproduces the serial trajectory (History order included).
func TestRunRandomWorkersBitIdentical(t *testing.T) {
	p := Problem{Dim: 2, Eval: func(g []float64) float64 { return math.Abs(g[0]-0.3) + math.Abs(g[1]-0.7) }}
	serial, err := RunRandomWorkers(p, 200, 5, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunRandomWorkers(p, 200, 5, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("RunRandomWorkers results differ between 1 and 8 workers")
	}
}

// TestRunNSGA2WorkersBitIdentical checks the bi-objective front is
// identical for serial and parallel evaluation.
func TestRunNSGA2WorkersBitIdentical(t *testing.T) {
	p := BiProblem{Dim: 2, Eval: func(g []float64) (float64, float64) {
		return g[0], 1 - math.Sqrt(g[0])*g[1]
	}}
	run := func(workers int) []FrontPoint {
		cfg := DefaultGA(3)
		cfg.Population = 20
		cfg.Generations = 6
		cfg.Workers = workers
		front, _, err := RunNSGA2(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return front
	}
	if serial, parallel := run(1), run(8); !reflect.DeepEqual(serial, parallel) {
		t.Error("NSGA-II fronts differ between 1 and 8 workers")
	}
}

// channelDispatch is the dispatcher forEachIndex replaced: one
// unbuffered channel send per index. Kept here as the benchmark
// baseline so the win stays measured.
func channelDispatch(n, workers int, fn func(i int)) {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// busyEval is a stand-in for a cheap candidate evaluation: enough work
// that the dispatch overhead is visible but not dominant.
func busyEval(i int) float64 {
	s := float64(i)
	for k := 0; k < 200; k++ {
		s += math.Sqrt(s + float64(k))
	}
	return s
}

// BenchmarkBatchDispatch compares the chunked atomic-counter dispatcher
// against the channel-per-index baseline it replaced, at the batch
// shape the GA actually runs (population-sized batches).
func BenchmarkBatchDispatch(b *testing.B) {
	const n, workers = 64, 4
	sink := make([]float64, n)
	b.Run("chunked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			forEachIndex(n, workers, func(i int) { sink[i] = busyEval(i) })
		}
	})
	b.Run("channel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			channelDispatch(n, workers, func(i int) { sink[i] = busyEval(i) })
		}
	})
}
