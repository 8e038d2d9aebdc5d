package search

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// holdInObjective counts an evaluation in and, for the first hold of
// them, parks until release closes, so a goroutine profile taken
// meanwhile shows every goroutine that is evaluating. It stays out of
// line so its frame names those goroutines in the profile.
//
//go:noinline
func holdInObjective(started *atomic.Int64, hold int64, release <-chan struct{}) {
	if started.Add(1) <= hold {
		<-release
	}
}

// evaluatingGoroutines parses a debug=1 goroutine profile and returns,
// for the goroutines whose stack runs through holdInObjective, how many
// there are and how many of them carry every one of the wanted labels.
func evaluatingGoroutines(t *testing.T, want []string) (total, labelled int) {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatalf("goroutine profile: %v", err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "search.holdInObjective") {
			continue
		}
		lines := strings.Split(strings.TrimSpace(rec), "\n")
		if strings.HasPrefix(lines[0], "goroutine profile:") {
			lines = lines[1:] // the profile header heads the first record
		}
		n, err := strconv.Atoi(strings.Fields(lines[0])[0])
		if err != nil {
			t.Fatalf("unparsable profile record header %q", lines[0])
		}
		total += n
		hasAll := len(lines) > 1 && strings.HasPrefix(lines[1], "# labels:")
		for _, l := range want {
			hasAll = hasAll && strings.Contains(lines[1], l)
		}
		if hasAll {
			labelled += n
		}
	}
	return total, labelled
}

// TestWorkerGoroutineLabels asserts that evaluation work carries the
// pprof labels the caller set on its own goroutine, so CPU and
// goroutine profiles attribute search work to the owning job and
// phase. A serial run evaluates on the caller's goroutine; a parallel
// run's workers inherit the caller's labels when they start. Both runs
// are held inside the objective while the test reads the goroutine
// profile, and every goroutine evaluating must show the labels.
func TestWorkerGoroutineLabels(t *testing.T) {
	want := []string{`"job":"j-labels-test"`, `"phase":"search"`}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var started atomic.Int64
			hold := int64(workers)
			release := make(chan struct{})
			p := Problem{
				Dim: 2,
				Eval: func(g []float64) float64 {
					holdInObjective(&started, hold, release)
					return g[0] + g[1]
				},
			}
			cfg := DefaultGA(11)
			cfg.Population = 8
			cfg.Generations = 1
			cfg.Workers = workers

			done := make(chan error, 1)
			go func() {
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
					pprof.Labels("job", "j-labels-test", "phase", "search")))
				_, err := RunGA(context.Background(), p, cfg)
				done <- err
			}()

			var total, labelled int
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if started.Load() < hold {
					continue
				}
				if total, labelled = evaluatingGoroutines(t, want); int64(total) == hold {
					break
				}
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatalf("RunGA: %v", err)
			}
			if int64(total) != hold || labelled != total {
				t.Fatalf("%d goroutines evaluating (want %d), %d of them labelled", total, hold, labelled)
			}
		})
	}
}
