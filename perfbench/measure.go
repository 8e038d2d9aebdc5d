package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Metric names and units. Untraced runs print the end-to-end metrics
// (see ledger.metrics) and traced runs perLayer; both match
// BENCHMARK.json.
var perLayer = []string{
	"dataflow.evaluate_ns",
	"intermittent.ladder_build_ms", "intermittent.ladder_builds_per_op", "intermittent.ladder_share",
	"explore.score_us", "explore.plan_cache_hit_ratio", "explore.warm_hit_ratio",
	"explore.warm_hit_base", "explore.evals_per_op",
	"search.generation_ms", "search.generations_per_op", "search.parallel_speedup",
	"core.design_ms", "core.verify_ms",
	"sim.host_ns_per_sim_s", "sim.fast_steps_per_op", "sim.literal_steps_per_op", "sim.fallback_runs_per_op",
	"audit.ms_per_op", "audit.findings",
	"serve.admission_ms", "serve.queue_wait_ms", "serve.search_ms", "serve.sim_ms",
	"serve.submit_http_ms", "serve.result_cache_hit_ratio", "serve.shed_per_op", "serve.timeline_coverage",
	"wal.journal_ms", "wal.fsync_p50_ms", "wal.appends_per_job",
	"cluster.peer_hop_ms", "cluster.delegated_ratio", "cluster.peer_errors",
	"bench.ops_per_s", "bench.op_p50_ms", "bench.op_p95_ms", "bench.op_p99_ms",
	"bench.gen_lag_p99_ms", "bench.fail_ratio", "bench.slo_miss_ratio",
	"bench.latsp_geomean", "bench.simulate_p50_ms", "bench.sim_s_per_host_s", "bench.samples",
	"bench.trace_overhead_wall_ms", "bench.trace_overhead_cpu_ms", "bench.trace_overhead_alloc_kb",
}

var metricUnits = map[string]string{
	"setup_s": "s", "op_wall_ms": "ms", "cpu_ms_per_op": "ms", "alloc_kb_per_op": "KiB", "heap_peak_mb": "MiB",

	"dataflow.evaluate_ns":              "ns",
	"intermittent.ladder_build_ms":      "ms",
	"intermittent.ladder_builds_per_op": "count",
	"intermittent.ladder_share":         "ratio",
	"explore.score_us":                  "us",
	"explore.plan_cache_hit_ratio":      "ratio",
	"explore.warm_hit_ratio":            "ratio",
	"explore.warm_hit_base":             "count",
	"explore.evals_per_op":              "count",
	"search.generation_ms":              "ms",
	"search.generations_per_op":         "count",
	"search.parallel_speedup":           "ratio",
	"core.design_ms":                    "ms",
	"core.verify_ms":                    "ms",
	"sim.host_ns_per_sim_s":             "ns/s",
	"sim.fast_steps_per_op":             "count",
	"sim.literal_steps_per_op":          "count",
	"sim.fallback_runs_per_op":          "count",
	"audit.ms_per_op":                   "ms",
	"audit.findings":                    "count",
	"serve.admission_ms":                "ms",
	"serve.queue_wait_ms":               "ms",
	"serve.search_ms":                   "ms",
	"serve.sim_ms":                      "ms",
	"serve.submit_http_ms":              "ms",
	"serve.result_cache_hit_ratio":      "ratio",
	"serve.shed_per_op":                 "ratio",
	"serve.timeline_coverage":           "ratio",
	"wal.journal_ms":                    "ms",
	"wal.fsync_p50_ms":                  "ms",
	"wal.appends_per_job":               "count",
	"cluster.peer_hop_ms":               "ms",
	"cluster.delegated_ratio":           "ratio",
	"cluster.peer_errors":               "count",
	"bench.ops_per_s":                   "1/s",
	"bench.op_p50_ms":                   "ms",
	"bench.op_p95_ms":                   "ms",
	"bench.gen_lag_p99_ms":              "ms",
	"bench.fail_ratio":                  "ratio",
	"bench.slo_miss_ratio":              "ratio",
	"bench.op_p99_ms":                   "ms",
	"bench.latsp_geomean":               "cm2.s",
	"bench.simulate_p50_ms":             "ms",
	"bench.sim_s_per_host_s":            "ratio",
	"bench.samples":                     "count",
	"bench.trace_overhead_wall_ms":      "ms",
	"bench.trace_overhead_cpu_ms":       "ms",
	"bench.trace_overhead_alloc_kb":     "KiB",
}

// ledger accumulates one measured pass. Ops are recorded by the
// workload's loop; per-layer values go straight into layer.
type ledger struct {
	trace    bool
	openLoop bool // op_wall_ms is a request latency, not wall time per op
	window   time.Duration
	start    time.Time
	elapsed  time.Duration
	setupS   float64
	mem      *memWatch
	alloc    uint64
	heapPeak uint64
	cpu      time.Duration // process CPU time over the window
	marks    []mark
	base     *ledger // a traced pass's untraced twin over the same inputs

	mu        sync.Mutex
	attempted int
	failed    int // errors and refusals
	wrong     int // outputs that disagree with the goldens
	lat       []float64

	layer map[string]float64

	auditMS  float64
	audits   int
	findings int
}

// mark is the wall clock, process CPU time and operation count at a
// slice boundary of the measured window. Closed loops mark the end of
// every cycle through their input pool, so every slice holds the same
// mix; the open loop marks every second, a fixed number of arrivals.
type mark struct {
	t   time.Time
	cpu time.Duration
	ops int
}

func newLedger(trace bool, window time.Duration) *ledger {
	return &ledger{trace: trace, window: window, layer: make(map[string]float64)}
}

// passes runs a workload's measured loop. An untraced run measures the
// whole window once. A traced run measures it in two halves on the same
// inputs, untraced and then traced, and reports the difference as the
// tracing overhead; the traced half's ledger is returned with the
// untraced one as its base.
func passes(cfg runConfig, setupS float64, loop func(*ledger) error) (*ledger, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		l := newLedger(false, window)
		l.setupS = setupS
		return l, loop(l)
	}
	base := newLedger(false, window/2)
	if err := loop(base); err != nil {
		return nil, err
	}
	l := newLedger(true, window/2)
	l.setupS, l.base = setupS, base
	return l, loop(l)
}

// begin starts the measured window and the memory watch.
func (l *ledger) begin() {
	l.mem = startMemWatch()
	l.start = time.Now()
	l.marks = []mark{{t: l.start, cpu: cpuTime()}}
}

// mark closes a slice after ops operations in all.
func (l *ledger) mark(ops int) {
	l.marks = append(l.marks, mark{t: time.Now(), cpu: cpuTime(), ops: ops})
}

// expired reports whether the measured window is over.
func (l *ledger) expired() bool { return time.Since(l.start) >= l.window }

// end closes the measured window at now.
func (l *ledger) end() { l.endAt(time.Now()) }

// endAt closes the measured window at t (the open-loop workload ends
// it at the last completion, not when the schedule stops).
func (l *ledger) endAt(t time.Time) {
	l.elapsed = t.Sub(l.start)
	l.cpu = cpuTime() - l.marks[0].cpu
	l.alloc, l.heapPeak = l.mem.stop()
}

// outcome classifies one operation.
type outcome int

const (
	opOK outcome = iota
	opFailed
	opWrong
)

// op records one operation's latency and outcome.
func (l *ledger) op(d time.Duration, out outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	switch out {
	case opFailed:
		l.failed++
	case opWrong:
		l.wrong++
	}
	l.lat = append(l.lat, ms(d))
}

// counts returns the operations of the run, the base pass included.
func (l *ledger) counts() (attempted, failed, wrong int) {
	if l.base != nil {
		attempted, failed, wrong = l.base.counts()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return attempted + l.attempted, failed + l.failed, wrong + l.wrong
}

// set records a per-layer metric.
func (l *ledger) set(name string, v float64) {
	l.mu.Lock()
	l.layer[name] = v
	l.mu.Unlock()
}

// addAudit records n audit passes taking msTotal and their findings.
func (l *ledger) addAudit(msTotal float64, n, findings int) {
	l.mu.Lock()
	l.auditMS += msTotal
	l.audits += n
	l.findings += findings
	l.mu.Unlock()
}

// metrics returns the metric set this run prints: end-to-end metrics
// when untraced, per-layer metrics when traced. Per-layer metrics a
// workload never touches read 0.
func (l *ledger) metrics() map[string]float64 {
	if !l.trace {
		return l.endToEnd()
	}
	var overhead map[string]float64
	if l.base != nil {
		t, b := l.endToEnd(), l.base.endToEnd()
		overhead = map[string]float64{
			"bench.trace_overhead_wall_ms":  t["op_wall_ms"] - b["op_wall_ms"],
			"bench.trace_overhead_cpu_ms":   t["cpu_ms_per_op"] - b["cpu_ms_per_op"],
			"bench.trace_overhead_alloc_kb": t["alloc_kb_per_op"] - b["alloc_kb_per_op"],
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(perLayer))
	for _, name := range perLayer {
		out[name] = l.layer[name]
	}
	for name, v := range overhead {
		out[name] = v
	}
	n := float64(len(l.lat))
	out["audit.ms_per_op"] = ratio(l.auditMS, float64(l.audits))
	out["audit.findings"] = float64(l.findings)
	out["bench.fail_ratio"] = float64(l.failed+l.wrong) / float64(l.attempted)
	out["bench.ops_per_s"] = n / l.elapsed.Seconds()
	out["bench.op_p50_ms"] = quantile(l.lat, 0.50)
	out["bench.op_p95_ms"] = quantile(l.lat, 0.95)
	out["bench.op_p99_ms"] = quantile(l.lat, 0.99)
	out["bench.samples"] = n
	return out
}

// endToEnd returns the end-to-end metrics of the pass. Wall and CPU
// time per operation are medians over the pass's slices (see mark), so
// a burst of other load on a shared host moves a few slices and not
// the figure. Per-operation figures count successful operations only.
func (l *ledger) endToEnd() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	okOps := float64(l.attempted - l.failed - l.wrong)
	var walls, cpus []float64
	for i := 1; i < len(l.marks); i++ {
		a, b := l.marks[i-1], l.marks[i]
		if n := float64(b.ops - a.ops); n > 0 {
			walls = append(walls, ms(b.t.Sub(a.t))/n)
			cpus = append(cpus, ms(b.cpu-a.cpu)/n)
		}
	}
	wall, cpu := quantile(walls, 0.5), quantile(cpus, 0.5)
	if len(walls) == 0 { // a window shorter than one slice
		wall, cpu = ratio(ms(l.elapsed), okOps), ratio(ms(l.cpu), okOps)
	}
	if l.openLoop {
		// The median request sits where the fast requests (cache hits,
		// simulations) meet the ones that search, so it jumps between the
		// two; a mean moves with every kind of request. The window's mean
		// is ruled by the few seconds a burst of other load stalls, so
		// take the mean latency of each second's arrivals and report the
		// median second.
		var means []float64
		for i := 1; i < len(l.marks); i++ {
			if a, b := l.marks[i-1].ops, l.marks[i].ops; b > a && b <= len(l.lat) {
				means = append(means, mean(l.lat[a:b]))
			}
		}
		wall = quantile(means, 0.5)
		if len(means) == 0 {
			wall = mean(l.lat)
		}
	}
	return map[string]float64{
		"setup_s":         l.setupS,
		"op_wall_ms":      wall,
		"cpu_ms_per_op":   cpu,
		"alloc_kb_per_op": ratio(float64(l.alloc)/1024, okOps),
		"heap_peak_mb":    float64(l.heapPeak) / (1 << 20),
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomean returns the geometric mean of positive xs; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memWatch samples the live heap (the bytes the last collection marked
// reachable) while the measured window runs, and reports the bytes
// allocated over the window and the peak. Live heap, unlike HeapInuse,
// does not depend on how much garbage a collection that happens to run
// late lets pile up, and reading it does not stop the world.
type memWatch struct {
	alloc0 uint64
	stopc  chan struct{}
	done   chan uint64
}

const memSampleEvery = 20 * time.Millisecond

// heapSample reads the live heap and the cumulative allocated bytes.
func heapSample() (live, alloc uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startMemWatch() *memWatch {
	live, alloc := heapSample()
	w := &memWatch{alloc0: alloc, stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := live
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if live, _ := heapSample(); live > peak {
					peak = live
				}
			case <-w.stopc:
				w.done <- peak
				return
			}
		}
	}()
	return w
}

// stop ends sampling and returns the bytes allocated since the start
// and the peak live heap.
func (w *memWatch) stop() (alloc, peak uint64) {
	close(w.stopc)
	peak = <-w.done
	live, total := heapSample()
	return total - w.alloc0, max(peak, live)
}

// A run sets up at least setupMinRepeats times and until setupMinTime
// has passed, at most setupMaxRepeats times; setup_s is the median.
// Cheap set-ups of a few milliseconds are repeated often enough that a
// burst of other load on the host does not move the median.
const (
	setupMinRepeats = 7
	setupMaxRepeats = 101
	setupMinTime    = 500 * time.Millisecond
)

// timedSetup runs setup repeatedly and returns the median wall time.
// Every set-up but the last is torn down again; the last one's teardown
// is returned for the caller to run after the measurement.
func timedSetup(setup func() (teardown func(), err error)) (float64, func(), error) {
	var (
		times    []float64
		teardown = func() {}
		start    = time.Now()
	)
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || time.Since(start) < setupMinTime); i++ {
		teardown()
		// Every set-up starts from a collected heap, so whether a
		// collection falls inside it does not depend on the one before.
		runtime.GC()
		t0 := time.Now()
		td, err := setup()
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		teardown = td
	}
	return quantile(times, 0.5), teardown, nil
}
