package serve

import (
	"context"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chrysalis/internal/explore"
	"chrysalis/internal/obs"
	"chrysalis/internal/sim"
)

// latencyWindow bounds the job-latency reservoir the windowed quantiles
// are computed over (a sliding window of the most recent completions).
const latencyWindow = 1024

// metrics is the daemon's observability surface, built on the obs
// registry: counters and gauges for the job lifecycle and the request
// caches, histograms for job and HTTP latency, and render-time sampled
// functions for state owned elsewhere (the result cache, the job table).
type metrics struct {
	reg *obs.Registry

	jobsQueued    *obs.Counter
	jobsRunning   *obs.Gauge
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	jobsRecovered *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	evaluations   *obs.Counter
	// Evaluator ladder-set traffic, added from each finished search's
	// Result.
	evalCacheHits   *obs.Counter
	evalCacheMisses *obs.Counter
	shed            *obs.CounterVec
	jobLatency      *obs.Histogram

	// Search-observatory counters: one generation of telemetry per tick,
	// and runs the Patience policy actually cut short.
	searchGenerations *obs.Counter
	searchEarlyStops  *obs.Counter

	httpRequests *obs.CounterVec
	httpLatency  *obs.Histogram

	// Windowed job-latency reservoir, kept alongside the histogram so
	// the p50 over recent jobs that Retry-After derives from stays exact
	// (histogram quantiles are bucket-interpolated estimates).
	mu      sync.Mutex
	lat     []float64
	latNext int
}

// newMetrics builds the registry and the families every server carries.
func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		jobsQueued: reg.Counter("chrysalisd_jobs_queued_total",
			"Design jobs accepted into the queue."),
		jobsRunning: reg.Gauge("chrysalisd_jobs_running",
			"Design jobs currently executing."),
		jobsDone: reg.Counter("chrysalisd_jobs_done_total",
			"Design jobs finished successfully."),
		jobsFailed: reg.Counter("chrysalisd_jobs_failed_total",
			"Design jobs finished with an error (including timeouts)."),
		jobsCancelled: reg.Counter("chrysalisd_jobs_cancelled_total",
			"Design jobs cancelled by clients or shutdown."),
		jobsRecovered: reg.Counter("chrysalisd_jobs_recovered_total",
			"Pending jobs re-enqueued from the WAL at startup."),
		cacheHits: reg.Counter("chrysalisd_cache_hits_total",
			"Design requests served from the result cache or coalesced onto an in-flight job."),
		cacheMisses: reg.Counter("chrysalisd_cache_misses_total",
			"Design requests that started a new search."),
		evaluations: reg.Counter("chrysalisd_evaluations_total",
			"Design searches actually executed on this node (not cached, coalesced or delegated)."),
		evalCacheHits: reg.Counter("chrysalisd_evaluator_cache_hits_total",
			"Ladder-set lookups that reused a fingerprint already resolved by the same search, summed over this node's finished searches."),
		evalCacheMisses: reg.Counter("chrysalisd_evaluator_cache_misses_total",
			"Distinct hardware fingerprints resolved (built or taken from the warm tier), summed over this node's finished searches."),
		shed: reg.CounterVec("chrysalisd_admission_shed_total",
			"Submissions rejected with 429, by reason.", "reason"),
		jobLatency: reg.Histogram("chrysalisd_job_latency_seconds",
			"Job wall-clock latency from start to terminal state.", nil),
		searchGenerations: reg.Counter("chrysalis_search_generations_total",
			"Search generations completed across all jobs on this node."),
		searchEarlyStops: reg.Counter("chrysalis_search_early_stops_total",
			"Searches stopped by the Patience plateau policy before their generation budget."),
		httpRequests: reg.CounterVec("chrysalisd_http_requests_total",
			"HTTP requests served.", "method", "code"),
		httpLatency: reg.Histogram("chrysalisd_http_request_seconds",
			"HTTP request handling latency.", nil),
	}
	reg.CounterFunc("chrysalisd_sim_fast_steps_total",
		"Simulator steps replaced by analytic jumps on the event fast path.",
		func() int64 { _, fast, _, _ := sim.EventStats(); return fast })
	reg.CounterFunc("chrysalisd_sim_literal_steps_total",
		"Simulator steps executed bit-honestly by the event simulator.",
		func() int64 { _, _, lit, _ := sim.EventStats(); return lit })
	reg.CounterFunc("chrysalisd_sim_fallback_runs_total",
		"Event-simulator runs that fell back to pure literal stepping.",
		func() int64 { _, _, _, fb := sim.EventStats(); return fb })
	reg.CounterFunc("obs_trace_dropped_total",
		"Spans overwritten by full trace ring buffers, process-wide.",
		obs.TraceDroppedTotal)
	obs.RegisterBuildInfo(reg)
	return m
}

// registerWarm exposes a warm-start tier's hits and residency on the
// registry. Called once from newManager when -warm-cache-mb > 0; the
// tier's own atomics are the source of truth, sampled at render time.
// The rest of its traffic rides the /v1/fleet warm row.
func (m *metrics) registerWarm(w *explore.WarmCache) {
	m.reg.CounterFunc("chrysalisd_warm_cache_hits_total",
		"Warm-tier lookups that reused a ladder set built by an earlier search.",
		func() int64 { return w.Stats().Hits })
	m.reg.GaugeFunc("chrysalisd_warm_cache_entries",
		"Resident warm-tier ladder sets.",
		func() int64 { return w.Stats().Entries })
}

// observeLatency records one finished job's wall-clock seconds in both
// the histogram and the quantile reservoir.
func (m *metrics) observeLatency(sec float64) {
	m.jobLatency.Observe(sec)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.lat) < latencyWindow {
		m.lat = append(m.lat, sec)
	} else {
		m.lat[m.latNext] = sec
		m.latNext = (m.latNext + 1) % latencyWindow
	}
}

// p50 returns the nearest-rank median job latency over the window
// (obs.Quantile), 0 before any job has finished.
func (m *metrics) p50() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.lat) == 0 {
		return 0
	}
	sorted := append([]float64(nil), m.lat...)
	sort.Float64s(sorted)
	return obs.Quantile(sorted, 0.50)
}

// statusWriter records the response code while preserving the Flusher
// interface SSE streaming needs. It counts the request in
// chrysalisd_http_requests_total as soon as the code is decided, before
// any byte reaches the client, so a client that has read a response
// never scrapes a total that misses it.
type statusWriter struct {
	http.ResponseWriter
	requests *obs.CounterVec
	method   string
	code     int
}

// setCode fixes the response code on the first call and counts the
// request under it; later calls are no-ops.
func (w *statusWriter) setCode(code int) {
	if w.code == 0 {
		w.code = code
		w.requests.With(w.method, strconv.Itoa(code)).Inc()
	}
}

func (w *statusWriter) WriteHeader(code int) {
	w.setCode(code)
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.setCode(http.StatusOK)
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceCtxKey carries the request's TraceContext through the request
// context from the middleware to the handlers.
type traceCtxKey struct{}

// traceFromRequest returns the TraceContext the middleware attached to
// the request (invalid zero value when the handler runs unwrapped, as
// in direct-mux tests).
func traceFromRequest(r *http.Request) obs.TraceContext {
	tc, _ := r.Context().Value(traceCtxKey{}).(obs.TraceContext)
	return tc
}

// instrument wraps a handler with request metrics, structured request
// logging and W3C trace-context propagation: an incoming traceparent
// header joins the caller's distributed trace, any other request mints
// a fresh identity, and either way the response echoes the header so
// clients can correlate their submission with the job's trace export.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tc = obs.NewTraceContext()
		}
		r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tc))
		w.Header().Set("traceparent", tc.Traceparent())
		sw := &statusWriter{ResponseWriter: w, requests: s.mgr.met.httpRequests, method: r.Method}
		next.ServeHTTP(sw, r)
		sw.setCode(http.StatusOK) // a handler that wrote nothing answered 200
		elapsed := time.Since(start)
		s.mgr.met.httpLatency.Observe(elapsed.Seconds())
		s.opts.Logger.LogAttrs(r.Context(), requestLogLevel(r.URL.Path), "http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Duration("elapsed", elapsed))
	})
}

// requestLogLevel demotes high-frequency scrape and probe endpoints to
// debug so the default info level stays readable.
func requestLogLevel(path string) slog.Level {
	if path == "/metrics" || path == "/healthz" || strings.HasPrefix(path, "/debug/pprof") {
		return slog.LevelDebug
	}
	return slog.LevelInfo
}
