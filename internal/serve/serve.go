// Package serve is the CHRYSALIS design-as-a-service layer: a
// long-running HTTP/JSON daemon (cmd/chrysalisd) that exposes the
// describe → evaluate → explore pipeline as asynchronous design jobs.
//
// The paper frames CHRYSALIS as a service to AuT designers — submit a
// Spec, get back the ideal configuration — and this package realizes
// that framing with stdlib-only machinery:
//
//   - POST /v1/designs            submit an async design-search job
//   - GET  /v1/designs/{id}       job status / result
//   - DELETE /v1/designs/{id}     cancel a queued or running job
//   - GET  /v1/designs/{id}/events  live SSE telemetry (GA generations
//     and, for verify jobs, step-simulator events)
//   - GET  /v1/designs/{id}/trace   Chrome trace-event / Perfetto JSON
//     of the job's pipeline spans
//   - GET  /v1/designs/{id}/waveform  flight-recorder energy waveform
//     and per-cycle ledgers as JSON (default) or CSV (?format=csv)
//   - GET  /v1/designs/{id}/timeline  end-to-end job timeline:
//     admission, queue wait, peer hop, search, sim replay and WAL
//     journal as ordered phases — across nodes for delegated jobs
//   - GET  /v1/designs/{id}/convergence  per-generation search-quality
//     series (best/mean/median, diversity, stagnation; hypervolume,
//     front size and spacing for Pareto runs) — live while the job
//     runs, from the cached result afterwards
//   - GET  /v1/fleet              aggregated cluster telemetry (every
//     peer's queue depth, cache hit ratio, breaker states, warm tier)
//   - POST /v1/simulate           synchronous step-simulation
//   - GET  /v1/workloads          workload catalog
//   - GET  /v1/presets            deployment-scenario presets
//   - GET  /healthz               liveness
//   - GET  /metrics               Prometheus-style text metrics
//   - GET  /debug/pprof/*         Go runtime profiles
//
// Internally a bounded worker pool (sized from GOMAXPROCS by default)
// drains a job queue with per-job context cancellation and an optional
// deadline; identical requests are deduplicated twice — in-flight jobs
// are shared single-flight, and finished results are served from a
// content-addressed LRU cache keyed on a canonical hash of the
// (Spec, SearchConfig, baseline) tuple — so a design is never searched
// twice while it is still cached.
package serve

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"chrysalis/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Workers sizes the job worker pool (<= 0 selects GOMAXPROCS).
	Workers int
	// SearchWorkers is the default per-job search-evaluation concurrency
	// for requests that do not set search_workers themselves (<= 0 =
	// auto: ask for GOMAXPROCS). Whatever a job asks for, the actual
	// grant is bounded by a process-global semaphore sized to the CPU
	// slack the job pool leaves (GOMAXPROCS − Workers), so pool width ×
	// per-job search workers never oversubscribes the machine. Search
	// workers never change results — only wall-clock time.
	SearchWorkers int
	// QueueDepth bounds the backlog of queued jobs (<= 0 selects 64);
	// submissions beyond it are shed with 429 and a Retry-After hint
	// derived from the recent p50 job latency.
	QueueDepth int
	// CacheSize bounds the content-addressed result cache in entries
	// (<= 0 selects 128).
	CacheSize int
	// WarmCacheMB, when > 0, attaches a process-lifetime warm-start
	// tier of that many MiB to every job's search: near-duplicate jobs
	// reuse the plan ladders earlier jobs built for the same hardware
	// fingerprints instead of rebuilding them. In cluster mode the
	// consistent-hash ring routes each design to its owner, so every
	// node's tier specializes in its own key range. 0 (the default)
	// disables the tier. It never affects results — warm and cold jobs
	// return bit-identical designs.
	WarmCacheMB int
	// JobTimeout bounds each job's search wall-clock time (0 = none).
	JobTimeout time.Duration
	// MaxJobs bounds retained finished-job records (<= 0 selects 1024);
	// the oldest finished records are pruned first.
	MaxJobs int
	// TraceEvents bounds each job's span ring buffer (<= 0 selects
	// obs.DefaultTraceEvents); older spans are overwritten and counted
	// as dropped.
	TraceEvents int
	// Logger receives structured operational logs (nil discards them).
	Logger *slog.Logger

	// WALDir, when set, makes the job store durable: every accepted
	// submission and terminal transition is journaled to a checksummed
	// write-ahead log in this directory, and on startup queued and
	// running jobs are recovered and re-enqueued while finished ones
	// come back as servable history (done results re-seed the cache).
	WALDir string

	// Peers, when non-empty, runs this node as part of a cluster: the
	// listed base URLs (which must include Self, and be identical on
	// every node) form a consistent-hash ring over design keys, and jobs
	// whose key another node owns are resolved through that node's cache
	// or delegated to it — so identical designs submitted anywhere in
	// the cluster evaluate exactly once. A dead peer degrades its keys
	// to local evaluation; it never fails a request.
	Peers []string
	// Self is this node's own base URL as it appears in Peers.
	Self string
	// ClusterTimeout bounds each peer call (<= 0 selects the cluster
	// package default of 2s).
	ClusterTimeout time.Duration

	// QuotaRPS enables per-client admission quotas: each client
	// (X-API-Key header; missing = "anonymous") may submit this many
	// designs per second sustained, with bursts up to QuotaBurst
	// (<= 0 selects 2·QuotaRPS, minimum 1). Over-quota submissions are
	// shed with 429 + Retry-After. 0 disables quotas.
	QuotaRPS   float64
	QuotaBurst int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 128
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.TraceEvents <= 0 {
		o.TraceEvents = obs.DefaultTraceEvents
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Server is the chrysalisd HTTP service: a job manager plus the route
// table over it. Create with New, mount Handler on an http.Server, and
// call Shutdown to drain.
type Server struct {
	opts Options
	mgr  *manager
	mux  *http.ServeMux
}

// New builds a Server, recovers any WAL state, and starts the worker
// pool. It fails when the WAL directory is unusable or the cluster
// configuration is inconsistent (e.g. Self missing from Peers).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	mgr, err := newManager(opts)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, mgr: mgr, mux: http.NewServeMux()}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/designs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/designs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/designs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/designs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/designs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/designs/{id}/waveform", s.handleWaveform)
	s.mux.HandleFunc("GET /v1/designs/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /v1/designs/{id}/convergence", s.handleConvergence)
	s.mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /internal/cache/{key}", s.handleInternalCache)
	s.mux.HandleFunc("POST /internal/designs", s.handleInternalSubmit)
	s.mux.HandleFunc("GET /internal/jobs/{id}/timeline", s.handleInternalTimeline)
	s.mux.HandleFunc("GET /internal/metrics/snapshot", s.handleMetricsSnapshot)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Handler returns the route table wrapped in the request-metrics and
// structured-logging middleware, ready to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Shutdown stops accepting jobs and drains the queue and in-flight
// work. If ctx expires first, remaining jobs are cancelled via their
// contexts and Shutdown returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error { return s.mgr.close(ctx) }
