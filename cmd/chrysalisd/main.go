// Command chrysalisd serves the CHRYSALIS design pipeline over
// HTTP/JSON: asynchronous design-search jobs with live SSE telemetry,
// synchronous step-simulation, a content-addressed result cache,
// Prometheus-style metrics, per-job Perfetto traces and pprof
// profiling endpoints.
//
// Quickstart:
//
//	chrysalisd -addr :8080 &
//	curl -s -X POST localhost:8080/v1/designs \
//	     -d '{"workload":"har","budget":200}'          # => {"id":"j-000001",...}
//	curl -N localhost:8080/v1/designs/j-000001/events  # live GA progress
//	curl -s localhost:8080/v1/designs/j-000001         # status / result
//	curl -s localhost:8080/v1/designs/j-000001/trace \
//	     -o trace.json                                 # open in ui.perfetto.dev
//	curl -s localhost:8080/v1/designs/j-000001/timeline # end-to-end phase timeline
//	curl -s localhost:8080/v1/designs/j-000001/convergence # per-generation search quality
//	curl -s localhost:8080/v1/fleet                    # aggregated cluster view
//	curl -s 'localhost:8080/v1/designs/j-000001/waveform?format=csv' \
//	     -o wave.csv                                   # flight recording (verify jobs)
//	curl -s localhost:8080/metrics | grep chrysalisd_
//	go tool pprof localhost:8080/debug/pprof/profile
//
// SIGINT/SIGTERM triggers a graceful shutdown that drains in-flight
// jobs (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"chrysalis/internal/obs"
	"chrysalis/internal/serve"
)

// parseLogLevel maps the -log-level flag onto a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "design-job worker pool size (0 = GOMAXPROCS)")
		searchWkrs   = flag.Int("search-workers", 0, "default per-job search-evaluation concurrency (0 = auto); grants are capped by a process-global semaphore sized to GOMAXPROCS minus the -workers pool width, so jobs x search workers never oversubscribes the machine; never changes results")
		cacheSize    = flag.Int("cache", 128, "result-cache capacity in designs")
		warmMB       = flag.Int("warm-cache-mb", 0, "process-lifetime warm-start tier bound in MiB (0 = off); near-duplicate jobs reuse plan ladders instead of rebuilding them; never changes results")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job search deadline (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
		traceEvents  = flag.Int("trace-events", 0, "per-job span ring-buffer capacity (0 = default)")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		showVersion  = flag.Bool("version", false, "print version and exit")

		walDir     = flag.String("wal-dir", "", "write-ahead-log directory for a durable job store (empty = in-memory only); queued and running jobs survive a crash and re-run on restart")
		self       = flag.String("self", "", "this node's base URL as listed in -peers (cluster mode)")
		peers      = flag.String("peers", "", "comma-separated base URLs of every cluster node including this one (empty = single node); all nodes must pass the same list")
		clusterTO  = flag.Duration("cluster-timeout", 0, "per-peer-call timeout in cluster mode (0 = 2s)")
		quota      = flag.Float64("quota", 0, "per-client sustained submissions/sec, keyed on the X-API-Key header (0 = unlimited); over-quota submissions get 429 + Retry-After")
		quotaBurst = flag.Int("quota-burst", 0, "per-client burst allowance in submissions (0 = 2x -quota, minimum 1)")
	)
	queueDepth := flag.Int("max-queue", 64, "maximum queued jobs before submissions are shed with 429 + Retry-After")
	flag.IntVar(queueDepth, "queue", 64, "alias for -max-queue (kept for compatibility)")
	flag.Parse()
	if *showVersion {
		fmt.Printf("chrysalisd %s (%s, %s/%s)\n", obs.Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}
	if *workers < 0 || *searchWkrs < 0 || *queueDepth < 0 || *cacheSize < 0 || *warmMB < 0 || *quota < 0 || *quotaBurst < 0 {
		fmt.Fprintln(os.Stderr, "chrysalisd: -workers, -search-workers, -max-queue, -cache, -warm-cache-mb, -quota and -quota-burst must be non-negative")
		os.Exit(1)
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *self == "" {
			fmt.Fprintln(os.Stderr, "chrysalisd: -peers requires -self (this node's own URL from the list)")
			os.Exit(1)
		}
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chrysalisd: %v\n", err)
		os.Exit(1)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	srv, err := serve.New(serve.Options{
		Workers:        *workers,
		SearchWorkers:  *searchWkrs,
		QueueDepth:     *queueDepth,
		CacheSize:      *cacheSize,
		WarmCacheMB:    *warmMB,
		JobTimeout:     *jobTimeout,
		TraceEvents:    *traceEvents,
		Logger:         logger,
		WALDir:         *walDir,
		Self:           *self,
		Peers:          peerList,
		ClusterTimeout: *clusterTO,
		QuotaRPS:       *quota,
		QuotaBurst:     *quotaBurst,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chrysalisd: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", effWorkers,
		"cache", *cacheSize, "queue", *queueDepth)

	select {
	case err := <-errCh:
		logger.Error("listen failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down: draining jobs", "drain_timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("job drain", "error", err)
	}
	logger.Info("bye")
}
