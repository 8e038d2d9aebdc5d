package chrysalis

import "chrysalis/internal/serve"

// ServerOptions configures an embedded chrysalisd service: worker-pool
// and queue sizing, result-cache capacity, per-job timeouts, WAL
// durability (WALDir), cluster membership (Self/Peers) and per-client
// admission quotas (QuotaRPS/QuotaBurst). The zero value selects the
// same defaults cmd/chrysalisd ships with.
type ServerOptions = serve.Options

// Server is the embeddable form of the chrysalisd daemon: the full
// design-as-a-service HTTP surface (async design jobs with SSE
// telemetry, the content-addressed result cache, job timelines and
// waveforms, metrics) behind a single http.Handler. Programs that want the
// service inside their own process — custom listeners, extra routes,
// shared shutdown — mount Handler() and call Shutdown to drain:
//
//	srv, err := chrysalis.NewServer(chrysalis.ServerOptions{
//		WALDir: "/var/lib/chrysalisd",
//	})
//	if err != nil { ... }
//	http.ListenAndServe(":8080", srv.Handler())
type Server = serve.Server

// JobState is a design job's lifecycle position:
// queued → running → done | failed | cancelled.
type JobState = serve.JobState

// NewServer builds a Server, recovers any WAL state from
// ServerOptions.WALDir, and starts the worker pool. It fails when the
// WAL directory is unusable or the cluster configuration is
// inconsistent (e.g. Self missing from Peers).
func NewServer(opts ServerOptions) (*Server, error) { return serve.New(opts) }
