package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"chrysalis/internal/audit"
	"chrysalis/internal/cluster"
	"chrysalis/internal/core"
	"chrysalis/internal/explore"
	"chrysalis/internal/obs"
	"chrysalis/internal/search"
	"chrysalis/internal/sim"
)

// JobState is a job's position in its lifecycle:
// queued → running → done | failed | cancelled.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Submission errors.
var (
	// ErrShuttingDown rejects submissions during graceful shutdown.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrQueueFull rejects submissions beyond the queue bound.
	ErrQueueFull = errors.New("serve: job queue full")
)

// ProgressInfo is the most recent GA telemetry of a running job. Best
// is 0 while no candidate has been feasible (JSON has no +Inf; the
// matching quality record's feasible count is 0 then).
type ProgressInfo struct {
	Gen   int     `json:"gen"`
	Evals int     `json:"evals"`
	Best  float64 `json:"best"`
}

// SimSummary is the wire form of a step-simulator run.
type SimSummary struct {
	Completed        bool    `json:"completed"`
	E2ELatencyS      float64 `json:"e2e_latency_s"`
	ActiveTimeS      float64 `json:"active_time_s"`
	PowerCycles      int     `json:"power_cycles"`
	Checkpoints      int     `json:"checkpoints"`
	Resumes          int     `json:"resumes"`
	TileRetries      int     `json:"tile_retries"`
	TilesDone        int     `json:"tiles_done"`
	SystemEfficiency float64 `json:"system_efficiency"`
}

func simSummary(r sim.Result) SimSummary {
	return SimSummary{
		Completed:        r.Completed,
		E2ELatencyS:      float64(r.E2ELatency),
		ActiveTimeS:      float64(r.ActiveTime),
		PowerCycles:      r.PowerCycles,
		Checkpoints:      r.Checkpoints,
		Resumes:          r.Resumes,
		TileRetries:      r.TileRetries,
		TilesDone:        r.TilesDone,
		SystemEfficiency: r.SystemEfficiency,
	}
}

// JobStatus is the wire form of a job (POST/GET /v1/designs responses
// and the terminal SSE "done" event).
type JobStatus struct {
	ID        string        `json:"id"`
	Key       string        `json:"key"`
	State     JobState      `json:"state"`
	Cached    bool          `json:"cached"`
	CreatedAt time.Time     `json:"created_at"`
	StartedAt *time.Time    `json:"started_at,omitempty"`
	DoneAt    *time.Time    `json:"done_at,omitempty"`
	Error     string        `json:"error,omitempty"`
	Progress  *ProgressInfo `json:"progress,omitempty"`
	// Workers is the search-evaluation concurrency granted to this job
	// by the process-global worker gate (informational; results are
	// bit-identical for any worker count).
	Workers int           `json:"workers,omitempty"`
	Result  *core.Result  `json:"result,omitempty"`
	Verify  *SimSummary   `json:"verify,omitempty"`
	Audit   *audit.Report `json:"audit,omitempty"`
}

// job is one design-search unit of work.
type job struct {
	id string
	js jobSpec

	mu       sync.Mutex
	state    JobState
	cached   bool
	workers  int
	err      string
	result   *core.Result
	verify   *SimSummary
	rec      *sim.Recorder
	audit    *audit.Report
	created  time.Time
	started  time.Time
	finished time.Time
	progress *ProgressInfo
	// quality accumulates the live per-generation search telemetry,
	// already JSON-sanitized; the convergence endpoint serves it while
	// the job runs and falls back to Result.Quality once it is done.
	quality search.QualityHistory
	cancel  context.CancelFunc

	stream *stream
	trace  *obs.Trace
	done   chan struct{}

	// timeline accumulates the job's completed phases (admission, queue
	// wait, search, …) for the timeline endpoint; remote holds the owner
	// node's trace segment when the job was delegated. Both under mu.
	timeline []timelinePhase
	remote   *remoteSegment
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Key:       j.js.key,
		State:     j.state,
		Cached:    j.cached,
		CreatedAt: j.created,
		Error:     j.err,
		Workers:   j.workers,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.DoneAt = &t
	}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	if j.verify != nil {
		s := *j.verify
		st.Verify = &s
	}
	st.Audit = j.audit
	return st
}

// recorder returns the job's flight recorder, if the job carries one.
// The recorder is safe to snapshot while the verify replay is running —
// the waveform endpoint reads it live.
func (j *job) recorder() *sim.Recorder {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// manager owns the job table, the single-flight index, the result
// cache, the worker pool and, when configured, the WAL journal and the
// cluster peer client.
type manager struct {
	opts Options
	met  *metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // insertion order, for pruning finished records
	inflight map[string]*job
	nextID   int64
	closed   bool

	cache   *lruCache
	queue   chan *job
	gate    *workerGate
	wg      sync.WaitGroup
	journal *journal           // nil = in-memory only
	cluster *cluster.Client    // nil = single-node
	adm     *admission         // nil = no per-client quotas
	warm    *explore.WarmCache // nil = warm tier disabled

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

func newManager(opts Options) (*manager, error) {
	ctx, cancel := context.WithCancel(context.Background())
	m := &manager{
		opts:       opts,
		met:        newMetrics(),
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		cache:      newLRU(opts.CacheSize),
		gate:       newWorkerGate(runtime.GOMAXPROCS(0) - opts.Workers),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	if opts.WarmCacheMB > 0 {
		m.warm = explore.NewWarmCache(int64(opts.WarmCacheMB) << 20)
		m.met.registerWarm(m.warm)
	}
	if opts.QuotaRPS > 0 {
		m.adm = newAdmission(opts.QuotaRPS, opts.QuotaBurst)
	}
	if len(opts.Peers) > 0 {
		transitions := m.met.reg.CounterVec("chrysalisd_cluster_breaker_transitions_total",
			"Circuit-breaker state transitions, by peer and new state.",
			"peer", "state")
		cl, err := cluster.New(cluster.Options{
			Self:    opts.Self,
			Peers:   opts.Peers,
			Timeout: opts.ClusterTimeout,
			OnBreaker: func(peer string, open bool) {
				state := "closed"
				if open {
					state = "open"
				}
				transitions.With(peer, state).Inc()
			},
		})
		if err != nil {
			cancel()
			return nil, err
		}
		m.cluster = cl
		m.met.reg.GaugeSampleFunc("chrysalisd_cluster_breaker_open",
			"Whether each remote peer's circuit breaker is currently open (1) or closed (0).",
			[]string{"peer"}, func() []obs.LabeledValue {
				states := cl.PeerStates()
				out := make([]obs.LabeledValue, 0, len(states))
				for _, ps := range states {
					v := int64(0)
					if ps.Open {
						v = 1
					}
					out = append(out, obs.LabeledValue{Labels: []string{ps.Peer}, Value: v})
				}
				return out
			})
	}

	// Recover the job table from the WAL before the queue exists and the
	// workers start, so recovered pending jobs run before any new ones.
	var recovered []*recoveredJob
	if opts.WALDir != "" {
		jn, recs, next, err := openJournal(opts.WALDir, opts.Logger)
		if err != nil {
			cancel()
			return nil, err
		}
		m.journal = jn
		m.nextID = next
		recovered = recs
		m.registerWALMetrics()
	}
	pending := 0
	for _, r := range recovered {
		if !r.state.terminal() {
			pending++
		}
	}
	depth := opts.QueueDepth
	if pending > depth {
		depth = pending // recovery never drops jobs to the queue bound
	}
	m.queue = make(chan *job, depth)
	m.adopt(recovered)

	m.met.reg.GaugeFunc("chrysalisd_cache_entries",
		"Designs currently held by the result cache.",
		func() int64 { return int64(m.cache.len()) })
	m.met.reg.GaugeFunc("chrysalisd_job_records",
		"Job records currently retained.",
		func() int64 { return int64(m.jobCount()) })
	m.met.reg.GaugeFunc("chrysalisd_search_worker_slots",
		"Extra search-worker slots available beyond the job pool (GOMAXPROCS - pool width).",
		func() int64 { return int64(m.gate.cap()) })
	m.met.reg.GaugeFunc("chrysalisd_search_worker_slots_in_use",
		"Extra search-worker slots currently held by running jobs.",
		func() int64 { return int64(m.gate.inUse()) })
	m.met.reg.GaugeFunc("chrysalisd_queue_depth",
		"Design jobs waiting in the queue right now.",
		func() int64 { return int64(len(m.queue)) })
	if m.adm != nil {
		m.met.reg.GaugeSampleFunc("chrysalisd_quota_tokens_remaining",
			"Admission tokens currently available per client (token bucket).",
			[]string{"client"}, m.adm.remaining)
	}
	if m.cluster != nil {
		m.met.reg.CounterFunc("chrysalisd_cluster_peer_errors_total",
			"Failed peer calls (timeouts, refused connections, bad statuses).",
			func() int64 { return m.cluster.Stats().PeerErrors })
		m.met.reg.CounterFunc("chrysalisd_cluster_fallbacks_total",
			"Evaluations run locally although a peer owned the key (degraded mode).",
			func() int64 { return m.cluster.Stats().Fallbacks })
		m.met.reg.GaugeFunc("chrysalisd_cluster_peers_up",
			"Remote peers whose circuit breaker is currently closed.",
			func() int64 { return int64(m.cluster.PeersUp()) })
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// adopt installs WAL-recovered jobs: terminal records become finished
// job history (done ones re-seed the result cache), pending ones are
// re-enqueued exactly as if just submitted. Runs before the workers
// start; the manager lock is not yet contended.
func (m *manager) adopt(recovered []*recoveredJob) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recovered {
		js, err := normalize(r.req)
		if err != nil {
			// A record that no longer normalizes (e.g. a workload removed
			// from the catalog) is dropped loudly, not fatally.
			m.opts.Logger.Warn("wal: dropping unrecoverable job", "job", r.id, "error", err)
			continue
		}
		j := &job{
			id:      r.id,
			js:      js,
			state:   r.state,
			created: time.Now(),
			stream:  newStream(),
			trace:   obs.NewTrace(m.opts.TraceEvents),
			done:    make(chan struct{}),
		}
		// The original submission's trace identity did not survive the
		// crash; the recovered run gets a fresh root.
		j.trace.SetContext(obs.NewTraceContext())
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		if n := jobSeq(r.id); n > m.nextID {
			m.nextID = n
		}
		if r.state.terminal() {
			now := time.Now()
			j.started, j.finished = now, now
			j.err = r.err
			j.result = r.result
			j.verify = r.verify
			j.audit = r.audit
			if r.state == JobDone && r.result != nil {
				m.cache.add(js.key, cacheEntry{result: *r.result, verify: r.verify, audit: r.audit})
			}
			j.stream.publish("done", j.status())
			j.stream.close()
			close(j.done)
			continue
		}
		// Queued or running at crash time: both restart from the queue.
		j.state = JobQueued
		m.inflight[js.key] = j
		m.queue <- j // queue is sized to hold every recovered pending job
		m.met.jobsQueued.Inc()
		m.met.jobsRecovered.Inc()
		j.stream.publish("state", map[string]string{"state": string(JobQueued)})
	}
	m.pruneLocked()
}

// submit deduplicates, caches or enqueues a design request. reused is
// true when no new search was started (in-flight coalescing or a cache
// hit).
func (m *manager) submit(js jobSpec) (j *job, reused bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrShuttingDown
	}
	// Single-flight: identical requests share the in-flight job.
	if cur, ok := m.inflight[js.key]; ok {
		m.met.cacheHits.Inc()
		return cur, true, nil
	}
	// Content-addressed cache: finished identical requests skip the
	// search entirely and materialize as an already-done job record.
	if entry, ok := m.cache.get(js.key); ok {
		m.met.cacheHits.Inc()
		j = m.newJobLocked(js)
		now := time.Now()
		j.state = JobDone
		j.cached = true
		res := entry.result
		j.result = &res
		j.verify = entry.verify
		j.rec = entry.rec
		j.audit = entry.audit
		j.started, j.finished = now, now
		j.stream.publish("done", j.status())
		j.stream.close()
		close(j.done)
		return j, true, nil
	}
	m.met.cacheMisses.Inc()
	j = m.newJobLocked(js)
	select {
	case m.queue <- j:
	default:
		delete(m.jobs, j.id)
		m.order = m.order[:len(m.order)-1]
		return nil, false, ErrQueueFull
	}
	m.inflight[js.key] = j
	m.met.jobsQueued.Inc()
	m.journalLocked(walRecord{Op: opSubmit, ID: j.id, Req: &js.req})
	j.stream.publish("state", map[string]string{"state": string(JobQueued)})
	return j, false, nil
}

// journalLocked appends one WAL record and, once the records since the
// last snapshot reach max(snapshotEvery, len(m.jobs)), snapshots the
// whole job table. The log then never holds more records than the
// table it compacts to, so re-encoding the table costs amortized O(1)
// per record. m.mu must be held — that is what makes the collected
// snapshot consistent with the log position.
func (m *manager) journalLocked(rec walRecord) {
	if m.journal == nil {
		return
	}
	if m.journal.append(rec) < max(snapshotEvery, len(m.jobs)) {
		return
	}
	m.journal.snapshot(m.nextID, m.order, m.jobs)
}

// newJobLocked allocates and registers a job record; m.mu must be held.
// The job's trace identity is assigned here, before any worker can see
// the job: a child of the submitting request's context when it carried
// one, a fresh root otherwise.
func (m *manager) newJobLocked(js jobSpec) *job {
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("j-%06d", m.nextID),
		js:      js,
		state:   JobQueued,
		created: time.Now(),
		stream:  newStream(),
		trace:   obs.NewTrace(m.opts.TraceEvents),
		done:    make(chan struct{}),
	}
	if js.tc.Valid() {
		j.trace.SetContext(js.tc.Child())
	} else {
		j.trace.SetContext(obs.NewTraceContext())
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pruneLocked()
	return j
}

// pruneLocked evicts the oldest finished job records beyond MaxJobs.
func (m *manager) pruneLocked() {
	if len(m.jobs) <= m.opts.MaxJobs {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		prunable := j.state.terminal()
		j.mu.Unlock()
		if prunable && len(m.jobs) > m.opts.MaxJobs {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// get looks up a job by ID.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// jobCount reports retained job records.
func (m *manager) jobCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// cancelJob cancels a queued or running job. It reports whether the
// job existed; cancelling a terminal job is a no-op.
func (m *manager) cancelJob(id string) bool {
	j, ok := m.get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		// The worker will observe the terminal state and skip the run.
		j.mu.Unlock()
		m.finish(j, JobCancelled, errors.New("cancelled by client"))
		return true
	case JobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		j.mu.Unlock()
		return true
	}
}

// worker drains the queue until close.
func (m *manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one job: the GA search with live progress telemetry,
// then (for verify jobs) a traced co-simulator replay in the request's
// sim_mode (event by default).
func (m *manager) run(j *job) {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if m.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, m.opts.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	defer cancel()

	j.mu.Lock()
	if j.state != JobQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()

	m.met.jobsRunning.Add(1)
	defer m.met.jobsRunning.Add(-1)
	j.stream.publish("state", map[string]string{"state": string(JobRunning)})

	// Tag this worker goroutine with the job ID so CPU and goroutine
	// profiles attribute pipeline work to the job that caused it; each
	// phase below adds its own label, and the search's evaluation
	// workers inherit this goroutine's labels when they start.
	lctx := pprof.WithLabels(ctx, pprof.Labels("job", j.id))
	pprof.SetGoroutineLabels(lctx)
	defer pprof.SetGoroutineLabels(ctx)

	m.addPhase(j, "queue-wait", j.created, j.started)

	// Cluster path: when a peer owns this design's key, probe its cache
	// and delegate the evaluation to it. Any peer failure falls through
	// to the local path below — degradation is never user-visible.
	if m.runRemote(ctx, j) {
		return
	}

	// Size the job's search concurrency: the job's own pool slot plus
	// whatever slack the worker gate can grant toward the requested
	// width (request's search_workers, falling back to the server
	// default, falling back to GOMAXPROCS). Zero grant means a serial
	// search — never a queued one.
	want := j.js.searchWorkers
	if want <= 0 {
		want = m.opts.SearchWorkers
	}
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	granted := m.gate.tryAcquire(want - 1)
	workers := 1 + granted
	defer func() {
		if granted > 0 {
			m.gate.release(granted)
		}
	}()

	j.mu.Lock()
	j.workers = workers
	spec := j.js.spec
	spec.Search.Workers = workers
	j.mu.Unlock()

	spec.Search.Trace = j.trace
	spec.Search.Warm = m.warm
	spec.Search.OnQuality = func(q search.GenQuality) {
		// Sanitize before storing: the progress snapshot and the record
		// ride SSE, job polls and the convergence endpoint, all of which
		// marshal with encoding/json (which rejects the +Inf an
		// all-infeasible generation carries).
		sq := q.SanitizeJSON()
		p := ProgressInfo{Gen: sq.Gen, Evals: sq.Evals, Best: sq.Best}
		j.mu.Lock()
		j.progress = &p
		j.quality = append(j.quality, sq)
		j.mu.Unlock()
		j.stream.publish("progress", p)
		j.stream.publish("quality", sq)
		m.met.searchGenerations.Inc()
	}

	m.met.evaluations.Inc()
	pprof.SetGoroutineLabels(pprof.WithLabels(lctx, pprof.Labels("phase", "search")))
	searchStart := time.Now()
	res, err := core.RunBaseline(ctx, spec, j.js.baseline)
	m.addPhase(j, "search", searchStart, time.Now(), obs.A("workers", workers))
	// The search is over: hand the extra slots back before the (serial)
	// verify replay so queued jobs can fan out while this one replays.
	if granted > 0 {
		m.gate.release(granted)
		granted = 0
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			m.finish(j, JobFailed, fmt.Errorf("job exceeded timeout %v", m.opts.JobTimeout))
		} else {
			m.finish(j, JobCancelled, errors.New("cancelled"))
		}
		return
	}
	if err != nil {
		m.finish(j, JobFailed, err)
		return
	}

	if res.StoppedEarly {
		m.met.searchEarlyStops.Inc()
	}
	// Counted before finish publishes the terminal state, so a client
	// that sees the job done also sees its search's cache traffic.
	m.met.evalCacheHits.Add(res.CacheHits)
	m.met.evalCacheMisses.Add(res.CacheMisses)
	j.mu.Lock()
	j.result = &res
	j.mu.Unlock()

	if j.js.verify {
		// Replay on the co-simulator with a flight recorder attached,
		// streaming a bounded prefix of its events (the rest are
		// summarized by the drop count) while the trace adapter maps the
		// full stream onto Perfetto slices. The recorder is published on
		// the job before the replay starts so the waveform endpoint can
		// snapshot it mid-flight.
		rec := sim.NewRecorder(0)
		j.mu.Lock()
		j.rec = rec
		j.mu.Unlock()
		pprof.SetGoroutineLabels(pprof.WithLabels(lctx, pprof.Labels("phase", "sim")))
		simStart := time.Now()
		published := 0
		dropped := 0
		adapter := sim.TraceTo(j.trace)
		simRes, auditRep, verr := core.VerifyFlight(spec, res, func(e sim.Event) {
			adapter.Trace(e)
			if published >= maxStreamHistory/2 {
				dropped++
				return
			}
			published++
			j.stream.publish("sim", map[string]any{
				"kind":      e.Kind.String(),
				"time_s":    float64(e.Time),
				"tile":      e.Tile,
				"layer":     e.Layer,
				"voltage_v": float64(e.Voltage),
			})
		}, rec)
		adapter.Close()
		m.addPhase(j, "sim", simStart, time.Now())
		if verr != nil {
			m.finish(j, JobFailed, fmt.Errorf("verify replay: %w", verr))
			return
		}
		if dropped > 0 {
			j.stream.publish("sim-truncated", map[string]int{"dropped": dropped})
		}
		sum := simSummary(simRes)
		j.mu.Lock()
		j.verify = &sum
		j.audit = auditRep
		j.mu.Unlock()
		// Publish the physics verdict on the stream: SSE clients learn
		// whether energy conservation held without polling.
		j.stream.publish("audit", auditRep)
	}
	m.finish(j, JobDone, nil)
}

// finish moves a job to a terminal state, updates the single-flight
// index, the result cache and the metrics, and closes the telemetry
// stream.
func (m *manager) finish(j *job, state JobState, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	finished := time.Now()
	var latency float64
	if !j.started.IsZero() {
		latency = finished.Sub(j.started).Seconds()
	}
	// The result cache and the lifecycle totals learn of the job before
	// its terminal state becomes visible, so a client that has seen the
	// state finds the job counted and its result cached. Both take only
	// their own leaf locks.
	switch state {
	case JobDone:
		if j.result != nil {
			m.cache.add(j.js.key, cacheEntry{result: *j.result, verify: j.verify, rec: j.rec, audit: j.audit})
		}
		m.met.jobsDone.Inc()
		m.met.observeLatency(latency)
	case JobFailed:
		m.met.jobsFailed.Inc()
		m.met.observeLatency(latency)
	case JobCancelled:
		m.met.jobsCancelled.Inc()
	}
	j.state = state
	j.finished = finished
	if err != nil {
		j.err = err.Error()
	}
	rec := j.walRecordLocked()
	j.mu.Unlock()

	m.mu.Lock()
	if m.inflight[j.js.key] == j {
		delete(m.inflight, j.js.key)
	}
	journalStart := time.Now()
	m.journalLocked(rec)
	journalEnd := time.Now()
	m.mu.Unlock()
	if m.journal != nil {
		// Terminal records fsync, so the journal write is a real phase of
		// the job's life worth seeing on its timeline.
		m.addPhase(j, "wal-journal", journalStart, journalEnd)
	}
	attrs := []slog.Attr{
		slog.String("job", j.id),
		slog.String("state", string(state)),
		slog.Float64("latency_s", latency),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	m.opts.Logger.LogAttrs(context.Background(), slog.LevelInfo, "job finished", attrs...)
	j.stream.publish("done", j.status())
	j.stream.close()
	close(j.done)
}

// close stops accepting submissions and drains queued and running jobs.
// If ctx expires first, outstanding jobs are cancelled via the base
// context and close returns ctx.Err() after the workers exit.
func (m *manager) close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
		m.baseCancel()
	case <-ctx.Done():
		m.baseCancel() // force-cancel in-flight searches
		<-drained
		err = ctx.Err()
	}
	if m.journal != nil {
		m.journal.close()
	}
	return err
}
