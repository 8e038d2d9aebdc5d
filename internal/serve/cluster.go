package serve

// Cluster glue: the two peer-facing routes and the delegation path the
// job runner takes when another node owns a design's key.
//
// Exactly-once across the cluster falls out of three existing pieces:
// the consistent-hash ring gives every key one owner, delegation routes
// non-owners' evaluations to it, and the owner's own single-flight
// index coalesces concurrent delegations (and its own submissions) of
// the same key onto one job. Peer failure at any step falls back to
// local evaluation — requests never fail because a peer did.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"chrysalis/internal/audit"
	"chrysalis/internal/cluster"
	"chrysalis/internal/core"
	"chrysalis/internal/obs"
)

// cachePayload is the wire form of GET /internal/cache/{key}: the
// serializable parts of a cache entry (waveform recordings stay local).
type cachePayload struct {
	Result core.Result   `json:"result"`
	Verify *SimSummary   `json:"verify,omitempty"`
	Audit  *audit.Report `json:"audit,omitempty"`
}

// handleInternalCache serves this node's result cache to peers.
func (s *Server) handleInternalCache(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	entry, ok := s.mgr.cache.get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for %q", key))
		return
	}
	writeJSON(w, http.StatusOK, cachePayload{Result: entry.result, Verify: entry.verify, Audit: entry.audit})
}

// handleInternalSubmit accepts a delegated design job from a peer. It
// is handleSubmit minus client quotas (cluster traffic is trusted) and
// with delegation pinned off — a delegated job always resolves on this
// node, so a momentary ring disagreement can never bounce a job
// between nodes. Queue-full still sheds with 429: the submitting peer
// falls back to its local compute, spreading overload instead of
// funneling it to the owner.
func (s *Server) handleInternalSubmit(w http.ResponseWriter, r *http.Request) {
	var req DesignRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid design request: %w", err))
		return
	}
	js, err := normalize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	js.noDelegate = true
	// The delegating node sends its job's traceparent; the owner's job
	// becomes a child span of it, so both nodes share one trace ID.
	js.tc = traceFromRequest(r)
	j, reused, err := s.mgr.submit(js)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterValue(s.mgr.retryAfterQueue()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	code := http.StatusAccepted
	if reused {
		code = http.StatusOK
	}
	writeJSON(w, code, j.status())
}

// runRemote attempts to resolve the job through the key's owner node:
// first a cache probe, then a delegated evaluation. It reports whether
// the job reached a terminal state; false means the caller must run it
// locally (self-owned key, open breaker, or a peer failure mid-flight).
func (m *manager) runRemote(ctx context.Context, j *job) bool {
	if m.cluster == nil || j.js.noDelegate {
		return false
	}
	owner, remote := m.cluster.RemoteOwner(j.js.key)
	if !remote {
		if owner != "" {
			// The key has a remote owner but its breaker is open: the
			// degradation to local compute is a trace-worthy event.
			j.trace.Instant("cluster", "breaker-open", obs.A("peer", owner))
		}
		return false
	}
	// Every peer call under this job carries the job's trace identity,
	// so the owner's spans join this trace instead of starting their own.
	ctx = cluster.WithTraceparent(ctx, j.trace.Context().Traceparent())
	hopStart := time.Now()
	body, hit, err := m.cluster.FetchCached(ctx, owner, j.js.key)
	if err != nil {
		m.cluster.CountFallback()
		m.opts.Logger.Warn("cluster: cache probe failed; evaluating locally",
			"job", j.id, "owner", owner, "error", err)
		return false
	}
	if hit {
		var p cachePayload
		if err := json.Unmarshal(body, &p); err != nil {
			m.cluster.CountFallback()
			m.opts.Logger.Warn("cluster: bad cache payload; evaluating locally",
				"job", j.id, "owner", owner, "error", err)
			return false
		}
		m.addPhase(j, "peer-hop", hopStart, time.Now(),
			obs.A("owner", owner), obs.A("outcome", "cache-hit"))
		m.adoptRemote(j, p.Result, p.Verify, p.Audit, true)
		return true
	}

	reqBody, err := json.Marshal(j.js.req)
	if err != nil {
		m.cluster.CountFallback()
		return false
	}
	final, err := m.cluster.Delegate(ctx, owner, reqBody)
	if err != nil {
		if ctx.Err() != nil {
			// The local job was cancelled or timed out while polling; the
			// normal terminal bookkeeping applies.
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				m.finish(j, JobFailed, fmt.Errorf("job exceeded timeout %v", m.opts.JobTimeout))
			} else {
				m.finish(j, JobCancelled, errors.New("cancelled"))
			}
			return true
		}
		m.cluster.CountFallback()
		m.opts.Logger.Warn("cluster: delegation failed; evaluating locally",
			"job", j.id, "owner", owner, "error", err)
		return false
	}
	var st JobStatus
	if err := json.Unmarshal(final, &st); err != nil {
		m.cluster.CountFallback()
		return false
	}
	switch st.State {
	case JobDone:
		if st.Result == nil {
			m.cluster.CountFallback()
			return false
		}
		m.addPhase(j, "peer-hop", hopStart, time.Now(),
			obs.A("owner", owner), obs.A("outcome", "delegated"))
		m.fetchRemoteSegment(ctx, j, owner, st.ID)
		m.adoptRemote(j, *st.Result, st.Verify, st.Audit, false)
		return true
	case JobFailed:
		// A deterministic failure (bad spec reaching the search) fails
		// identically everywhere; re-running locally would just repeat it.
		m.addPhase(j, "peer-hop", hopStart, time.Now(),
			obs.A("owner", owner), obs.A("outcome", "delegated-failed"))
		m.fetchRemoteSegment(ctx, j, owner, st.ID)
		m.finish(j, JobFailed, fmt.Errorf("delegated to %s: %s", owner, st.Error))
		return true
	default:
		// Cancelled on the owner (its shutdown, its client): not our
		// client's cancellation, so evaluate locally.
		m.cluster.CountFallback()
		return false
	}
}

// fetchRemoteSegment pulls the owner's trace segment for a delegated
// job so the local trace export stitches both nodes' spans into one
// timeline. Best effort: a failed fetch costs the remote spans, never
// the job.
func (m *manager) fetchRemoteSegment(ctx context.Context, j *job, owner, remoteID string) {
	if remoteID == "" {
		return
	}
	body, status, err := m.cluster.Get(ctx, owner, "/internal/jobs/"+remoteID+"/timeline")
	if err != nil || status != http.StatusOK {
		m.opts.Logger.Warn("cluster: remote trace segment fetch failed",
			"job", j.id, "owner", owner, "remote_job", remoteID, "status", status, "error", err)
		return
	}
	var it internalTimeline
	if err := json.Unmarshal(body, &it); err != nil {
		m.opts.Logger.Warn("cluster: bad remote trace segment",
			"job", j.id, "owner", owner, "error", err)
		return
	}
	j.mu.Lock()
	j.remote = &remoteSegment{node: it.Node, anchorUnixMicros: it.AnchorUnixMicros, events: it.Events}
	j.mu.Unlock()
}

// adoptRemote installs a peer-computed result and finishes the job.
// The result also enters this node's cache via finish, so repeated
// submissions here stop needing the peer at all.
func (m *manager) adoptRemote(j *job, res core.Result, verify *SimSummary, rep *audit.Report, fromCache bool) {
	j.mu.Lock()
	r := res
	j.result = &r
	j.verify = verify
	j.audit = rep
	j.cached = fromCache
	j.mu.Unlock()
	m.finish(j, JobDone, nil)
}
