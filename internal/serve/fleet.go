package serve

// Fleet telemetry. Every node exposes a one-shot snapshot of its own
// health at GET /internal/metrics/snapshot; GET /v1/fleet pulls every
// peer's snapshot on demand and returns the aggregated cluster view —
// per-node queue depth, cache hit ratio, breaker states, simulator
// fast-path ratio and warm-tier traffic — without any background gossip:
// the fleet view is only as fresh as the request that asked for it.

import (
	"encoding/json"
	"net/http"
	"sync"

	"chrysalis/internal/cluster"
	"chrysalis/internal/obs"
	"chrysalis/internal/sim"
)

// nodeSnapshot is one node's self-reported health, the unit of
// /internal/metrics/snapshot and the rows of /v1/fleet.
type nodeSnapshot struct {
	Node            string              `json:"node"`
	QueueDepth      int                 `json:"queue_depth"`
	JobsRunning     int64               `json:"jobs_running"`
	JobsDone        int64               `json:"jobs_done"`
	JobsFailed      int64               `json:"jobs_failed"`
	JobRecords      int                 `json:"job_records"`
	CacheEntries    int                 `json:"cache_entries"`
	CacheHits       int64               `json:"cache_hits"`
	CacheMisses     int64               `json:"cache_misses"`
	CacheHitRatio   float64             `json:"cache_hit_ratio"`
	Evaluations     int64               `json:"evaluations"`
	PeersUp         int                 `json:"peers_up"`
	Breakers        []cluster.PeerState `json:"breakers,omitempty"`
	SimFastSteps    int64               `json:"sim_fast_steps"`
	SimLiteralSteps int64               `json:"sim_literal_steps"`
	SimFastRatio    float64             `json:"sim_fast_ratio"`
	TraceDropped    int64               `json:"trace_dropped"`

	// Warm-start tier residency and traffic (zero values when the node
	// runs without -warm-cache-mb). In cluster mode the consistent-hash
	// ring specializes each node's tier to its own key range, so
	// per-node hit ratios are the interesting signal.
	WarmEnabled   bool    `json:"warm_enabled"`
	WarmBytes     int64   `json:"warm_bytes,omitempty"`
	WarmEntries   int64   `json:"warm_entries,omitempty"`
	WarmHits      int64   `json:"warm_hits,omitempty"`
	WarmMisses    int64   `json:"warm_misses,omitempty"`
	WarmEvictions int64   `json:"warm_evictions,omitempty"`
	WarmHitRatio  float64 `json:"warm_hit_ratio,omitempty"`
}

// snapshot collects this node's current health.
func (m *manager) snapshot() nodeSnapshot {
	met := m.met
	ns := nodeSnapshot{
		Node:         m.nodeName(),
		QueueDepth:   len(m.queue),
		JobsRunning:  met.jobsRunning.Value(),
		JobsDone:     met.jobsDone.Value(),
		JobsFailed:   met.jobsFailed.Value(),
		JobRecords:   m.jobCount(),
		CacheEntries: m.cache.len(),
		CacheHits:    met.cacheHits.Value(),
		CacheMisses:  met.cacheMisses.Value(),
		Evaluations:  met.evaluations.Value(),
		TraceDropped: obs.TraceDroppedTotal(),
	}
	if lookups := ns.CacheHits + ns.CacheMisses; lookups > 0 {
		ns.CacheHitRatio = float64(ns.CacheHits) / float64(lookups)
	}
	_, fast, lit, _ := sim.EventStats()
	ns.SimFastSteps, ns.SimLiteralSteps = fast, lit
	if total := fast + lit; total > 0 {
		ns.SimFastRatio = float64(fast) / float64(total)
	}
	if m.cluster != nil {
		ns.PeersUp = m.cluster.PeersUp()
		ns.Breakers = m.cluster.PeerStates()
	}
	if m.warm != nil {
		ws := m.warm.Stats()
		ns.WarmEnabled = true
		ns.WarmBytes = ws.Bytes
		ns.WarmEntries = ws.Entries
		ns.WarmHits = ws.Hits
		ns.WarmMisses = ws.Misses
		ns.WarmEvictions = ws.Evictions
		ns.WarmHitRatio = m.warm.HitRatio()
	}
	return ns
}

// handleMetricsSnapshot serves this node's snapshot to fleet pullers.
func (s *Server) handleMetricsSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.snapshot())
}

// fleetResponse is the wire form of GET /v1/fleet.
type fleetResponse struct {
	Nodes []nodeSnapshot `json:"nodes"`
	// Unreachable lists peers whose snapshot pull failed this request
	// (open breaker, timeout, bad body). Their last-known state is NOT
	// substituted — a missing row means "don't know", not "fine".
	Unreachable []string `json:"unreachable,omitempty"`
}

// fleet aggregates the cluster view: this node sampled locally, every
// remote peer pulled concurrently. A single node returns just itself.
func (m *manager) fleet(r *http.Request) fleetResponse {
	resp := fleetResponse{Nodes: []nodeSnapshot{m.snapshot()}}
	if m.cluster == nil {
		return resp
	}
	peers := make([]string, 0, len(m.opts.Peers))
	for _, p := range m.opts.Peers {
		if p != m.opts.Self {
			peers = append(peers, p)
		}
	}
	type pulled struct {
		snap nodeSnapshot
		peer string
		ok   bool
	}
	out := make([]pulled, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			out[i].peer = peer
			body, status, err := m.cluster.Get(r.Context(), peer, "/internal/metrics/snapshot")
			if err != nil || status != http.StatusOK {
				return
			}
			var ns nodeSnapshot
			if json.Unmarshal(body, &ns) != nil {
				return
			}
			out[i].snap, out[i].ok = ns, true
		}(i, peer)
	}
	wg.Wait()
	for _, p := range out {
		if p.ok {
			resp.Nodes = append(resp.Nodes, p.snap)
		} else {
			resp.Unreachable = append(resp.Unreachable, p.peer)
		}
	}
	return resp
}

// handleFleet serves the aggregated fleet view.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.fleet(r))
}
