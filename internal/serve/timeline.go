package serve

// End-to-end job timelines. Every job accumulates a list of named
// phases — admission, queue-wait, peer-hop, search, sim, wal-journal —
// each recorded twice: once on the job's span ring (so the Perfetto
// export shows them on a "job" track) and once as wall-clock intervals
// the timeline endpoints serve as JSON. When a job was delegated to a
// peer, the owner's trace segment is fetched after the fact and both
// the stitched trace export and the timeline carry the remote spans,
// aligned onto this node's clock via the two anchors.

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"chrysalis/internal/obs"
)

// timelinePhase is one recorded interval of a job's life on one node.
type timelinePhase struct {
	name  string
	node  string
	start time.Time
	end   time.Time
	attrs []obs.Attr
}

// remoteSegment is the owner node's trace contribution to a delegated
// job, fetched over GET /internal/jobs/{id}/timeline after delegation.
type remoteSegment struct {
	node             string
	anchorUnixMicros float64
	events           []obs.TraceEvent
}

// nodeName labels this node's phases and trace process: the cluster
// base URL when clustered, "local" otherwise.
func (m *manager) nodeName() string {
	if m.opts.Self != "" {
		return m.opts.Self
	}
	return "local"
}

// addPhase records one completed phase on both the span ring and the
// timeline list.
func (m *manager) addPhase(j *job, name string, start, end time.Time, attrs ...obs.Attr) {
	j.trace.SliceBetween("job", name, start, end, attrs...)
	j.mu.Lock()
	j.timeline = append(j.timeline, timelinePhase{
		name: name, node: m.nodeName(), start: start, end: end, attrs: attrs,
	})
	j.mu.Unlock()
}

// TimelinePhase is one phase of GET /v1/designs/{id}/timeline.
type TimelinePhase struct {
	Name string `json:"name"`
	// Node is the node the phase ran on (delegated phases carry the
	// owner's base URL).
	Node        string         `json:"node"`
	StartUnixUS int64          `json:"start_unix_us"`
	DurUS       int64          `json:"dur_us"`
	Detail      map[string]any `json:"detail,omitempty"`
}

// Timeline is the wire form of GET /v1/designs/{id}/timeline: the job's whole
// life as ordered phases, across every node it touched.
type Timeline struct {
	ID      string          `json:"id"`
	TraceID string          `json:"trace_id,omitempty"`
	State   JobState        `json:"state"`
	Phases  []TimelinePhase `json:"phases"`
}

// timeline assembles the merged local + remote phase list, ordered by
// start time.
func (m *manager) timeline(j *job) Timeline {
	j.mu.Lock()
	out := Timeline{ID: j.id, State: j.state}
	phases := append([]timelinePhase(nil), j.timeline...)
	seg := j.remote
	j.mu.Unlock()
	if tc := j.trace.Context(); tc.Valid() {
		out.TraceID = tc.TraceID
	}
	for _, p := range phases {
		tp := TimelinePhase{
			Name:        p.name,
			Node:        p.node,
			StartUnixUS: p.start.UnixMicro(),
			DurUS:       p.end.Sub(p.start).Microseconds(),
		}
		if len(p.attrs) > 0 {
			tp.Detail = make(map[string]any, len(p.attrs))
			for _, a := range p.attrs {
				tp.Detail[a.Key] = a.Value
			}
		}
		out.Phases = append(out.Phases, tp)
	}
	if seg != nil {
		// The owner's "job"-track slices become phases on its node label;
		// its anchor converts ring-relative microseconds to wall clock.
		for _, ev := range seg.events {
			if ev.Track != "job" || ev.Phase != "X" {
				continue
			}
			out.Phases = append(out.Phases, TimelinePhase{
				Name:        ev.Name,
				Node:        seg.node,
				StartUnixUS: int64(seg.anchorUnixMicros + ev.TS),
				DurUS:       int64(ev.Dur),
				Detail:      ev.Args,
			})
		}
	}
	sort.SliceStable(out.Phases, func(i, k int) bool {
		return out.Phases[i].StartUnixUS < out.Phases[k].StartUnixUS
	})
	return out
}

// handleTimeline serves the merged end-to-end timeline of one job.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.mgr.timeline(j))
}

// internalTimeline is the peer-facing wire form of a job's trace
// segment: everything a submitting node needs to stitch the owner's
// spans into its own export.
type internalTimeline struct {
	ID               string           `json:"id"`
	Node             string           `json:"node"`
	TraceID          string           `json:"trace_id,omitempty"`
	AnchorUnixMicros float64          `json:"anchor_unix_us"`
	Events           []obs.TraceEvent `json:"events"`
}

// handleInternalTimeline ships one job's raw trace segment to a peer.
func (s *Server) handleInternalTimeline(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	it := internalTimeline{
		ID:               j.id,
		Node:             s.mgr.nodeName(),
		AnchorUnixMicros: j.trace.AnchorUnixMicros(),
		Events:           j.trace.Events(),
	}
	if tc := j.trace.Context(); tc.Valid() {
		it.TraceID = tc.TraceID
	}
	writeJSON(w, http.StatusOK, it)
}

// stitchedProcs builds the process list for the job's Perfetto export:
// the local ring always, plus the owner's segment for delegated jobs,
// shifted onto this node's clock.
func (m *manager) stitchedProcs(j *job) []obs.Process {
	j.mu.Lock()
	seg := j.remote
	j.mu.Unlock()
	procs := []obs.Process{{Name: m.nodeName(), Trace: j.trace}}
	if seg != nil {
		procs = append(procs, obs.Process{
			Name:         seg.node,
			Events:       seg.events,
			OffsetMicros: seg.anchorUnixMicros - j.trace.AnchorUnixMicros(),
		})
	}
	return procs
}
