package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"chrysalis/internal/core"
	"chrysalis/internal/dnn"
	"chrysalis/internal/explore"
	"chrysalis/internal/obs"
	"chrysalis/internal/units"
)

// maxBodyBytes bounds request bodies (inline workloads included).
const maxBodyBytes = 1 << 20

// writeJSON renders v with the given status code. It encodes before
// it commits the status, so a value encoding/json rejects (a +Inf, say)
// answers 500 with an error body instead of the promised code with an
// empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		// A map of strings always encodes.
		body, _ = json.MarshalIndent(map[string]string{"error": "encoding response: " + err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

// writeError renders an error payload.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleSubmit accepts a design job: 202 for a new search, 200 when the
// request coalesced onto an in-flight job or was served from the cache,
// 429 with Retry-After when admission control sheds it (client over
// quota, or the job queue is full). 503 means shutdown, nothing else.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	admStart := time.Now()
	if adm := s.mgr.adm; adm != nil {
		if ok, retry := adm.allow(r.Header.Get("X-API-Key")); !ok {
			s.mgr.met.shed.With("quota").Inc()
			w.Header().Set("Retry-After", retryAfterValue(retry))
			writeError(w, http.StatusTooManyRequests, errors.New("client quota exhausted"))
			return
		}
	}
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
	js.tc = traceFromRequest(r)
	j, reused, err := s.mgr.submit(js)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.mgr.met.shed.With("queue_full").Inc()
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
	if !reused {
		// Quota check, decode, normalization and enqueue — the admission
		// cost the client paid before the job existed.
		s.mgr.addPhase(j, "admission", admStart, time.Now())
	}
	code := http.StatusAccepted
	if reused {
		code = http.StatusOK
	}
	writeJSON(w, code, j.status())
}

// handleGet reports one job's status and, when finished, its result.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleCancel cancels a queued or running job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.mgr.cancelJob(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	j, _ := s.mgr.get(id)
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleEvents streams a job's telemetry as server-sent events:
// "state" transitions, "progress" GA generations, "quality" search
// telemetry per generation, "sim" step-simulator events for verify
// jobs, and a terminal "done" carrying the full job status. Subscribers
// that connect late replay the buffered history.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	events, cancel := j.stream.subscribe()
	defer cancel()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return // job finished and history fully delivered
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves a job's recorded pipeline spans as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing: search generations, explorer score/evaluate and
// ladder builds and, for verify jobs, the step simulator's power
// cycles, tiles and checkpoint activity on the simulated clock. A
// delegated job's export stitches the owner node's spans in as a
// second process sharing this job's trace ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.id+"-trace.json"))
	_ = obs.WriteStitched(w, j.trace.Context(), s.mgr.stitchedProcs(j))
}

// SimulateRequest is the wire form of POST /v1/simulate: a workload
// plus an explicit hardware configuration to replay on the event-driven
// co-simulator (no search).
type SimulateRequest struct {
	Workload     string          `json:"workload,omitempty"`
	WorkloadJSON json.RawMessage `json:"workload_json,omitempty"`
	// Platform is "msp430" (default) or "accel".
	Platform     string  `json:"platform,omitempty"`
	PanelAreaCM2 float64 `json:"panel_area_cm2"`
	CapF         float64 `json:"cap_f"`
	// InferHW names the accelerator architecture for the accel platform
	// (e.g. "tpu", "eyeriss"); ignored for msp430.
	InferHW    string  `json:"infer_hw,omitempty"`
	NPE        int     `json:"npe,omitempty"`
	CacheBytes float64 `json:"cache_bytes,omitempty"`
}

// handleSimulate runs a synchronous co-simulation of one explicit
// design point.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid simulate request: %w", err))
		return
	}
	if req.PanelAreaCM2 <= 0 || req.CapF <= 0 {
		writeError(w, http.StatusBadRequest, errors.New("panel_area_cm2 and cap_f must be positive"))
		return
	}
	spec := core.Spec{WorkloadName: req.Workload}
	if spec.WorkloadName == "" {
		spec.WorkloadName = "har"
	}
	if len(req.WorkloadJSON) > 0 {
		wk, err := dnn.ParseJSON(req.WorkloadJSON)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		spec.WorkloadName = ""
		spec.Workload = &wk
	}
	res := core.Result{
		PanelArea: units.AreaCM2(req.PanelAreaCM2),
		Cap:       units.Capacitance(req.CapF),
		InferHW:   "msp430",
		NPE:       1,
	}
	switch req.Platform {
	case "", "msp430":
		spec.Platform = explore.MSP
	case "accel":
		spec.Platform = explore.Accel
		if req.InferHW == "" || req.NPE <= 0 || req.CacheBytes <= 0 {
			writeError(w, http.StatusBadRequest,
				errors.New("accel platform needs infer_hw, npe and cache_bytes"))
			return
		}
		res.InferHW = req.InferHW
		res.NPE = req.NPE
		res.CacheBytes = units.Bytes(req.CacheBytes)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown platform %q (want msp430 or accel)", req.Platform))
		return
	}
	run, err := core.Verify(spec, res)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, simSummary(run))
}

// WorkloadInfo is one catalog entry of GET /v1/workloads.
type WorkloadInfo struct {
	Name      string `json:"name"`
	Layers    int    `json:"layers"`
	ElemBytes int    `json:"elem_bytes"`
}

// handleWorkloads lists the built-in workload catalog.
func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	var out []WorkloadInfo
	for _, name := range dnn.Names() {
		wk, err := dnn.ByName(name)
		if err != nil {
			continue
		}
		out = append(out, WorkloadInfo{Name: name, Layers: len(wk.Layers), ElemBytes: wk.ElemBytes})
	}
	writeJSON(w, http.StatusOK, out)
}

// PresetInfo is one deployment scenario of GET /v1/presets.
type PresetInfo struct {
	Name        string `json:"name"`
	Domain      string `json:"domain"`
	Description string `json:"description"`
}

// handlePresets lists the built-in deployment scenarios.
func (s *Server) handlePresets(w http.ResponseWriter, _ *http.Request) {
	var out []PresetInfo
	for _, p := range core.Presets() {
		out = append(out, PresetInfo{Name: p.Name, Domain: p.Domain, Description: p.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"jobs":   s.mgr.jobCount(),
	})
}

// handleMetrics renders the Prometheus-style metrics page from the obs
// registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mgr.met.reg.WritePrometheus(w)
}
