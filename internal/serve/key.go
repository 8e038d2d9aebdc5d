package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"chrysalis/internal/core"
	"chrysalis/internal/dnn"
	"chrysalis/internal/explore"
	"chrysalis/internal/obs"
	"chrysalis/internal/sim"
	"chrysalis/internal/units"
)

// DesignRequest is the wire form of POST /v1/designs. Omitted fields
// take the same defaults as the chrysalis CLI, and two requests that
// normalize to the same values share one cache key — and therefore one
// search.
type DesignRequest struct {
	// Workload names a catalog workload (default "har").
	Workload string `json:"workload,omitempty"`
	// WorkloadJSON inlines a custom workload in the internal/dnn JSON
	// schema; it overrides Workload.
	WorkloadJSON json.RawMessage `json:"workload_json,omitempty"`
	// Platform is "msp430" (default) or "accel".
	Platform string `json:"platform,omitempty"`
	// Objective is "lat", "sp" or "lat*sp" (default).
	Objective string `json:"objective,omitempty"`
	// Baseline is the search space: "chrysalis" (default) or one of the
	// Table VI ablations (wo/Cap, wo/SP, wo/EA, wo/PE, wo/Cache, wo/IA).
	Baseline string `json:"baseline,omitempty"`
	// MaxPanelCM2 bounds the panel for the lat objective (0 = 30 cm²).
	MaxPanelCM2 float64 `json:"max_panel_cm2,omitempty"`
	// MaxLatencyS bounds latency for the sp objective (0 = 30 s).
	MaxLatencyS float64 `json:"max_latency_s,omitempty"`
	// Budget approximates the search-evaluation budget (0 = 400).
	Budget int `json:"budget,omitempty"`
	// Seed seeds the search (default 1 so equal requests cache-hit).
	Seed int64 `json:"seed,omitempty"`
	// Algorithm is "ga" (default), "random", or "nsga" (multi-objective
	// Pareto search; the result carries the front and the convergence
	// endpoint reports hypervolume).
	Algorithm string `json:"algorithm,omitempty"`
	// Patience enables the plateau early-stop policy: stop after N
	// generations whose relative best-objective (or hypervolume)
	// improvement stays below ~0.1%. Unlike SearchWorkers it changes the
	// result, so it IS part of the cache key. 0 (default) disables it.
	Patience int `json:"patience,omitempty"`
	// Verify replays the winning design on the co-simulator after the
	// search, streaming its events over SSE and attaching the summary.
	Verify bool `json:"verify,omitempty"`
	// SimMode selects the co-simulator core for the verify replay:
	// "event" (default; analytic fast path), "step" (bit-honest
	// fixed-step oracle) or "differential" (run both, fail the job on
	// divergence).
	SimMode string `json:"sim_mode,omitempty"`
	// SearchWorkers requests a per-job search-evaluation concurrency
	// (0 = server default, which defaults to auto/GOMAXPROCS). The
	// actual grant is capped by the server's worker gate so concurrent
	// jobs never oversubscribe the machine. Deliberately NOT part of the
	// cache key: results are bit-identical for any worker count, so two
	// requests differing only here must share one search.
	SearchWorkers int `json:"search_workers,omitempty"`
}

// jobSpec is a fully normalized, validated design request: the exact
// problem a worker will run, plus its content-addressed cache key.
type jobSpec struct {
	spec     core.Spec
	baseline explore.Baseline
	verify   bool
	// searchWorkers is the requested per-job evaluation concurrency
	// (0 = server default). Excluded from key: it never changes results.
	searchWorkers int
	key           string
	// req is the request with defaults applied — the durable wire form
	// the WAL journal persists and cluster delegation forwards.
	// Re-normalizing req yields this jobSpec back (same key).
	req DesignRequest
	// noDelegate pins the job to local evaluation. Set on submissions
	// arriving over /internal/designs so a delegated job can never hop
	// to a third node, even if peers momentarily disagree on the ring.
	noDelegate bool
	// tc is the submitting request's trace context; the job's own trace
	// becomes its child so one distributed trace spans client →
	// submission → (delegation →) evaluation. Excluded from the cache
	// key: identity never changes results.
	tc obs.TraceContext
}

// keyPayload is the canonical identity of a design request: every field
// that changes the search outcome, in a fixed order, with defaults
// already applied. The search's observation hooks (Progress,
// OnQuality), its trace and warm tier, its cancellation (the job ctx)
// and SearchWorkers are deliberately absent — they never alter the
// result (the search is bit-identical for any worker count).
type keyPayload struct {
	Workload   string  `json:"workload"`
	Platform   string  `json:"platform"`
	Objective  string  `json:"objective"`
	Baseline   string  `json:"baseline"`
	MaxPanel   float64 `json:"max_panel"`
	MaxLatency float64 `json:"max_latency"`
	Budget     int     `json:"budget"`
	Seed       int64   `json:"seed"`
	Algorithm  string  `json:"algorithm"`
	Patience   int     `json:"patience"`
	Verify     bool    `json:"verify"`
	SimMode    string  `json:"sim_mode"`
}

// normalize applies defaults, validates every field, and computes the
// canonical cache key.
func normalize(req DesignRequest) (jobSpec, error) {
	if req.Workload == "" {
		req.Workload = "har"
	}
	if req.Platform == "" {
		req.Platform = "msp430"
	}
	if req.Objective == "" {
		req.Objective = "lat*sp"
	}
	if req.Baseline == "" {
		req.Baseline = "chrysalis"
	}
	if req.Algorithm == "" {
		req.Algorithm = "ga"
	}
	if req.Budget == 0 {
		req.Budget = 400
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.SimMode == "" {
		req.SimMode = "event"
	}
	simMode, err := sim.ParseMode(req.SimMode)
	if err != nil {
		return jobSpec{}, err
	}

	switch {
	case req.Budget < 0:
		return jobSpec{}, fmt.Errorf("budget must be positive, got %d", req.Budget)
	case req.MaxPanelCM2 < 0:
		return jobSpec{}, fmt.Errorf("max_panel_cm2 must be non-negative, got %g", req.MaxPanelCM2)
	case req.MaxLatencyS < 0:
		return jobSpec{}, fmt.Errorf("max_latency_s must be non-negative, got %g", req.MaxLatencyS)
	case req.SearchWorkers < 0:
		return jobSpec{}, fmt.Errorf("search_workers must be non-negative, got %d", req.SearchWorkers)
	case req.Patience < 0:
		return jobSpec{}, fmt.Errorf("patience must be non-negative, got %d", req.Patience)
	}
	switch req.Algorithm {
	case "ga", "random", "nsga":
	default:
		return jobSpec{}, fmt.Errorf("unknown algorithm %q (want ga, random or nsga)", req.Algorithm)
	}

	js := jobSpec{verify: req.Verify, searchWorkers: req.SearchWorkers}
	switch req.Platform {
	case "msp430":
		js.spec.Platform = explore.MSP
	case "accel":
		js.spec.Platform = explore.Accel
	default:
		return jobSpec{}, fmt.Errorf("unknown platform %q (want msp430 or accel)", req.Platform)
	}
	obj, err := explore.ParseObjective(req.Objective)
	if err != nil {
		return jobSpec{}, err
	}
	js.spec.Objective = obj

	found := false
	for _, b := range explore.Baselines() {
		if b.String() == req.Baseline {
			js.baseline = b
			found = true
			break
		}
	}
	if !found {
		return jobSpec{}, fmt.Errorf("unknown baseline %q", req.Baseline)
	}

	// Resolve the workload now so bad requests fail at submission with a
	// 400 rather than as a failed job, and so inline workloads hash by
	// their canonical serialization, not the client's whitespace.
	var wkey string
	if len(req.WorkloadJSON) > 0 {
		w, err := dnn.ParseJSON(req.WorkloadJSON)
		if err != nil {
			return jobSpec{}, err
		}
		canon, err := w.ToJSON()
		if err != nil {
			return jobSpec{}, err
		}
		js.spec.Workload = &w
		wkey = "json:" + string(canon)
	} else {
		if _, err := dnn.ByName(req.Workload); err != nil {
			return jobSpec{}, err
		}
		js.spec.WorkloadName = req.Workload
		wkey = "name:" + req.Workload
	}

	js.spec.MaxPanel = units.AreaCM2(req.MaxPanelCM2)
	js.spec.MaxLatency = units.Seconds(req.MaxLatencyS)
	js.spec.SimMode = simMode
	js.spec.Search = core.SearchConfig{
		Algorithm: req.Algorithm,
		Budget:    req.Budget,
		Seed:      req.Seed,
		Patience:  req.Patience,
	}

	payload, err := json.Marshal(keyPayload{
		Workload:   wkey,
		Platform:   req.Platform,
		Objective:  obj.String(),
		Baseline:   js.baseline.String(),
		MaxPanel:   req.MaxPanelCM2,
		MaxLatency: req.MaxLatencyS,
		Budget:     req.Budget,
		Seed:       req.Seed,
		Algorithm:  req.Algorithm,
		Patience:   req.Patience,
		Verify:     req.Verify,
		SimMode:    simMode.String(),
	})
	if err != nil {
		return jobSpec{}, err
	}
	sum := sha256.Sum256(payload)
	js.key = hex.EncodeToString(sum[:])
	js.req = req
	return js, nil
}
