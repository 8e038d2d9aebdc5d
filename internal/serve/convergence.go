package serve

import (
	"fmt"
	"net/http"

	"chrysalis/internal/core"
	"chrysalis/internal/search"
)

// Convergence is the wire form of GET /v1/designs/{id}/convergence: one
// search's per-generation quality series. For finished (and cached, and
// WAL-recovered) jobs it is cut from Result.Quality, which rides the
// result cache and the journal; for running jobs it is the live series
// streamed by the search so far, so a client can poll the endpoint
// mid-flight and watch the curve grow.
type Convergence struct {
	ID           string   `json:"id"`
	State        JobState `json:"state"`
	Algorithm    string   `json:"algorithm"`
	StoppedEarly bool     `json:"stopped_early"`
	Generations  int      `json:"generations"`
	// History is the classic scalar convergence series, one point per
	// generation: the best objective so far for GA runs, the dominated
	// hypervolume of the current front for Pareto runs.
	History []float64 `json:"history"`
	// Series carries the full quality records (best/mean/median, spread,
	// diversity, stagnation and — for Pareto runs — hypervolume, front
	// size and spacing), parallel to History.
	Series search.QualityHistory `json:"series"`
}

// convergence assembles the response from whichever source the job's
// state makes authoritative.
func (j *job) convergence() Convergence {
	j.mu.Lock()
	c := Convergence{
		ID:        j.id,
		State:     j.state,
		Algorithm: j.js.req.Algorithm,
	}
	var res *core.Result
	if j.result != nil {
		r := *j.result
		res = &r
	}
	live := append(search.QualityHistory(nil), j.quality...)
	j.mu.Unlock()

	if res != nil {
		c.StoppedEarly = res.StoppedEarly
		c.History = res.History
		c.Series = res.Quality
	} else {
		c.Series = live
		for _, q := range live {
			if c.Algorithm == "nsga" {
				c.History = append(c.History, q.Hypervolume)
			} else {
				c.History = append(c.History, q.Best)
			}
		}
	}
	c.Generations = len(c.Series)
	return c
}

// handleConvergence serves one job's convergence telemetry.
func (s *Server) handleConvergence(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.convergence())
}
