package serve

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sseData collects the data payloads of every event named name from an
// SSE body (the server closes the stream after the terminal event).
func sseData(t *testing.T, url, name string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []string
	current := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			current = ev
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && current == name {
			out = append(out, data)
		}
	}
	return out
}

// TestInfeasibleJobIsReadable pins a job whose GA generations have no
// feasible member: a 0.01 cm² panel cannot power VGG16. Its best
// objective stays +Inf throughout, which JSON cannot carry, yet its
// status must decode at every poll until it reaches failed, and its
// progress events must carry the telemetry rather than an encoding
// error.
func TestInfeasibleJobIsReadable(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := DesignRequest{Workload: "vgg16", Objective: "lat", MaxPanelCM2: 0.01, Budget: 60, Seed: 3}
	resp, body := postJSON(t, ts.URL+"/v1/designs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, ts.URL, st.ID); final.State != JobFailed {
		t.Fatalf("state %s (%s), want failed", final.State, final.Error)
	} else if final.Progress == nil || final.Progress.Gen < 1 || final.Progress.Best != 0 {
		t.Fatalf("final progress %+v, want generations with best 0 (none feasible)", final.Progress)
	}

	progress := sseData(t, ts.URL+"/v1/designs/"+st.ID+"/events", "progress")
	if len(progress) == 0 {
		t.Fatal("no progress events")
	}
	for i, data := range progress {
		var ev map[string]any
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("progress event %d: %v in %s", i, err, data)
		}
		if _, bad := ev["error"]; bad {
			t.Fatalf("progress event %d carries an error: %s", i, data)
		}
		if ev["gen"] != float64(i+1) {
			t.Fatalf("progress event %d is generation %v", i, ev["gen"])
		}
	}
}

// TestWriteJSONUnencodable checks that a value encoding/json rejects
// answers 500 with an error body, not the intended status with an
// empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"best": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], "unsupported value") {
		t.Fatalf("body %q (%v), want an encoding error", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, map[string]int{"gen": 1})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\n  \"gen\": 1\n}\n" {
		t.Fatalf("status %d body %q", rec.Code, rec.Body.String())
	}
}
