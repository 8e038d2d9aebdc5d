package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testWriter routes slog output into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testLogger builds a debug-level structured logger bound to t.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t: t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// newTestServer builds a Server plus an httptest front end; both are
// torn down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// smallJob is a fast design request for tests.
func smallJob() DesignRequest {
	return DesignRequest{Workload: "har", Budget: 60, Seed: 7}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollJob fetches the job until it reaches a terminal state.
func pollJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, base+"/v1/designs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job: status %d", code)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parse metric %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func TestHealthWorkloadsPresets(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz payload: %v", health)
	}

	var workloads []WorkloadInfo
	if code := getJSON(t, ts.URL+"/v1/workloads", &workloads); code != http.StatusOK {
		t.Fatalf("workloads: %d", code)
	}
	if len(workloads) == 0 {
		t.Fatal("no workloads listed")
	}
	seen := false
	for _, w := range workloads {
		if w.Name == "har" && w.Layers > 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("har missing from %v", workloads)
	}

	var presets []PresetInfo
	if code := getJSON(t, ts.URL+"/v1/presets", &presets); code != http.StatusOK {
		t.Fatalf("presets: %d", code)
	}
	if len(presets) == 0 {
		t.Fatal("no presets listed")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []DesignRequest{
		{Workload: "no-such-net"},
		{Platform: "riscv"},
		{Objective: "speed"},
		{Baseline: "wo/Everything"},
		{Budget: -5},
		{MaxPanelCM2: -1},
		{MaxLatencyS: -1},
		{Algorithm: "annealing"},
		{WorkloadJSON: json.RawMessage(`{"name":"x","input":[0,0,0],"layers":[]}`)},
	}
	for i, req := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/designs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/designs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
}

func TestDesignJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/designs", smallJob())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Key == "" {
		t.Fatalf("submit response missing id/key: %s", body)
	}

	final := pollJob(t, ts.URL, st.ID)
	if final.State != JobDone {
		t.Fatalf("job state %s (error %q)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.PanelArea <= 0 || final.Result.AvgLatency <= 0 {
		t.Fatalf("implausible result: %+v", final.Result)
	}
	if final.Progress == nil || final.Progress.Gen < 1 || final.Progress.Evals < 1 {
		t.Fatalf("missing progress telemetry: %+v", final.Progress)
	}

	// Identical resubmission must be served from the cache: same key, no
	// second search, HTTP 200 (not 202), cached flag set.
	resp2, body2 := postJSON(t, ts.URL+"/v1/designs", smallJob())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d body %s", resp2.StatusCode, body2)
	}
	var st2 JobStatus
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != JobDone || st2.Key != st.Key {
		t.Fatalf("resubmit not a cache hit: %s", body2)
	}
	if st2.Result == nil || st2.Result.AvgLatency != final.Result.AvgLatency {
		t.Fatal("cached result differs from original")
	}

	if hits := metricValue(t, ts.URL, "chrysalisd_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %g, want 1", hits)
	}
	if misses := metricValue(t, ts.URL, "chrysalisd_cache_misses_total"); misses != 1 {
		t.Errorf("cache misses = %g, want 1", misses)
	}
	if done := metricValue(t, ts.URL, "chrysalisd_jobs_done_total"); done != 1 {
		t.Errorf("jobs done = %g, want 1", done)
	}
	if queued := metricValue(t, ts.URL, "chrysalisd_jobs_queued_total"); queued != 1 {
		t.Errorf("jobs queued = %g, want 1", queued)
	}
	if n := metricValue(t, ts.URL, "chrysalisd_job_latency_seconds_count"); n != 1 {
		t.Errorf("latency count = %g, want 1", n)
	}
}

// TestEvaluatorCacheMetrics checks that the evaluation engine's
// ladder-set counters surface on /metrics: each finished search adds
// its Result's hits and misses to the node counters before the job is
// reported done, so the deltas around one search equal its Result.
func TestEvaluatorCacheMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	hits0 := metricValue(t, ts.URL, "chrysalisd_evaluator_cache_hits_total")
	misses0 := metricValue(t, ts.URL, "chrysalisd_evaluator_cache_misses_total")

	resp, body := postJSON(t, ts.URL+"/v1/designs", smallJob())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, ts.URL, st.ID)
	if final.State != JobDone {
		t.Fatalf("job state %s (error %q)", final.State, final.Error)
	}

	misses := metricValue(t, ts.URL, "chrysalisd_evaluator_cache_misses_total")
	if misses <= misses0 || misses-misses0 != float64(final.Result.CacheMisses) {
		t.Errorf("evaluator cache misses %g -> %g, want a rise of the job's %d", misses0, misses, final.Result.CacheMisses)
	}
	// On the MSP platform the hardware fingerprint is constant across
	// the outer search, so every evaluation after the first ladder
	// build is a hit.
	hits := metricValue(t, ts.URL, "chrysalisd_evaluator_cache_hits_total")
	if hits <= hits0 || hits-hits0 != float64(final.Result.CacheHits) {
		t.Errorf("evaluator cache hits %g -> %g, want a rise of the job's %d", hits0, hits, final.Result.CacheHits)
	}
}

// readSSE collects event names (and counts per name) from an SSE body.
func readSSE(t *testing.T, url string) map[string]int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			counts[name]++
		}
	}
	return counts
}

func TestSSEProgressAndSimEvents(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := smallJob()
	req.Verify = true

	resp, body := postJSON(t, ts.URL+"/v1/designs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Stream while the job runs; the server closes the stream at the
	// terminal event, ending the read loop.
	counts := readSSE(t, ts.URL+"/v1/designs/"+st.ID+"/events")
	if counts["progress"] < 1 {
		t.Errorf("no progress events: %v", counts)
	}
	if counts["sim"] < 1 {
		t.Errorf("no sim events for a verify job: %v", counts)
	}
	if counts["done"] != 1 {
		t.Errorf("done events = %d, want 1: %v", counts["done"], counts)
	}

	final := pollJob(t, ts.URL, st.ID)
	if final.State != JobDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if final.Verify == nil || !final.Verify.Completed {
		t.Fatalf("verify summary missing: %+v", final.Verify)
	}

	// A late subscriber replays the full history.
	replay := readSSE(t, ts.URL+"/v1/designs/"+st.ID+"/events")
	if replay["progress"] < 1 || replay["done"] != 1 {
		t.Errorf("late replay incomplete: %v", replay)
	}

	// Unknown job IDs are a 404.
	r2, err := http.Get(ts.URL + "/v1/designs/j-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: %d", r2.StatusCode)
	}
}

func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, JobTimeout: time.Millisecond})
	// A heavyweight search (accelerator platform, deep workload, large
	// budget) that cannot finish inside the 1 ms deadline even with the
	// memoized evaluation engine.
	req := DesignRequest{Workload: "resnet18", Platform: "accel", Budget: 100000, Seed: 3}
	resp, body := postJSON(t, ts.URL+"/v1/designs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, ts.URL, st.ID)
	if final.State != JobFailed || !strings.Contains(final.Error, "timeout") {
		t.Fatalf("state %s error %q, want failed timeout", final.State, final.Error)
	}
	if v := metricValue(t, ts.URL, "chrysalisd_jobs_failed_total"); v != 1 {
		t.Errorf("jobs failed = %g, want 1", v)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	req := DesignRequest{Workload: "resnet18", Platform: "accel", Budget: 100000, Seed: 5}
	resp, body := postJSON(t, ts.URL+"/v1/designs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/designs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	final := pollJob(t, ts.URL, st.ID)
	if final.State != JobCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	// finish counts the cancellation before it closes done.
	j, _ := s.mgr.get(st.ID)
	<-j.done
	if v := metricValue(t, ts.URL, "chrysalisd_jobs_cancelled_total"); v != 1 {
		t.Errorf("jobs cancelled = %g, want 1", v)
	}
	// A cancelled key is not cached; resubmitting starts a fresh search.
	if v := metricValue(t, ts.URL, "chrysalisd_cache_entries"); v != 0 {
		t.Errorf("cache entries = %g, want 0", v)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workload: "har", PanelAreaCM2: 8, CapF: 100e-6,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	var sum SimSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Completed || sum.E2ELatencyS <= 0 || sum.TilesDone <= 0 {
		t.Fatalf("implausible simulation: %+v", sum)
	}

	// Accelerator platform needs a full hardware description.
	resp2, _ := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workload: "resnet18", Platform: "accel", PanelAreaCM2: 20, CapF: 1e-3,
	})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("accel without hw: %d", resp2.StatusCode)
	}
	resp3, body3 := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workload: "resnet18", Platform: "accel", PanelAreaCM2: 20, CapF: 1e-3,
		InferHW: "tpu", NPE: 64, CacheBytes: 512,
	})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("accel simulate: %d %s", resp3.StatusCode, body3)
	}

	// Bad input values.
	resp4, _ := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "har"})
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero hardware: %d", resp4.StatusCode)
	}
}

func TestShutdownRejectsNewJobs(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/designs", smallJob())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: %d %s", resp.StatusCode, body)
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	// Defaults applied explicitly or implicitly must hash identically.
	a, err := normalize(DesignRequest{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize(DesignRequest{
		Workload: "har", Platform: "msp430", Objective: "lat*sp",
		Baseline: "chrysalis", Budget: 400, Seed: 1, Algorithm: "ga",
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.key != b.key {
		t.Error("default and explicit requests hash differently")
	}

	// Objective spelling variants normalize together.
	c, err := normalize(DesignRequest{Objective: "latsp"})
	if err != nil {
		t.Fatal(err)
	}
	if c.key != a.key {
		t.Error("latsp and lat*sp hash differently")
	}

	// Any identity field flips the key.
	for name, req := range map[string]DesignRequest{
		"seed":     {Seed: 2},
		"budget":   {Budget: 500},
		"workload": {Workload: "kws"},
		"verify":   {Verify: true},
		"baseline": {Baseline: "wo/EA"},
	} {
		d, err := normalize(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.key == a.key {
			t.Errorf("%s variant did not change the key", name)
		}
	}

	// Inline workloads hash by canonical serialization: whitespace and
	// field order do not matter.
	w1 := `{"name":"n","input":[1,1,16],"layers":[{"type":"dense","out":4}]}`
	w2 := "{\n  \"layers\": [ {\"out\": 4, \"type\": \"dense\"} ],\n  \"input\": [1, 1, 16],\n  \"name\": \"n\"\n}"
	j1, err := normalize(DesignRequest{WorkloadJSON: json.RawMessage(w1)})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := normalize(DesignRequest{WorkloadJSON: json.RawMessage(w2)})
	if err != nil {
		t.Fatal(err)
	}
	if j1.key != j2.key {
		t.Error("equivalent inline workloads hash differently")
	}
	if j1.key == a.key {
		t.Error("inline workload collides with catalog workload")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(2)
	e := func(lat float64) cacheEntry {
		var ce cacheEntry
		ce.result.LatSP = lat
		return ce
	}
	c.add("a", e(1))
	c.add("b", e(2))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.add("c", e(3)) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	// Refreshing an existing key must not grow the cache.
	c.add("c", e(4))
	if c.len() != 2 {
		t.Fatalf("len after refresh = %d", c.len())
	}
	got, _ := c.get("c")
	if got.result.LatSP != 4 {
		t.Fatalf("refresh lost: %+v", got.result.LatSP)
	}
}

func TestStreamReplayAndDrop(t *testing.T) {
	s := newStream()
	s.publish("a", 1)
	ch, cancelSub := s.subscribe()
	defer cancelSub()
	s.publish("b", 2)
	s.close()
	var names []string
	for ev := range ch {
		names = append(names, ev.name)
	}
	if strings.Join(names, ",") != "a,b" {
		t.Fatalf("events = %v", names)
	}
	// Publishing after close must not panic or deliver.
	s.publish("c", 3)
	ch2, cancel2 := s.subscribe()
	defer cancel2()
	n := 0
	for range ch2 {
		n++
	}
	if n != 2 {
		t.Fatalf("late replay = %d events, want 2", n)
	}
}
