package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSSEConcurrentSubscribers drives one publisher against several
// draining subscribers plus one that never reads. The publisher must
// finish promptly (the stalled subscriber loses events instead of
// blocking anyone) and every draining subscriber must observe the
// published sequence complete and in order.
func TestSSEConcurrentSubscribers(t *testing.T) {
	s := newStream()
	const events = 200
	const readers = 8

	var wg sync.WaitGroup
	results := make([][]string, readers)
	for i := 0; i < readers; i++ {
		ch, cancel := s.subscribe()
		defer cancel()
		wg.Add(1)
		go func(i int, ch <-chan sseEvent) {
			defer wg.Done()
			for ev := range ch {
				results[i] = append(results[i], ev.name)
			}
		}(i, ch)
	}
	// The stalled subscriber holds its channel without ever draining it.
	stalled, cancelStalled := s.subscribe()
	defer cancelStalled()

	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < events; i++ {
			s.publish(fmt.Sprintf("e%03d", i), i)
		}
		s.close()
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked by a stalled subscriber")
	}
	wg.Wait()

	for i, names := range results {
		if len(names) != events {
			t.Fatalf("subscriber %d received %d/%d events", i, len(names), events)
		}
		for j, name := range names {
			if want := fmt.Sprintf("e%03d", j); name != want {
				t.Fatalf("subscriber %d event %d = %s, want %s (ordering broken)", i, j, name, want)
			}
		}
	}
	// The stalled channel kept at most its buffer; the rest were dropped
	// rather than queued unboundedly.
	if n := len(stalled); n > events {
		t.Fatalf("stalled subscriber buffered %d events", n)
	}
}

// TestSSEStalledClientDoesNotBlockJob opens a raw TCP connection to the
// events endpoint of a running verify job and never reads from it; the
// job must still reach a terminal state.
func TestSSEStalledClientDoesNotBlockJob(t *testing.T) {
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

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/designs/%s/events HTTP/1.1\r\nHost: test\r\nAccept: text/event-stream\r\n\r\n", st.ID)
	// Deliberately never read from conn.

	final := pollJob(t, ts.URL, st.ID)
	if final.State != JobDone {
		t.Fatalf("job state %s (%s) with a stalled SSE client", final.State, final.Error)
	}
}

// traceResponse mirrors the Chrome trace-event envelope for assertions.
type traceResponse struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceEndpoint completes a verify job and asserts its trace export
// is Perfetto-loadable JSON containing the search's per-generation
// spans and the simulator's power-cycle, tile and checkpoint slices.
func TestTraceEndpoint(t *testing.T) {
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
	if final := pollJob(t, ts.URL, st.ID); final.State != JobDone {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}

	path := "/v1/designs/" + st.ID + "/trace"
	hresp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, hresp.StatusCode)
	}
	if ct := hresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s content type %q", path, ct)
	}
	var tr traceResponse
	if err := json.NewDecoder(hresp.Body).Decode(&tr); err != nil {
		t.Fatalf("GET %s: invalid trace JSON: %v", path, err)
	}
	hresp.Body.Close()
	if len(tr.TraceEvents) == 0 {
		t.Fatalf("GET %s: empty trace", path)
	}

	var genSpans, powered, tiles, ckpt int
	lastTS := -1.0
	for i, ev := range tr.TraceEvents {
		if ev.Ph != "M" {
			if ev.TS < lastTS {
				t.Fatalf("event %d (%s) out of order", i, ev.Name)
			}
			lastTS = ev.TS
		}
		switch {
		case strings.HasPrefix(ev.Name, "generation "):
			genSpans++
		case ev.Name == "powered":
			powered++
		case strings.HasPrefix(ev.Name, "L") && strings.Contains(ev.Name, " tile "):
			tiles++
		case ev.Name == "checkpoint" || ev.Name == "resume" || ev.Name == "retry":
			ckpt++
		}
	}
	if genSpans == 0 {
		t.Errorf("GET %s: no search generation spans", path)
	}
	if powered == 0 {
		t.Errorf("GET %s: no sim power-cycle slices", path)
	}
	if tiles == 0 {
		t.Errorf("GET %s: no sim tile slices", path)
	}
	if ckpt == 0 {
		t.Errorf("GET %s: no sim checkpoint activity", path)
	}

	// Unknown jobs are a 404 on the trace route too.
	r, err := http.Get(ts.URL + "/v1/designs/j-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("trace for unknown job: %d", r.StatusCode)
	}
}

// TestMetricsHistogramAndRequests asserts /metrics exposes the
// histogram form of the job latency (cumulative le buckets, _sum,
// _count) and the HTTP request families added by the middleware.
func TestMetricsHistogramAndRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/designs", smallJob())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, ts.URL, st.ID); final.State != JobDone {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	page := readAll(t, mresp)

	for _, want := range []string{
		"# TYPE chrysalisd_job_latency_seconds histogram",
		`chrysalisd_job_latency_seconds_bucket{le="+Inf"} 1`,
		"chrysalisd_job_latency_seconds_sum",
		"chrysalisd_job_latency_seconds_count 1",
		"# TYPE chrysalisd_http_requests_total counter",
		`chrysalisd_http_requests_total{method="GET",code="200"}`,
		"# TYPE chrysalisd_http_request_seconds histogram",
		"chrysalisd_evaluator_cache_hits_total",
		"chrysalisd_cache_entries",
		"chrysalisd_job_records",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// TestMetricsInventory pins the family names /metrics exports on a
// fully configured node (WAL, two-node cluster, warm tier, quotas).
// Every family here has a reader: a test that checks its meaning, a
// perfbench metric or a runbook step. A new series needs a deliberate
// edit to this list.
func TestMetricsInventory(t *testing.T) {
	dir := t.TempDir()
	tc := newTestClusterWith(t, 2, func(i int) Options {
		return Options{Workers: 1, WALDir: fmt.Sprintf("%s/node%d", dir, i),
			WarmCacheMB: 8, QuotaRPS: 100}
	})
	resp, err := http.Get(tc.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			got = append(got, f[2])
		}
	}
	sort.Strings(got)
	want := []string{
		"chrysalis_build_info",
		"chrysalis_search_early_stops_total",
		"chrysalis_search_generations_total",
		"chrysalisd_admission_shed_total",
		"chrysalisd_cache_entries",
		"chrysalisd_cache_hits_total",
		"chrysalisd_cache_misses_total",
		"chrysalisd_cluster_breaker_open",
		"chrysalisd_cluster_breaker_transitions_total",
		"chrysalisd_cluster_fallbacks_total",
		"chrysalisd_cluster_hop_seconds",
		"chrysalisd_cluster_peer_errors_total",
		"chrysalisd_cluster_peers_up",
		"chrysalisd_evaluations_total",
		"chrysalisd_evaluator_cache_hits_total",
		"chrysalisd_evaluator_cache_misses_total",
		"chrysalisd_http_request_seconds",
		"chrysalisd_http_requests_total",
		"chrysalisd_job_latency_seconds",
		"chrysalisd_job_records",
		"chrysalisd_jobs_cancelled_total",
		"chrysalisd_jobs_done_total",
		"chrysalisd_jobs_failed_total",
		"chrysalisd_jobs_queued_total",
		"chrysalisd_jobs_recovered_total",
		"chrysalisd_jobs_running",
		"chrysalisd_queue_depth",
		"chrysalisd_quota_tokens_remaining",
		"chrysalisd_search_worker_slots",
		"chrysalisd_search_worker_slots_in_use",
		"chrysalisd_sim_fallback_runs_total",
		"chrysalisd_sim_fast_steps_total",
		"chrysalisd_sim_literal_steps_total",
		"chrysalisd_wal_appended_bytes_total",
		"chrysalisd_wal_appends_total",
		"chrysalisd_wal_fsync_seconds",
		"chrysalisd_wal_recovery_snapshot_corrupt",
		"chrysalisd_wal_recovery_truncated_bytes",
		"chrysalisd_warm_cache_entries",
		"chrysalisd_warm_cache_hits_total",
		"obs_trace_dropped_total",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics families changed:\ngot  %q\nwant %q", got, want)
	}
}
