package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// stitchedTrace mirrors the Chrome trace-event envelope including the
// stitched-export metadata block.
type stitchedTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	Metadata map[string]any `json:"metadata"`
}

// delegatedSeed finds a seed whose design key node i does NOT own, so a
// submission there delegates to a peer. Returns the seed and the owner.
func delegatedSeed(t *testing.T, tc *testCluster, i int) (int64, string) {
	t.Helper()
	for seed := int64(100); seed < 200; seed++ {
		req := smallJob()
		req.Seed = seed
		js, err := normalize(req)
		if err != nil {
			t.Fatal(err)
		}
		if owner, remote := tc.srvs[i].mgr.cluster.RemoteOwner(js.key); remote {
			return seed, owner
		}
	}
	t.Fatal("no remote-owned seed in 100 tries")
	return 0, ""
}

// postTraced submits a design request with an explicit traceparent
// header, as an instrumented client would.
func postTraced(t *testing.T, url, traceparent string, req DesignRequest) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", traceparent)
	resp, err := http.DefaultClient.Do(hreq)
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

// TestClusterStitchedTrace is the distributed-tracing contract test: a
// design submitted to node A with a client traceparent and evaluated on
// node B (the ring owner) exports ONE trace — the client's trace ID in
// the metadata, node A's admission/queue-wait/peer-hop spans as one
// process and node B's search spans as a second process, stitched into
// a single Perfetto-loadable document.
func TestClusterStitchedTrace(t *testing.T) {
	tc := newTestCluster(t, 3)
	seed, owner := delegatedSeed(t, tc, 0)

	const clientTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + clientTrace + "-00f067aa0ba902b7-01"
	req := smallJob()
	req.Seed = seed
	resp, body := postTraced(t, tc.urls[0]+"/v1/designs", tp, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	// The middleware echoes the (possibly joined) trace identity.
	if got := resp.Header.Get("traceparent"); got != tp {
		t.Errorf("response traceparent = %q, want the client's %q", got, tp)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, tc.urls[0], st.ID); final.State != JobDone {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}

	var tr stitchedTrace
	if code := getJSON(t, tc.urls[0]+"/v1/designs/"+st.ID+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("GET trace: %d", code)
	}
	if got, _ := tr.Metadata["trace_id"].(string); got != clientTrace {
		t.Errorf("stitched trace_id = %q, want the client's %q", got, clientTrace)
	}

	// Two processes: node 0 (the submitting node) and the owner.
	procs := map[int]string{}
	pidEvents := map[int]int{}
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.PID], _ = ev.Args["name"].(string)
			continue
		}
		if ev.Ph != "M" {
			pidEvents[ev.PID]++
			names[fmt.Sprintf("%d/%s", ev.PID, ev.Name)] = true
		}
	}
	if len(procs) != 2 || procs[1] != tc.urls[0] || procs[2] != owner {
		t.Fatalf("process rows = %v, want {1:%s, 2:%s}", procs, tc.urls[0], owner)
	}
	if pidEvents[1] == 0 || pidEvents[2] == 0 {
		t.Fatalf("events per process = %v, want spans from both nodes", pidEvents)
	}
	for _, want := range []string{"1/admission", "1/queue-wait", "1/peer-hop", "2/queue-wait", "2/search"} {
		if !names[want] {
			t.Errorf("stitched trace missing span %s", want)
		}
	}
	// The owner actually ran the GA: its process carries generation spans.
	gens := false
	for n := range names {
		if strings.HasPrefix(n, "2/generation ") {
			gens = true
		}
	}
	if !gens {
		t.Error("owner process has no search generation spans")
	}

	// The timeline endpoint merges both nodes' phases.
	var tl Timeline
	if code := getJSON(t, tc.urls[0]+"/v1/designs/"+st.ID+"/timeline", &tl); code != http.StatusOK {
		t.Fatalf("GET timeline: %d", code)
	}
	if tl.TraceID != clientTrace {
		t.Errorf("timeline trace_id = %q, want %q", tl.TraceID, clientTrace)
	}
	nodes := map[string]bool{}
	for _, p := range tl.Phases {
		nodes[p.Node] = true
	}
	if !nodes[tc.urls[0]] || !nodes[owner] {
		t.Errorf("timeline nodes = %v, want phases from both %s and %s", nodes, tc.urls[0], owner)
	}
}

// TestClusterBreakerOpenInstant kills a node and submits designs it
// owns: once its breaker opens, the degraded jobs carry a
// "breaker-open" instant on their trace naming the unreachable peer.
func TestClusterBreakerOpenInstant(t *testing.T) {
	tc := newTestCluster(t, 3)
	// Collect seeds owned (from node 0's view) by node 2, then kill it.
	var seeds []int64
	for seed := int64(300); seed < 500 && len(seeds) < 6; seed++ {
		req := smallJob()
		req.Seed = seed
		js, err := normalize(req)
		if err != nil {
			t.Fatal(err)
		}
		if owner, remote := tc.srvs[0].mgr.cluster.RemoteOwner(js.key); remote && owner == tc.urls[2] {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < 2 {
		t.Skipf("ring gave node 2 only %d of the probed seeds", len(seeds))
	}
	tc.stop(t, 2)

	// The first submission's failed probe opens the breaker (with
	// growing backoff on every retry); a later one finds it open and
	// records the instant. Bounded by the seeds we found.
	for _, seed := range seeds {
		req := smallJob()
		req.Seed = seed
		resp, body := postJSON(t, tc.urls[0]+"/v1/designs", req)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d %s", seed, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if final := pollJob(t, tc.urls[0], st.ID); final.State != JobDone {
			t.Fatalf("seed %d: state %s (%s)", seed, final.State, final.Error)
		}
		var tr stitchedTrace
		if code := getJSON(t, tc.urls[0]+"/v1/designs/"+st.ID+"/trace", &tr); code != http.StatusOK {
			t.Fatalf("GET trace: %d", code)
		}
		for _, ev := range tr.TraceEvents {
			if ev.Name == "breaker-open" {
				if peer, _ := ev.Args["peer"].(string); peer != tc.urls[2] {
					t.Errorf("breaker-open peer = %q, want %q", peer, tc.urls[2])
				}
				return // contract witnessed
			}
		}
	}
	t.Error("no job recorded a breaker-open instant with a dead owner")
}

// TestTimelineEndpoint pins the end-to-end phase sequence of a durable
// verify job: admission → queue-wait → search → sim → wal-journal, all
// on the local node, with monotone starts and non-negative durations —
// the golden shape of a single-node job's life.
func TestTimelineEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, WALDir: t.TempDir()})
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

	want := []string{"admission", "queue-wait", "search", "sim", "wal-journal"}
	// The wal-journal phase lands moments after the job turns terminal;
	// poll briefly rather than racing it.
	var tl Timeline
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/designs/"+st.ID+"/timeline", &tl); code != http.StatusOK {
			t.Fatalf("GET timeline: %d", code)
		}
		if len(tl.Phases) >= len(want) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if tl.ID != st.ID || tl.State != JobDone {
		t.Errorf("timeline header = %s/%s, want %s/done", tl.ID, tl.State, st.ID)
	}
	if tl.TraceID == "" {
		t.Error("timeline carries no trace ID")
	}
	var got []string
	lastStart := int64(0)
	for _, p := range tl.Phases {
		got = append(got, p.Name)
		if p.Node != "local" {
			t.Errorf("phase %s node = %q, want local", p.Name, p.Node)
		}
		if p.DurUS < 0 {
			t.Errorf("phase %s duration %d < 0", p.Name, p.DurUS)
		}
		if p.StartUnixUS < lastStart {
			t.Errorf("phase %s starts before its predecessor", p.Name)
		}
		lastStart = p.StartUnixUS
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("phase sequence = %v, want %v", got, want)
	}
}

// TestFleetEndpoint asserts GET /v1/fleet on any node aggregates every
// peer's snapshot, and that a dead peer is reported unreachable rather
// than silently dropped.
func TestFleetEndpoint(t *testing.T) {
	tc := newTestCluster(t, 3)

	var fl fleetResponse
	if code := getJSON(t, tc.urls[0]+"/v1/fleet", &fl); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet: %d", code)
	}
	if len(fl.Nodes) != 3 || len(fl.Unreachable) != 0 {
		t.Fatalf("fleet = %d nodes, %d unreachable, want 3/0", len(fl.Nodes), len(fl.Unreachable))
	}
	seen := map[string]bool{}
	for _, ns := range fl.Nodes {
		seen[ns.Node] = true
	}
	for _, u := range tc.urls {
		if !seen[u] {
			t.Errorf("fleet missing node %s", u)
		}
	}

	// A dead peer shows up as unreachable, and the survivors still report.
	tc.stop(t, 2)
	if code := getJSON(t, tc.urls[0]+"/v1/fleet", &fl); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet after stop: %d", code)
	}
	if len(fl.Nodes) != 2 {
		t.Errorf("fleet after stop = %d nodes, want 2", len(fl.Nodes))
	}
	if len(fl.Unreachable) != 1 || fl.Unreachable[0] != tc.urls[2] {
		t.Errorf("unreachable = %v, want [%s]", fl.Unreachable, tc.urls[2])
	}
}

// TestWALMetricsExported asserts the journal's durability counters ride
// /metrics: a terminal job forces at least one fsync into the histogram
// and one record into the append counters.
func TestWALMetricsExported(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, WALDir: t.TempDir()})
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
	if v := metricValue(t, ts.URL, "chrysalisd_wal_appends_total"); v < 2 {
		t.Errorf("wal appends = %g, want >= 2 (submit + terminal)", v)
	}
	if v := metricValue(t, ts.URL, "chrysalisd_wal_appended_bytes_total"); v <= 0 {
		t.Errorf("wal appended bytes = %g, want > 0", v)
	}
	if v := metricValue(t, ts.URL, "chrysalisd_wal_fsync_seconds_count"); v < 1 {
		t.Errorf("wal fsync count = %g, want >= 1", v)
	}
	if v := metricValue(t, ts.URL, "chrysalisd_wal_recovery_truncated_bytes"); v != 0 {
		t.Errorf("recovery truncated bytes = %g, want 0 on a fresh dir", v)
	}
	if v := metricValue(t, ts.URL, "obs_trace_dropped_total"); v < 0 {
		t.Errorf("obs_trace_dropped_total = %g", v)
	}
}
