package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"chrysalis/internal/core"
)

// submitAndWait posts one design request and polls it to completion.
func submitAndWait(t *testing.T, base string, req DesignRequest) JobStatus {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/designs", req)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State.terminal() {
		return st
	}
	final := pollJob(t, base, st.ID)
	if final.State != JobDone || final.Result == nil {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}
	return final
}

// normalizeResult strips the informational fields that legitimately
// differ between warm and cold servers so the designs can be compared
// bit for bit.
func normalizeResult(r core.Result) core.Result {
	r.Workers = 0
	r.CacheHits, r.CacheMisses, r.WarmHits = 0, 0, 0
	return r
}

// TestWarmSmoke is the end-to-end warm-start check behind `make
// warm-smoke`: on a warm-enabled daemon, a cold job fills the tier and
// a second near-duplicate job reports warm hits; the warm job's design
// is bit-identical to the same request served by a daemon with no warm
// tier at all.
func TestWarmSmoke(t *testing.T) {
	_, warmTS := newTestServer(t, Options{Workers: 1, WarmCacheMB: 64, Logger: testLogger(t)})
	_, coldTS := newTestServer(t, Options{Workers: 1, Logger: testLogger(t)})

	// Job 1 fills the tier: nothing resident yet, so no warm hits.
	first := submitAndWait(t, warmTS.URL, smallJob())
	if first.Result.WarmHits != 0 {
		t.Fatalf("first job on an empty tier reports WarmHits=%d, want 0", first.Result.WarmHits)
	}

	// Job 2 is a near-duplicate (different seed, so a distinct job key
	// that really re-runs the search) and must reuse the ladders job 1
	// built.
	warmReq := smallJob()
	warmReq.Seed = 8
	warmJob := submitAndWait(t, warmTS.URL, warmReq)
	if warmJob.Result.WarmHits == 0 {
		t.Errorf("warm job reports WarmHits=0; tier never engaged (result %+v)", warmJob.Result)
	}

	// Determinism: the identical request on a tier-less daemon returns
	// the identical design.
	coldJob := submitAndWait(t, coldTS.URL, warmReq)
	if coldJob.Result.WarmHits != 0 {
		t.Errorf("cold server reports WarmHits=%d, want 0", coldJob.Result.WarmHits)
	}
	if !reflect.DeepEqual(normalizeResult(*warmJob.Result), normalizeResult(*coldJob.Result)) {
		t.Errorf("warm design differs from cold design\nwarm: %+v\ncold: %+v", warmJob.Result, coldJob.Result)
	}

	// The tier's counters are on /metrics …
	if hits := metricValue(t, warmTS.URL, "chrysalisd_warm_cache_hits_total"); hits == 0 {
		t.Error("chrysalisd_warm_cache_hits_total = 0 after a warm job")
	}
	if entries := metricValue(t, warmTS.URL, "chrysalisd_warm_cache_entries"); entries == 0 {
		t.Error("chrysalisd_warm_cache_entries = 0 after two jobs")
	}

	// … and on the fleet snapshot.
	var fleet fleetResponse
	if code := getJSON(t, warmTS.URL+"/v1/fleet", &fleet); code != http.StatusOK {
		t.Fatalf("fleet: %d", code)
	}
	if len(fleet.Nodes) != 1 || !fleet.Nodes[0].WarmEnabled {
		t.Fatalf("fleet warm row missing: %+v", fleet.Nodes)
	}
	if ns := fleet.Nodes[0]; ns.WarmHits == 0 || ns.WarmEntries == 0 {
		t.Errorf("fleet warm stats empty: %+v", ns)
	}

	// A tier-less /metrics must not export warm families at all.
	if body := fetchBody(t, coldTS.URL+"/metrics"); strings.Contains(body, "chrysalisd_warm_cache") {
		t.Error("tier-less daemon exports warm-cache metrics")
	}
}

// fetchBody GETs a URL and returns its body as a string.
func fetchBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
