package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestAuditSmoke is the end-to-end flight-recorder check behind `make
// audit-smoke`: submit a verify job, wait for it, and assert the
// energy-conservation audit passed and the waveform is served in both
// encodings.
func TestAuditSmoke(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

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
	final := pollJob(t, ts.URL, st.ID)
	if final.State != JobDone {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}

	// The audit verdict rides the job status, and it must be clean.
	if final.Audit == nil {
		t.Fatal("verify job finished without an audit report")
	}
	if !final.Audit.OK() {
		t.Fatalf("audit failed: %+v", final.Audit.Findings)
	}
	if final.Audit.Cycles < 1 || final.Audit.Checks < 5 {
		t.Fatalf("implausible audit: %+v", final.Audit)
	}

	// Waveform as JSON: the full channel set with data in it.
	var wr WaveformResponse
	if code := getJSON(t, ts.URL+"/v1/designs/"+st.ID+"/waveform", &wr); code != http.StatusOK {
		t.Fatalf("waveform json: %d", code)
	}
	if wr.Audit == nil || !wr.Audit.OK() {
		t.Fatalf("waveform response audit: %+v", wr.Audit)
	}
	if wr.Waveform.RawSamples < 1 || len(wr.Waveform.Cycles) < 1 {
		t.Fatalf("empty waveform: %+v", wr.Waveform)
	}
	vcap := wr.Waveform.Channel("v_cap")
	if vcap == nil || len(vcap.Points) == 0 {
		t.Fatal("v_cap channel missing or empty")
	}
	for _, name := range []string{"e_stored", "p_harvest", "p_load", "p_leak", "e_harvest", "cycle"} {
		if wr.Waveform.Channel(name) == nil {
			t.Errorf("channel %s missing", name)
		}
	}

	// Waveform as CSV via the query parameter and via content
	// negotiation.
	for _, u := range []string{
		ts.URL + "/v1/designs/" + st.ID + "/waveform?format=csv",
		ts.URL + "/v1/designs/" + st.ID + "/waveform",
	} {
		hreq, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(u, "format=csv") {
			hreq.Header.Set("Accept", "text/csv")
		}
		cresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(cresp.Body)
		if !sc.Scan() {
			t.Fatalf("%s: empty body", u)
		}
		header := sc.Text()
		rows := 0
		for sc.Scan() {
			rows++
		}
		cresp.Body.Close()
		if cresp.StatusCode != http.StatusOK || !strings.Contains(cresp.Header.Get("Content-Type"), "text/csv") {
			t.Fatalf("%s: status %d type %q", u, cresp.StatusCode, cresp.Header.Get("Content-Type"))
		}
		if !strings.HasPrefix(header, "t_s,") || !strings.Contains(header, "v_cap_min") || rows == 0 {
			t.Fatalf("%s: implausible CSV (header %q, %d rows)", u, header, rows)
		}
	}

	// The SSE history carries the audit verdict.
	counts := readSSE(t, ts.URL+"/v1/designs/"+st.ID+"/events")
	if counts["audit"] != 1 {
		t.Errorf("audit SSE events = %d, want 1: %v", counts["audit"], counts)
	}

	// A cache hit serves the same recording without a second search.
	resp2, body2 := postJSON(t, ts.URL+"/v1/designs", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp2.StatusCode, body2)
	}
	var st2 JobStatus
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.Audit == nil || !st2.Audit.OK() {
		t.Fatalf("cached job lost its audit: %s", body2)
	}
	var wr2 WaveformResponse
	if code := getJSON(t, ts.URL+"/v1/designs/"+st2.ID+"/waveform", &wr2); code != http.StatusOK {
		t.Fatalf("cached waveform: %d", code)
	}
	if wr2.Waveform.RawSamples != wr.Waveform.RawSamples {
		t.Errorf("cached waveform diverged: %d vs %d samples", wr2.Waveform.RawSamples, wr.Waveform.RawSamples)
	}

	// Jobs without verify have no recording, and the 404 says why.
	resp3, body3 := postJSON(t, ts.URL+"/v1/designs", smallJob())
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("plain submit: %d %s", resp3.StatusCode, body3)
	}
	var st3 JobStatus
	if err := json.Unmarshal(body3, &st3); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, st3.ID)
	wresp, err := http.Get(ts.URL + "/v1/designs/" + st3.ID + "/waveform")
	if err != nil {
		t.Fatal(err)
	}
	var werr map[string]string
	if err := json.NewDecoder(wresp.Body).Decode(&werr); err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusNotFound || !strings.Contains(werr["error"], "verify") {
		t.Fatalf("waveform for non-verify job: %d %v", wresp.StatusCode, werr)
	}

	// Build identity is on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	msc := bufio.NewScanner(mresp.Body)
	found := false
	for msc.Scan() {
		line := msc.Text()
		if strings.HasPrefix(line, "chrysalis_build_info{") &&
			strings.Contains(line, "go_version=") && strings.HasSuffix(line, " 1") {
			found = true
		}
	}
	mresp.Body.Close()
	if !found {
		t.Error("chrysalis_build_info metric missing from /metrics")
	}
}
