package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// decodeRequest runs body through the submit handler's strict decoder
// and normalize, as a POST /v1/designs does.
func decodeRequest(body []byte) (DesignRequest, jobSpec, error) {
	var req DesignRequest
	r := httptest.NewRequest("POST", "/v1/designs", bytes.NewReader(body))
	if err := decodeBody(httptest.NewRecorder(), r, &req); err != nil {
		return req, jobSpec{}, err
	}
	js, err := normalize(req)
	return req, js, err
}

// FuzzDesignRequest feeds arbitrary bytes through the strict request
// decoder and normalize. Neither may panic, and an accepted request is
// a fixed point of its job key: re-encoding the decoded request, or the
// defaults-applied form the WAL journals and peers receive, and
// normalizing it again yields the same key.
func FuzzDesignRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"workload":"har","budget":80,"seed":7,"verify":true}`,
		`{"workload":"resnet18","platform":"accel","objective":"lat","budget":100000}`,
		`{"objective":"latsp","baseline":"wo/EA","algorithm":"nsga","patience":3}`,
		`{"objective":"sp","max_latency_s":12.5,"sim_mode":"differential","search_workers":4}`,
		`{"objective":"lat","max_panel_cm2":1e-3,"seed":-9223372036854775808}`,
		`{"workload_json":{"name":"n","input":[1,1,16],"layers":[{"type":"dense","out":4}]}}`,
		`{"WORKLOAD":"kws","Seed":2}`,
		`{"workload":"har","workload":"kws"}`,
		`{"workload":"nope"}`,
		`{"budget":-1}`,
		`{"unknown":1}`,
		`{"seed":1.5}`,
		`{} {}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, js, err := decodeRequest(body)
		if err != nil {
			return
		}
		for name, again := range map[string]DesignRequest{"request": req, "normalized": js.req} {
			enc, err := json.Marshal(again)
			if err != nil {
				t.Fatalf("%s form of an accepted request does not encode: %v", name, err)
			}
			_, js2, err := decodeRequest(enc)
			if err != nil {
				t.Fatalf("%s form %s rejected on re-decode: %v", name, enc, err)
			}
			if js2.key != js.key {
				t.Fatalf("%s form %s keys %s, the original %s", name, enc, js2.key, js.key)
			}
		}
	})
}
