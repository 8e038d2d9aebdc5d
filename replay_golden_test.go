package chrysalis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the replay golden file")

// replayCase is the pinned fingerprint of one facade replay: SHA-256 of
// the result's Go-syntax rendering (shortest round-trip floats, so bit
// exact, and unlike JSON it encodes the +Inf latency of a run that
// never completes), plus of the JSON-encoded waveform snapshot and
// cycle ledgers where a recorder was attached, and the delivered event
// count of a traced run.
type replayCase struct {
	Result   string `json:"result"`
	Waveform string `json:"waveform,omitempty"`
	Cycles   string `json:"cycles,omitempty"`
	Events   int    `json:"events,omitempty"`
}

func replayHash(v any) string { return hashBytes(fmt.Appendf(nil, "%#v", v)) }

func replayJSONHash(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return hashBytes(raw)
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func replayRecorded(t *testing.T, result any, rec *FlightRecorder) replayCase {
	t.Helper()
	return replayCase{
		Result:   replayHash(result),
		Waveform: replayJSONHash(t, rec.Waveform()),
		Cycles:   replayJSONHash(t, rec.Cycles()),
	}
}

// TestReplayGolden pins every facade path that turns a design point or
// a designed result into a simulator run — Simulate (MSP430 bright and
// dark, Eyeriss), SimulateWithPolicy, SimulateWithHarvester,
// SimulateTraced, SimulateSeries and SimulateSeriesFlight under a
// diurnal day, and Verify/VerifyFlight in both simulator modes — bit
// for bit. Refactors of how a design point becomes a simulator
// configuration must leave it unchanged. Regenerate with:
// go test . -run TestReplayGolden -update
func TestReplayGolden(t *testing.T) {
	got := map[string]replayCase{}
	must := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	msp := DesignPoint{PanelArea: 8, Cap: 100e-6}

	run, err := Simulate(harSpec(), msp, nil)
	must("simulate-msp-bright", err)
	got["simulate-msp-bright"] = replayCase{Result: replayHash(run)}
	run, err = Simulate(harSpec(), msp, DarkEnvironment())
	must("simulate-msp-dark", err)
	got["simulate-msp-dark"] = replayCase{Result: replayHash(run)}

	eyeriss := AccelConfig{Arch: Eyeriss, NPE: 64, CacheBytes: 512}
	accelSpec := Spec{WorkloadName: "har", Platform: Accelerator, Objective: MinimizeLatTimesSP}
	run, err = Simulate(accelSpec, DesignPoint{PanelArea: 16, Cap: 1e-3, Accel: &eyeriss}, nil)
	must("simulate-eyeriss", err)
	got["simulate-eyeriss"] = replayCase{Result: replayHash(run)}

	for _, p := range []CheckpointPolicy{CheckpointEveryTile, CheckpointAdaptive, CheckpointNone} {
		name := "policy-" + p.String()
		run, err := SimulateWithPolicy(harSpec(), msp, nil, p)
		must(name, err)
		got[name] = replayCase{Result: replayHash(run)}
	}

	run, err = SimulateWithHarvester(harSpec(), msp, constantHarvester{p: 10e-3})
	must("harvester", err)
	got["harvester"] = replayCase{Result: replayHash(run)}

	events := 0
	run, err = SimulateTraced(harSpec(), msp, nil, func(SimEvent) { events++ })
	must("traced", err)
	got["traced"] = replayCase{Result: replayHash(run), Events: events}

	day, err := DiurnalEnvironment(1e-3, 0, 90)
	must("diurnal", err)
	dayDP := DesignPoint{PanelArea: 20, Cap: 470e-6}
	sr, err := SimulateSeries(harSpec(), dayDP, day, 500, 1)
	must("series-diurnal", err)
	got["series-diurnal"] = replayCase{Result: replayHash(sr)}
	rec := NewFlightRecorder(0)
	sr, _, err = SimulateSeriesFlight(harSpec(), dayDP, day, 500, 1, rec)
	must("series-flight-diurnal", err)
	got["series-flight-diurnal"] = replayRecorded(t, sr, rec)

	res := Result{PanelArea: 8, Cap: 100e-6, InferHW: "msp430", NPE: 1}
	for _, m := range []SimMode{SimModeStep, SimModeEvent} {
		spec := harSpec()
		spec.SimMode = m
		run, err := Verify(spec, res)
		must("verify-"+m.String(), err)
		got["verify-"+m.String()] = replayCase{Result: replayHash(run)}
		rec := NewFlightRecorder(0)
		run, _, err = VerifyFlight(spec, res, nil, rec)
		must("verify-flight-"+m.String(), err)
		got["verify-flight-"+m.String()] = replayRecorded(t, run, rec)
	}

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "replay.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var wantCases map[string]replayCase
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatal(err)
	}
	for name, w := range wantCases {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: outputs diverged from golden %s\n got %+v\nwant %+v", name, path, g, w)
		}
	}
	if len(got) != len(wantCases) {
		t.Errorf("ran %d cases, golden pins %d", len(got), len(wantCases))
	}
}
