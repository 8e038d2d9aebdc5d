package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"chrysalis/internal/solar"
)

// bitIdentCase is the pinned fingerprint of one run: SHA-256 of the
// JSON-encoded result, waveform snapshot and cycle ledgers. Fields are
// empty when the run has no recorder to snapshot.
type bitIdentCase struct {
	Result   string `json:"result"`
	Waveform string `json:"waveform,omitempty"`
	Cycles   string `json:"cycles,omitempty"`
}

func bitIdentHash(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func bitIdentRecorded(t *testing.T, result any, rec *Recorder) bitIdentCase {
	t.Helper()
	return bitIdentCase{
		Result:   bitIdentHash(t, result),
		Waveform: bitIdentHash(t, rec.Waveform()),
		Cycles:   bitIdentHash(t, rec.Cycles()),
	}
}

// TestBitIdentityGolden pins every observable output of the simulator
// and its flight recorder — results, waveforms and ledgers, bit for bit
// — on the four paths the recorder is fed through: a recorded diurnal
// series (literal inference steps plus coarse idle steps), an
// event-mode diurnal run (time-varying harvest, so the literal
// fallback), a constant-light event-mode run (analytic jumps through
// the recorder's segment path) and the deprecated SampleEvery voltage
// trace. Refactors of the step kernel or the recorder must leave the
// golden unchanged. Regenerate with:
// go test ./internal/sim/ -run TestBitIdentityGolden -update
func TestBitIdentityGolden(t *testing.T) {
	day, err := solar.NewDiurnal(solar.KehBright, 0, 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bitIdentCase{}

	cfg := harSetup(t, 8, 100e-6, day)
	rec := NewRecorder(0)
	cfg.Record = rec
	sr, err := RunSeries(cfg, 20, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 20 {
		t.Fatalf("diurnal series completed %d of 20", sr.Completed)
	}
	got["diurnal-series"] = bitIdentRecorded(t, sr, rec)

	for _, c := range []struct {
		name string
		env  solar.Environment
	}{
		{"event-diurnal-fallback", day},
		{"event-bright-jumps", solar.Bright()},
	} {
		cfg := harSetup(t, 8, 100e-6, c.env)
		rec := NewRecorder(0)
		cfg.Record = rec
		res, err := RunEvent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%s: run should complete", c.name)
		}
		got[c.name] = bitIdentRecorded(t, res, rec)
	}

	cfg = harSetup(t, 8, 100e-6, solar.Bright())
	cfg.SampleEvery = 10 * DefaultStep
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VoltageTrace) == 0 {
		t.Fatal("legacy run should produce a voltage trace")
	}
	got["legacy-voltage-trace"] = bitIdentCase{Result: bitIdentHash(t, res)}

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "bit_identity.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var wantCases map[string]bitIdentCase
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
