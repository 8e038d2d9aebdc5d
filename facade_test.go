package chrysalis

import (
	"context"
	"strings"
	"testing"
)

func harSpec() Spec {
	return Spec{WorkloadName: "har", Platform: MSP430, Objective: MinimizeLatTimesSP}
}

func TestEvaluateDesignPoint(t *testing.T) {
	ev, err := Evaluate(harSpec(), DesignPoint{PanelArea: 8, Cap: 100e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Fatal("8cm²/100uF HAR should be feasible")
	}
	if len(ev.PerEnv) != 2 {
		t.Fatalf("envs = %d", len(ev.PerEnv))
	}
}

func TestEvaluateAccelDesignPoint(t *testing.T) {
	spec := Spec{WorkloadName: "resnet18", Platform: Accelerator, Objective: MinimizeLatency}
	cfg := AccelConfig{Arch: Eyeriss, NPE: 128, CacheBytes: 1024}
	ev, err := Evaluate(spec, DesignPoint{PanelArea: 20, Cap: 1e-3, Accel: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Fatal("resnet18 on 128-PE Eyeriss should be feasible")
	}
}

func TestSimulateDesignPoint(t *testing.T) {
	run, err := Simulate(harSpec(), DesignPoint{PanelArea: 8, Cap: 100e-6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Completed {
		t.Fatal("simulation should complete")
	}
	dark, err := Simulate(harSpec(), DesignPoint{PanelArea: 8, Cap: 100e-6}, DarkEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	if dark.E2ELatency <= run.E2ELatency {
		t.Fatal("dark should be slower")
	}
}

// constantHarvester is a test double: a thermoelectric-style flat source.
type constantHarvester struct{ p Power }

func (c constantHarvester) Power(Seconds) Power { return c.p }
func (c constantHarvester) Describe() string    { return "teg" }

func TestSimulateWithHarvester(t *testing.T) {
	run, err := SimulateWithHarvester(harSpec(), DesignPoint{PanelArea: 8, Cap: 100e-6},
		constantHarvester{p: 10e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Completed {
		t.Fatal("10mW TEG should complete HAR")
	}
	if _, err := SimulateWithHarvester(harSpec(), DesignPoint{PanelArea: 8, Cap: 100e-6}, nil); err == nil {
		t.Fatal("nil harvester should fail")
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	cases := []struct {
		name, json, wantSub string
	}{
		{"malformed JSON", `{"name": "broken",`, "invalid workload JSON"},
		{"not JSON at all", `🦋`, "invalid workload JSON"},
		{"wrong field type", `{"name": 7, "input": [1,1,16], "layers": [{"type":"dense","out":4}]}`, "invalid workload JSON"},
		{"unknown layer kind", `{"name":"n","input":[1,1,16],"layers":[{"type":"transformer"}]}`, `unknown type "transformer"`},
		{"empty layer list", `{"name":"n","input":[1,1,16],"layers":[]}`, "has no layers"},
		{"missing layer list", `{"name":"n","input":[1,1,16]}`, "has no layers"},
		{"missing name", `{"input":[1,1,16],"layers":[{"type":"dense","out":4}]}`, "needs a name"},
		{"bad input shape", `{"name":"n","input":[0,1,16],"layers":[{"type":"dense","out":4}]}`, "must be positive"},
		{"dense without out", `{"name":"n","input":[1,1,16],"layers":[{"type":"dense"}]}`, "dense needs out"},
		{"conv2d without channels", `{"name":"n","input":[3,8,8],"layers":[{"type":"conv2d","kernel":3}]}`, "needs out_channels"},
	}
	for _, tc := range cases {
		_, err := ParseWorkload([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}

	// A valid description still parses, and round-trips through the
	// canonical serialization.
	valid := `{"name":"ok","input":[1,1,16],"layers":[{"type":"dense","out":4}]}`
	w, err := ParseWorkload([]byte(valid))
	if err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if w.Name != "ok" || len(w.Layers) != 1 {
		t.Fatalf("parsed %q with %d layers", w.Name, len(w.Layers))
	}
	canon, err := w.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ParseWorkload(canon)
	if err != nil {
		t.Fatalf("canonical form rejected: %v", err)
	}
	if w2.Name != w.Name || len(w2.Layers) != len(w.Layers) {
		t.Fatal("round trip changed the workload")
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(Spec{}, DesignPoint{PanelArea: 8, Cap: 100e-6}); err == nil {
		t.Fatal("missing workload should fail")
	}
	if _, err := Evaluate(harSpec(), DesignPoint{PanelArea: 99, Cap: 100e-6}); err == nil {
		t.Fatal("out-of-space panel should fail")
	}
}

// TestDesignContextCancel checks the facade's cancellation route:
// cancelling the ctx from the progress hook ends the search after that
// generation with the best design found so far.
func TestDesignContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := harSpec()
	spec.Search = SearchConfig{Budget: 400, Seed: 1, Progress: func(gen, _ int, _ float64) {
		if gen == 2 {
			cancel()
		}
	}}
	res, err := DesignContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 || res.PanelArea <= 0 {
		t.Fatalf("cancelled design ran %d generations (want 2), panel %v", len(res.History), res.PanelArea)
	}
}
