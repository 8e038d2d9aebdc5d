package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"chrysalis/internal/explore"
	"chrysalis/internal/obs"
	"chrysalis/internal/search"
	"chrysalis/internal/units"
)

// fastSearch keeps orchestration tests quick.
func fastSearch(seed int64) SearchConfig {
	return SearchConfig{Budget: 80, Seed: seed}
}

func TestRunMSPQuickstart(t *testing.T) {
	res, err := Run(Spec{
		WorkloadName: "simpleconv",
		Platform:     explore.MSP,
		Objective:    explore.LatSP,
		Search:       fastSearch(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InferHW != "msp430" || res.NPE != 1 {
		t.Fatalf("infer hw = %s/%d", res.InferHW, res.NPE)
	}
	if res.PanelArea < 1 || res.PanelArea > 30 {
		t.Fatalf("panel %v outside design space", res.PanelArea)
	}
	if res.Cap < 1e-6 || res.Cap > 10e-3 {
		t.Fatalf("cap %v outside design space", res.Cap)
	}
	if len(res.Dataflow) != 1 {
		t.Fatalf("simpleconv has 1 layer, got %d dataflow entries", len(res.Dataflow))
	}
	if len(res.Dataflow[0].Directives) == 0 {
		t.Fatal("directives should be rendered")
	}
	if res.AvgLatency <= 0 || math.IsInf(float64(res.AvgLatency), 1) {
		t.Fatalf("latency = %v", res.AvgLatency)
	}
	if res.Baseline != "chrysalis" || res.Objective != "lat*sp" {
		t.Fatalf("labels = %s/%s", res.Baseline, res.Objective)
	}
}

func TestRunAccel(t *testing.T) {
	res, err := Run(Spec{
		WorkloadName: "har",
		Platform:     explore.Accel,
		Objective:    explore.Lat,
		MaxPanel:     20,
		Search:       fastSearch(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InferHW != "tpu" && res.InferHW != "eyeriss" {
		t.Fatalf("infer hw = %s", res.InferHW)
	}
	if res.NPE < 1 || res.NPE > 168 {
		t.Fatalf("NPE = %d", res.NPE)
	}
	if res.CacheBytes < 128 || res.CacheBytes > 2*units.KB {
		t.Fatalf("cache = %v", res.CacheBytes)
	}
	if res.PanelArea > 20 {
		t.Fatalf("panel %v exceeds MaxPanel", res.PanelArea)
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := Run(Spec{Platform: explore.MSP}); err == nil {
		t.Error("missing workload should fail")
	}
	if _, err := Run(Spec{WorkloadName: "nope", Platform: explore.MSP}); err == nil {
		t.Error("unknown workload should fail")
	}
	if _, err := Run(Spec{WorkloadName: "har", Search: SearchConfig{Algorithm: "annealing"}}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestRandomAlgorithm(t *testing.T) {
	res, err := Run(Spec{
		WorkloadName: "simpleconv",
		Platform:     explore.MSP,
		Objective:    explore.LatSP,
		Search:       SearchConfig{Algorithm: "random", Budget: 64, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency <= 0 {
		t.Fatal("random search should still find designs")
	}
}

func TestRunBaselinePinsDims(t *testing.T) {
	res, err := RunBaseline(context.Background(), Spec{
		WorkloadName: "simpleconv",
		Platform:     explore.MSP,
		Objective:    explore.LatSP,
		Search:       fastSearch(4),
	}, explore.WoEA)
	if err != nil {
		t.Fatal(err)
	}
	if res.PanelArea != explore.FixedPanel || res.Cap != explore.FixedCap {
		t.Fatalf("wo/EA should pin the energy subsystem: %v/%v", res.PanelArea, res.Cap)
	}
	if res.Baseline != "wo/EA" {
		t.Fatalf("baseline label = %s", res.Baseline)
	}
}

func TestVerifyAgainstStepSim(t *testing.T) {
	spec := Spec{
		WorkloadName: "har",
		Platform:     explore.MSP,
		Objective:    explore.LatSP,
		Search:       fastSearch(5),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := Verify(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if !simRes.Completed {
		t.Fatal("step sim should complete the searched design")
	}
	// Bright-environment step-sim latency should be within a factor ~2
	// of the analytic bright latency used in search.
	var bright units.Seconds
	for _, e := range res.PerEnv {
		if e.Env == "bright" {
			bright = e.Latency
		}
	}
	ratio := float64(simRes.E2ELatency) / float64(bright)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("step sim %v vs analytic %v (ratio %.2f)", simRes.E2ELatency, bright, ratio)
	}
}

func TestComponentsInventory(t *testing.T) {
	comps := Components()
	if len(comps) != 7 {
		t.Fatalf("Table III has 7 rows, got %d", len(comps))
	}
	subsystems := map[string]int{}
	for _, c := range comps {
		subsystems[c.Subsystem]++
		if c.Component == "" || c.Realization == "" || c.BaseModel == "" {
			t.Errorf("incomplete component row: %+v", c)
		}
	}
	if subsystems["EH"] != 3 || subsystems["Infer"] != 4 {
		t.Fatalf("subsystem split = %v", subsystems)
	}
}

func TestSizeGA(t *testing.T) {
	cfg, err := gaConfig(SearchConfig{Budget: 400})
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Population * cfg.Generations; got < 200 || got > 800 {
		t.Fatalf("budget 400 produced %d evals worth of schedule", got)
	}
	// Tiny budgets stay valid.
	cfg, err = gaConfig(SearchConfig{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("tiny budget config invalid: %v", err)
	}
}

func TestVerifyAccelPath(t *testing.T) {
	spec := Spec{
		WorkloadName: "har",
		Platform:     explore.Accel,
		Objective:    explore.LatSP,
		Search:       fastSearch(7),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Verify(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Completed {
		t.Fatal("accelerator verification run should complete")
	}
}

func TestVerifyErrorPaths(t *testing.T) {
	// Bad workload in the spec.
	if _, err := Verify(Spec{WorkloadName: "nope", Platform: explore.MSP}, Result{}); err == nil {
		t.Error("unknown workload should fail")
	}
	// Accel result with a bogus architecture name.
	spec := Spec{WorkloadName: "har", Platform: explore.Accel, Objective: explore.LatSP}
	bad := Result{PanelArea: 8, Cap: 1e-3, InferHW: "npu", NPE: 8, CacheBytes: 512}
	if _, err := Verify(spec, bad); err == nil {
		t.Error("unknown architecture should fail")
	}
	// Out-of-space design point.
	spec2 := Spec{WorkloadName: "har", Platform: explore.MSP, Objective: explore.LatSP}
	bad2 := Result{PanelArea: 99, Cap: 1e-3, InferHW: "msp430"}
	if _, err := Verify(spec2, bad2); err == nil {
		t.Error("out-of-space panel should fail")
	}
}

func TestResultIncludesLoopNest(t *testing.T) {
	res, err := Run(Spec{
		WorkloadName: "simpleconv",
		Platform:     explore.MSP,
		Objective:    explore.LatSP,
		Search:       fastSearch(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataflow) == 0 || len(res.Dataflow[0].LoopNest) < 3 {
		t.Fatalf("loop nest missing from result: %+v", res.Dataflow)
	}
	joined := strings.Join(res.Dataflow[0].LoopNest, "\n")
	if !strings.Contains(joined, "InterTempMap") {
		t.Fatalf("loop nest lacks InterTempMap:\n%s", joined)
	}
}

func TestReport(t *testing.T) {
	spec := Spec{
		WorkloadName: "har",
		Platform:     explore.MSP,
		Objective:    explore.LatSP,
		Search:       fastSearch(9),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Report(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pre-RTL design reference", "Hardware configuration",
		"Per-layer intermittent mapping", "Predicted metrics",
		"InterTempMap", "solar panel", "capacitor",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("report missing %q", want)
		}
	}
	full, err := ReportWithVerification(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full, "Step-simulator verification") {
		t.Error("verified report missing simulation section")
	}
	if _, err := Report(Spec{WorkloadName: "nope"}, res); err == nil {
		t.Error("bad spec should fail")
	}
}

func TestSensitivity(t *testing.T) {
	spec := Spec{
		WorkloadName: "har",
		Platform:     explore.MSP,
		Objective:    explore.LatSP,
		Search:       fastSearch(10),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Sensitivity(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Ambient light must matter: more light, less latency.
	var light SensitivityRow
	for _, r := range rows {
		if r.Parameter == "ambient light ±50%" {
			light = r
		}
	}
	if light.Parameter == "" {
		t.Fatal("light row missing")
	}
	if light.LatLow <= light.LatHigh {
		t.Fatalf("dimmer light (%v) should be slower than brighter (%v)", light.LatLow, light.LatHigh)
	}
	if light.Swing <= 0 {
		t.Fatalf("light swing = %v", light.Swing)
	}
	// Infeasible base is rejected.
	if _, err := Sensitivity(Spec{WorkloadName: "nope"}, res); err == nil {
		t.Fatal("bad spec should fail")
	}
}

func TestPresets(t *testing.T) {
	ps := Presets()
	if len(ps) != 5 {
		t.Fatalf("presets = %d, want 5", len(ps))
	}
	domains := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || p.Domain == "" || p.Description == "" || p.Build == nil {
			t.Fatalf("incomplete preset %+v", p)
		}
		domains[p.Domain] = true
		spec := p.Build("har")
		if spec.WorkloadName != "har" {
			t.Fatalf("%s: workload not threaded", p.Name)
		}
	}
	// The paper's taxonomy: land, sea, air, space all covered.
	for _, d := range []string{"land", "sea", "air", "space"} {
		if !domains[d] {
			t.Errorf("domain %q not covered", d)
		}
	}
	if _, err := PresetByName("moonbase"); err == nil {
		t.Fatal("unknown preset should fail")
	}
}

func TestRunPreset(t *testing.T) {
	res, err := RunPreset("wearable", "har", fastSearch(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.PanelArea > 6 {
		t.Fatalf("wearable panel %v exceeds the 6cm² budget", res.PanelArea)
	}
	if _, err := RunPreset("moonbase", "har", fastSearch(11)); err == nil {
		t.Fatal("unknown preset should fail")
	}
}

// TestProgressMatchesOnQuality checks the fold of the two per-generation
// hooks into the optimizer's one: Progress sees, generation by
// generation and before OnQuality, exactly the (Gen, Evals, Best) of
// the OnQuality record — for a finite best and for a search in which no
// candidate is ever feasible (+Inf), under both the GA and NSGA-II.
func TestProgressMatchesOnQuality(t *testing.T) {
	type triple struct {
		gen, evals int
		best       float64
	}
	for _, tc := range []struct {
		algo     string
		maxPanel units.AreaCM2
		inf      bool
	}{{"ga", 0, false}, {"ga", 0.01, true}, {"nsga", 0, false}} {
		t.Run(fmt.Sprintf("%s/max_panel=%g", tc.algo, tc.maxPanel), func(t *testing.T) {
			var fromProgress, fromQuality []triple
			cfg := fastSearch(3)
			cfg.Algorithm = tc.algo
			cfg.Progress = func(gen, evals int, best float64) {
				fromProgress = append(fromProgress, triple{gen, evals, best})
			}
			cfg.OnQuality = func(q search.GenQuality) {
				if len(fromProgress) != len(fromQuality)+1 {
					t.Fatalf("generation %d: Progress did not run right before OnQuality", q.Gen)
				}
				fromQuality = append(fromQuality, triple{q.Gen, q.Evals, q.Best})
			}
			_, err := Run(Spec{WorkloadName: "har", Platform: explore.MSP, Objective: explore.Lat,
				MaxPanel: tc.maxPanel, Search: cfg})
			if tc.inf != errors.Is(err, explore.ErrNoFeasibleDesign) {
				t.Fatalf("Run: %v", err)
			}
			if len(fromQuality) == 0 || !reflect.DeepEqual(fromProgress, fromQuality) {
				t.Fatalf("Progress %v != OnQuality %v", fromProgress, fromQuality)
			}
			if last := fromQuality[len(fromQuality)-1].best; math.IsInf(last, 1) != tc.inf {
				t.Fatalf("final best %g, want +Inf = %v", last, tc.inf)
			}
		})
	}
}

// TestParetoHeadlineEvaluatedOnce pins how an NSGA run materializes its
// headline design: through the search's own evaluator, so a traced
// MSP/har run records one "ladder-build" span per hardware fingerprint
// and one traced "full-evaluate" span, and the headline equals a fresh
// evaluator's evaluation of the same front member.
func TestParetoHeadlineEvaluatedOnce(t *testing.T) {
	spec := Spec{WorkloadName: "har", Platform: explore.MSP, Objective: explore.LatSP, Search: fastSearch(3)}
	spec.Search.Algorithm = "nsga"
	tr := obs.NewTrace(1 << 16)
	res, err := RunBaseline(obs.WithTrace(context.Background(), tr), spec, explore.Full)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Dropped(); n != 0 {
		t.Fatalf("trace ring dropped %d events; enlarge it", n)
	}
	builds := map[string]int{}
	evaluations := 0
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "ladder-build":
			builds[fmt.Sprint(ev.Args["platform"], ev.Args["arch"], ev.Args["npe"], ev.Args["layers"])]++
		case "full-evaluate":
			evaluations++
		}
	}
	if len(builds) == 0 || int64(len(builds)) != res.CacheMisses {
		t.Fatalf("%d fingerprints built, want the %d cache misses: %v", len(builds), res.CacheMisses, builds)
	}
	for fp, n := range builds {
		if n != 1 {
			t.Errorf("fingerprint %s built %d times, want once", fp, n)
		}
	}
	if evaluations != 1 {
		t.Errorf("%d full-evaluate spans, want 1 (the headline)", evaluations)
	}

	// The trace never changes the result.
	untraced, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, untraced) {
		t.Fatal("traced NSGA result differs from the untraced one")
	}

	// The headline is what a fresh evaluator makes of the front's
	// minimum-LatSP member (the first on ties).
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := gaConfig(spec.Search)
	if err != nil {
		t.Fatal(err)
	}
	po, err := explore.ParetoSearch(context.Background(), sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := po.Front[0]
	for _, p := range po.Front[1:] {
		if p.LatSP < best.LatSP {
			best = p
		}
	}
	fresh, err := explore.EvaluateCandidate(po.Scenario, best.Candidate)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(po.Best, fresh) {
		t.Fatalf("headline %+v differs from a fresh evaluation %+v", po.Best, fresh)
	}
	if res.LatSP != fresh.LatSP || res.PanelArea != fresh.Candidate.PanelArea || res.Cap != fresh.Candidate.Cap {
		t.Fatalf("result headline (%g, %v, %v) is not the front's best (%g, %v, %v)",
			res.LatSP, res.PanelArea, res.Cap, fresh.LatSP, fresh.Candidate.PanelArea, fresh.Candidate.Cap)
	}
}
