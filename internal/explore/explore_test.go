package explore

import (
	"context"
	"math"
	"strings"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/search"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// smallGA keeps searches fast in tests.
func smallGA(seed int64) search.GAConfig {
	cfg := search.DefaultGA(seed)
	cfg.Population = 12
	cfg.Generations = 8
	return cfg
}

func TestStringersAndParsers(t *testing.T) {
	for _, o := range Objectives() {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := ParseObjective("speed"); err == nil {
		t.Error("unknown objective should fail")
	}
	if MSP.String() != "msp430" || Accel.String() != "accel" {
		t.Error("platform strings")
	}
	names := map[string]bool{}
	for _, b := range Baselines() {
		names[b.String()] = true
	}
	if len(names) != 7 || !names["chrysalis"] || !names["wo/EA"] {
		t.Errorf("baseline names = %v", names)
	}
}

func TestScenarioValidate(t *testing.T) {
	good := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: LatSP}.withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := good
	bad.Platform = PlatformKind(9)
	if err := bad.Validate(); err == nil {
		t.Error("bad platform should fail")
	}
	bad = good
	bad.Objective = Objective(9)
	if err := bad.Validate(); err == nil {
		t.Error("bad objective should fail")
	}
	bad = good
	bad.Workload = dnn.Workload{}
	if err := bad.Validate(); err == nil {
		t.Error("empty workload should fail")
	}
}

func TestEvaluateCandidateMSP(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}
	cand := Candidate{PanelArea: 8, Cap: 100e-6}
	ev, err := EvaluateCandidate(sc, cand)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Fatal("HAR on 8cm²/100uF should be feasible")
	}
	if len(ev.PerEnv) != 2 {
		t.Fatalf("expected 2 environments, got %d", len(ev.PerEnv))
	}
	if ev.PerEnv[0].Latency >= ev.PerEnv[1].Latency {
		t.Fatal("bright should be faster than dark")
	}
	if ev.AvgLatency <= 0 {
		t.Fatalf("avg latency = %v", ev.AvgLatency)
	}
	if len(ev.Mappings) != len(dnn.HAR().Layers) {
		t.Fatalf("mappings = %d, want %d", len(ev.Mappings), len(dnn.HAR().Layers))
	}
	if !strings.Contains(ev.Candidate.String(), "msp430") {
		t.Fatalf("candidate string = %q", ev.Candidate.String())
	}
}

func TestEvaluateCandidatePlatformMismatch(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}
	if _, err := EvaluateCandidate(sc, Candidate{PanelArea: 8, Cap: 1e-3}); err == nil {
		t.Error("accel platform without accelerator config should fail")
	}
	scm := Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}
	ac := accel.Config{Arch: accel.TPU, NPE: 8, CacheBytes: 512}
	if _, err := EvaluateCandidate(scm, Candidate{PanelArea: 8, Cap: 1e-3, Accel: &ac}); err == nil {
		t.Error("MSP platform with accelerator config should fail")
	}
	bad := accel.Config{Arch: accel.TPU, NPE: 0, CacheBytes: 512}
	if _, err := EvaluateCandidate(sc, Candidate{PanelArea: 8, Cap: 1e-3, Accel: &bad}); err == nil {
		t.Error("invalid accelerator config should fail")
	}
}

func TestEvaluateCandidateAccel(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}
	ac := accel.Config{Arch: accel.Eyeriss, NPE: 32, CacheBytes: 512}
	ev, err := EvaluateCandidate(sc, Candidate{PanelArea: 16, Cap: 1e-3, Accel: &ac})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Fatal("HAR on a 32-PE Eyeriss should be feasible")
	}
	if !strings.Contains(ev.Candidate.String(), "eyeriss") {
		t.Fatalf("candidate string = %q", ev.Candidate.String())
	}
}

// TestSimConfig checks the one replay builder: it owns a copy of the
// evaluation's plans, runs the accelerator in its native dataflow,
// powers the replay from the environment it is given rather than the
// ones that planned the mapping, and refuses an evaluation without
// mappings.
func TestSimConfig(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}
	ac := accel.Config{Arch: accel.Eyeriss, NPE: 32, CacheBytes: 512}
	ev, err := EvaluateCandidate(sc, Candidate{PanelArea: 16, Cap: 1e-3, Accel: &ac})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ev.SimConfig(solar.Dark())
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Plans) != len(ev.Mappings) {
		t.Fatalf("%d plans for %d mappings", len(cfg.Plans), len(ev.Mappings))
	}
	cfg.Plans[0].Energy = -1
	if ev.Mappings[0].Plan.Energy == -1 {
		t.Fatal("the config aliases the evaluation's plans")
	}
	if want, _ := ac.HW(ac.NativeDataflow()); cfg.HW != want {
		t.Fatalf("HW %+v, want the native-dataflow %+v", cfg.HW, want)
	}
	if h, ok := cfg.Energy.Harvester.(energy.SolarHarvester); !ok || h.Env.Name() != solar.Dark().Name() {
		t.Fatalf("replay powered by %s, want the dark environment", cfg.Energy.Harvester.Describe())
	}
	if _, err := (Evaluation{Candidate: ev.Candidate}).SimConfig(solar.Bright()); err == nil ||
		!strings.Contains(err.Error(), "no feasible mapping") {
		t.Fatalf("empty evaluation: err %v", err)
	}
}

func TestAccelBeatsMSPOnLatency(t *testing.T) {
	// The AuT premise (Fig. 2a): dedicated arrays slash inference time.
	scM := Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: Lat}
	evM, err := EvaluateCandidate(scM, Candidate{PanelArea: 20, Cap: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	scA := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: Lat}
	ac := accel.Config{Arch: accel.Eyeriss, NPE: 64, CacheBytes: 1024}
	evA, err := EvaluateCandidate(scA, Candidate{PanelArea: 20, Cap: 1e-3, Accel: &ac})
	if err != nil {
		t.Fatal(err)
	}
	if !evM.Feasible || !evA.Feasible {
		t.Fatal("both should be feasible")
	}
	if evA.AvgLatency >= evM.AvgLatency {
		t.Fatalf("accel latency %v should beat MSP %v", evA.AvgLatency, evM.AvgLatency)
	}
}

func TestExploreMSPLatSP(t *testing.T) {
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: LatSP}
	out, err := Explore(context.Background(), sc, Full, smallGA(1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Best.Feasible {
		t.Fatal("explorer returned infeasible best")
	}
	if out.Value <= 0 || math.IsInf(out.Value, 1) {
		t.Fatalf("objective value = %v", out.Value)
	}
	if out.Evals < 50 {
		t.Fatalf("suspiciously few evaluations: %d", out.Evals)
	}
}

func TestExploreRespectsLatConstraint(t *testing.T) {
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: Lat, MaxPanel: 10}
	out, err := Explore(context.Background(), sc, Full, smallGA(2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Best.Candidate.PanelArea > 10 {
		t.Fatalf("panel %v exceeds the 10cm² bound", out.Best.Candidate.PanelArea)
	}
}

func TestExploreRespectsSPConstraint(t *testing.T) {
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: SP, MaxLatency: 60}
	out, err := Explore(context.Background(), sc, Full, smallGA(3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Best.AvgLatency > 60 {
		t.Fatalf("latency %v exceeds the 60s bound", out.Best.AvgLatency)
	}
	// The SP objective's value is the panel area when feasible.
	if out.Value > float64(solar.MaxPanelArea) {
		t.Fatalf("sp objective value %v implies constraint violation", out.Value)
	}
}

func TestFullBeatsAblations(t *testing.T) {
	// CHRYSALIS's headline claim: the full co-design space finds designs
	// at least as good as every ablated space (allowing small search
	// noise at test budgets).
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: LatSP}
	full, err := Explore(context.Background(), sc, Full, smallGA(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Baseline{WoCap, WoSP, WoEA} {
		out, err := Explore(context.Background(), sc, b, smallGA(4))
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if full.Value > out.Value*1.15 {
			t.Errorf("%s: full %.3f much worse than ablation %.3f", b, full.Value, out.Value)
		}
	}
}

func TestWoEAPinsEnergySubsystem(t *testing.T) {
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: LatSP}
	out, err := Explore(context.Background(), sc, WoEA, smallGA(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Best.Candidate.PanelArea != FixedPanel || out.Best.Candidate.Cap != FixedCap {
		t.Fatalf("wo/EA should pin panel and capacitor, got %s", out.Best.Candidate)
	}
}

func TestWoIAPinsInferenceSubsystem(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}
	out, err := Explore(context.Background(), sc, WoIA, smallGA(6))
	if err != nil {
		t.Fatal(err)
	}
	ac := out.Best.Candidate.Accel
	if ac == nil || ac.NPE != FixedNPE || ac.CacheBytes != FixedCache {
		t.Fatalf("wo/IA should pin the accelerator, got %s", out.Best.Candidate)
	}
}

func TestParetoScan(t *testing.T) {
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: LatSP}
	points, front, err := ParetoScan(sc, 120, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 || len(front) == 0 {
		t.Fatal("scan should find feasible points")
	}
	if len(front) > len(points) {
		t.Fatal("front cannot exceed point count")
	}
	// Front must be non-dominated and sorted by panel area.
	for i := 1; i < len(front); i++ {
		if front[i].PanelArea <= front[i-1].PanelArea {
			t.Fatal("front should be sorted by panel area ascending")
		}
		if front[i].Latency >= front[i-1].Latency {
			t.Fatal("front latencies should strictly improve with panel area")
		}
	}
	// Larger panels buy lower latency: endpoints of the tradeoff.
	if len(front) >= 2 {
		first, last := front[0], front[len(front)-1]
		if !(last.PanelArea > first.PanelArea && last.Latency < first.Latency) {
			t.Fatalf("tradeoff direction wrong: %+v .. %+v", first, last)
		}
	}
}

func TestObjectiveValueInfeasible(t *testing.T) {
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: Lat}.withDefaults()
	ev := Evaluation{Feasible: false}
	if !math.IsInf(objectiveValue(sc, ev), 1) {
		t.Fatal("infeasible evaluation must score +Inf")
	}
	ev = Evaluation{Feasible: true, AvgLatency: 5, Candidate: Candidate{PanelArea: 31}}
	if !math.IsInf(objectiveValue(sc, ev), 1) {
		t.Fatal("panel beyond MaxPanel must score +Inf under Lat")
	}
}

func TestDecodeRespectsBaselineSpec(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}.withDefaults()
	g := spec(sc, Full)
	if g.dim() != 5 {
		t.Fatalf("full accel genome dim = %d, want 5", g.dim())
	}
	cand := decode(sc, g, []float64{0, 0, 0, 0, 0})
	if cand.PanelArea != solar.MinPanelArea {
		t.Fatalf("genome 0 should decode to min panel, got %v", cand.PanelArea)
	}
	if cand.Accel.NPE != accel.MinPE {
		t.Fatalf("genome 0 should decode to 1 PE, got %d", cand.Accel.NPE)
	}
	cand = decode(sc, g, []float64{1, 1, 1, 1, 1})
	if cand.Accel.NPE != accel.MaxPE || cand.Accel.CacheBytes != accel.MaxCacheBytes {
		t.Fatalf("genome 1 should decode to max accel, got %s", cand)
	}
	if units.Bytes(0) != 0 { // keep units import honest
		t.Fatal("unreachable")
	}
}

func TestForcedArchPinned(t *testing.T) {
	a := accel.Eyeriss
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &a}
	out, err := Explore(context.Background(), sc, Full, smallGA(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Best.Candidate.Accel.Arch; got != accel.Eyeriss {
		t.Fatalf("arch = %v, want pinned eyeriss", got)
	}
}

func TestParetoSearchNSGA(t *testing.T) {
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: MSP, Objective: LatSP}
	cfg := smallGA(13)
	out, err := ParetoSearch(context.Background(), sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front, evals := out.Front, out.Evals
	if len(front) < 3 {
		t.Fatalf("front has only %d points", len(front))
	}
	if evals < cfg.Population {
		t.Fatalf("evals = %d", evals)
	}
	if len(out.Quality) != len(out.History) || len(out.Quality) == 0 {
		t.Fatalf("telemetry lengths = %d/%d", len(out.Quality), len(out.History))
	}
	if last := out.Quality[len(out.Quality)-1]; last.Hypervolume <= 0 || last.FrontSize < 1 {
		t.Fatalf("final quality record malformed: %+v", last)
	}
	// Non-dominated and sorted: bigger panels must buy lower latency.
	for i := 1; i < len(front); i++ {
		if front[i].PanelArea < front[i-1].PanelArea {
			t.Fatal("front not sorted by panel area")
		}
		if front[i].Latency >= front[i-1].Latency {
			t.Fatalf("front point %d dominated", i)
		}
	}
	// NSGA-II at ~equal budget should reach a front at least as wide as
	// the random scan's.
	_, scanFront, err := ParetoScan(sc, evals, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scanFront) > 0 && len(front) > 0 {
		nsgaBest := front[len(front)-1].Latency
		scanBest := scanFront[len(scanFront)-1].Latency
		if float64(nsgaBest) > float64(scanBest)*1.25 {
			t.Fatalf("NSGA front min latency %v much worse than scan %v", nsgaBest, scanBest)
		}
	}
}
