package sim

import (
	"math"
	"testing"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/msp430"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// harSetup builds a representative existing-AuT scenario: HAR on the
// MSP430 with an 8 cm² panel and a given capacitor.
func harSetup(t testing.TB, area units.AreaCM2, capC units.Capacitance, env solar.Environment) Config {
	t.Helper()
	es, err := energy.NewSolar(energy.Spec{PanelArea: area, Cap: capC}, env)
	if err != nil {
		t.Fatal(err)
	}
	hw := msp430.Config{}.HW()
	// Plan tiles against what one real energy cycle can deliver at the
	// platform's active power, with a 10% safety margin.
	budget, _ := es.CycleBudget(msp430.Config{}.ActivePower())
	if math.IsInf(float64(budget), 1) {
		budget = 1 // harvest sustains the load; any tile size works
	}
	plans, err := intermittent.PlanWorkload(dnn.HAR(), dataflow.OS, hw, 0.05, intermittent.FixedBudget(budget*0.9))
	if err != nil {
		t.Fatal(err)
	}
	return Config{Energy: es, HW: hw, Plans: plans}
}

func TestValidate(t *testing.T) {
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.Energy = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil energy should fail")
	}
	bad = cfg
	bad.Plans = nil
	if err := bad.Validate(); err == nil {
		t.Error("no plans should fail")
	}
	bad = cfg
	bad.Jitter = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("jitter >= 1 should fail")
	}
	bad = cfg
	bad.Step = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative step should fail")
	}
}

func TestRunCompletesHAR(t *testing.T) {
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("HAR on 8cm² bright should complete")
	}
	if res.E2ELatency <= 0 || math.IsInf(float64(res.E2ELatency), 1) {
		t.Fatalf("latency = %v", res.E2ELatency)
	}
	if res.TilesDone == 0 || res.Checkpoints == 0 {
		t.Fatalf("no progress recorded: %+v", res)
	}
	if res.PowerCycles < 1 {
		t.Fatal("at least one power-on expected")
	}
	if res.Breakdown.Ckpt <= 0 {
		t.Fatal("checkpointing must cost energy")
	}
	if res.SystemEfficiency <= 0 || res.SystemEfficiency > 1 {
		t.Fatalf("system efficiency %v out of (0,1]", res.SystemEfficiency)
	}
}

func TestEnergyConservation(t *testing.T) {
	// Delivered() must equal what the capacitor handed to the load;
	// harvested == charged-side flows + conversion loss (+ spill).
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	// All load-side categories must be non-negative.
	for name, v := range map[string]units.Energy{
		"infer": b.Infer, "nvmio": b.NVMIO, "static": b.Static,
		"ckpt": b.Ckpt, "wasted": b.Wasted,
	} {
		if v < 0 {
			t.Errorf("%s = %v, want >= 0", name, v)
		}
	}
	// The load cannot consume more than was harvested minus losses plus
	// the initial capacitor charge.
	init := units.EnergyAtVoltage(cfg.Energy.Spec().Cap, cfg.Energy.Spec().PMIC.UOff)
	avail := float64(b.Harvested) - float64(b.ConversionLoss) + float64(init)
	if float64(b.Delivered()) > avail+1e-9 {
		t.Fatalf("delivered %v exceeds available %v", b.Delivered(), avail)
	}
}

func TestDarkSlowerThanBright(t *testing.T) {
	bright, err := Run(harSetup(t, 8, 100e-6, solar.Bright()))
	if err != nil {
		t.Fatal(err)
	}
	dark, err := Run(harSetup(t, 8, 100e-6, solar.Dark()))
	if err != nil {
		t.Fatal(err)
	}
	if !bright.Completed || !dark.Completed {
		t.Fatal("both should complete")
	}
	if dark.E2ELatency <= bright.E2ELatency {
		t.Fatalf("dark (%v) should be slower than bright (%v)", dark.E2ELatency, bright.E2ELatency)
	}
}

func TestBiggerPanelFaster(t *testing.T) {
	small, err := Run(harSetup(t, 2, 100e-6, solar.Bright()))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(harSetup(t, 20, 100e-6, solar.Bright()))
	if err != nil {
		t.Fatal(err)
	}
	if !small.Completed || !big.Completed {
		t.Fatal("both should complete")
	}
	if big.E2ELatency >= small.E2ELatency {
		t.Fatalf("20cm² (%v) should beat 2cm² (%v)", big.E2ELatency, small.E2ELatency)
	}
}

func TestHugeCapacitorLeakageUnavailability(t *testing.T) {
	// Figure 2(b): a 10mF capacitor under dim light leaks more than it
	// harvests — the inference never completes.
	es, err := energy.NewSolar(energy.Spec{PanelArea: 1, Cap: 10e-3}, solar.Dark())
	if err != nil {
		t.Fatal(err)
	}
	hw := msp430.Config{}.HW()
	plans, err := intermittent.PlanWorkload(dnn.FCNet(), dataflow.OS, hw, 0.05, intermittent.FixedBudget(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Energy: es, HW: hw, Plans: plans, MaxTime: 500, Step: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("leakage-dominated system should never complete")
	}
	if !math.IsInf(float64(res.E2ELatency), 1) {
		t.Fatal("latency should be +Inf for unavailable systems")
	}
	if res.Breakdown.CapLeakage <= 0 {
		t.Fatal("leakage should be recorded")
	}
}

func TestAnalyticAgreesWithStepSim(t *testing.T) {
	// The closed-form Eq. 5/7 estimate must track the step simulator
	// within ~25% on a charging-dominated scenario.
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	step, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ana := Analytic(cfg.Energy, cfg.Plans)
	if !ana.Completed {
		t.Fatal("analytic should deem this feasible")
	}
	ratio := float64(step.E2ELatency) / float64(ana.E2ELatency)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("step %v vs analytic %v (ratio %.2f)", step.E2ELatency, ana.E2ELatency, ratio)
	}
}

func TestAnalyticEfficiencyConsistent(t *testing.T) {
	// Regression: the analytic evaluator's SystemEfficiency must use the
	// same formula as the step simulator — (Infer + NVMIO) / Harvested —
	// with the NVM tile traffic split out of Infer, not folded into it.
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	tot := intermittent.Sum(cfg.Plans)
	ana := AnalyticTotals(cfg.Energy, tot)
	if !ana.Completed {
		t.Fatal("analytic should deem this feasible")
	}
	b := ana.Breakdown
	if b.NVMIO <= 0 {
		t.Fatalf("analytic NVMIO = %v, want > 0 (split out of Infer)", b.NVMIO)
	}
	if b.Infer <= 0 {
		t.Fatalf("analytic Infer = %v, want > 0", b.Infer)
	}
	// The load-side categories must still sum to the plans' total energy.
	sum := float64(b.Infer + b.NVMIO + b.Static + b.Ckpt)
	if got, want := sum, float64(tot.Energy); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("breakdown sum %g != plan total %g", got, want)
	}
	want := float64(b.Infer+b.NVMIO) / float64(b.Harvested)
	if ana.SystemEfficiency != want {
		t.Fatalf("analytic efficiency %g != (Infer+NVMIO)/Harvested %g", ana.SystemEfficiency, want)
	}
	// And the step simulator reports the same formula over its own flows.
	step, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb := step.Breakdown
	if got, want := step.SystemEfficiency, float64(sb.Infer+sb.NVMIO)/float64(sb.Harvested); got != want {
		t.Fatalf("step efficiency %g != (Infer+NVMIO)/Harvested %g", got, want)
	}
	// The two estimates of the same quantity must be in the same regime.
	ratio := step.SystemEfficiency / ana.SystemEfficiency
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("step efficiency %g vs analytic %g (ratio %.2f)", step.SystemEfficiency, ana.SystemEfficiency, ratio)
	}
}

func TestAnalyticUnavailability(t *testing.T) {
	es, err := energy.NewSolar(energy.Spec{PanelArea: 1, Cap: 10e-3}, solar.Dark())
	if err != nil {
		t.Fatal(err)
	}
	hw := msp430.Config{}.HW()
	plans, err := intermittent.PlanWorkload(dnn.FCNet(), dataflow.OS, hw, 0.05, intermittent.FixedBudget(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	res := Analytic(es, plans)
	if res.Completed || !math.IsInf(float64(res.E2ELatency), 1) {
		t.Fatalf("leakage > harvest should be infeasible, got %+v", res)
	}
}

func TestStartChargedSkipsFirstCharge(t *testing.T) {
	cold := harSetup(t, 4, 1e-3, solar.Bright())
	warm := harSetup(t, 4, 1e-3, solar.Bright())
	warm.StartCharged = true
	rc, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	if rw.E2ELatency >= rc.E2ELatency {
		t.Fatalf("warm start (%v) should beat cold start (%v)", rw.E2ELatency, rc.E2ELatency)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	a := harSetup(t, 8, 100e-6, solar.Bright())
	a.Jitter = 0.1
	a.Seed = 7
	b := harSetup(t, 8, 100e-6, solar.Bright())
	b.Jitter = 0.1
	b.Seed = 7
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.E2ELatency != rb.E2ELatency {
		t.Fatal("same seed must reproduce identical runs")
	}
	c := harSetup(t, 8, 100e-6, solar.Bright())
	c.Jitter = 0.1
	c.Seed = 8
	rcRes, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rcRes.E2ELatency == ra.E2ELatency && rcRes.Breakdown == ra.Breakdown {
		t.Fatal("different seeds should perturb the run")
	}
}

func TestBrownoutRetriesWithTinyCapacitor(t *testing.T) {
	// Under the dark environment the harvest cannot sustain the MSP430's
	// active draw, so a multi-millijoule workload needs several energy
	// cycles: expect multiple power cycles, but still completion.
	es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Dark())
	if err != nil {
		t.Fatal(err)
	}
	hw := msp430.Config{}.HW()
	budget, _ := es.CycleBudget(msp430.Config{}.ActivePower())
	if math.IsInf(float64(budget), 1) {
		t.Fatal("setup: expected a finite cycle budget in the dark")
	}
	plans, err := intermittent.PlanWorkload(dnn.HAR(), dataflow.OS, hw, 0.05, intermittent.FixedBudget(budget*0.9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Energy: es, HW: hw, Plans: plans, Step: 0.2e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("should complete despite brownouts: %+v", res)
	}
	if res.PowerCycles < 2 {
		t.Fatalf("expected multiple energy cycles, got %d", res.PowerCycles)
	}
}

func TestAccelWorkloadOnSim(t *testing.T) {
	// A future-AuT scenario: ResNet18 tiles on a 30cm² panel should
	// complete within the default horizon using the analytic path and a
	// coarse step sim.
	es, err := energy.NewSolar(energy.Spec{PanelArea: 30, Cap: 1e-3}, solar.Bright())
	if err != nil {
		t.Fatal(err)
	}
	cfgHW := dataflow.HW{
		NPE: 64, CacheBytes: 512, VMBytes: 140 * units.KB,
		EMAC: 16e-12, EVMPerByte: 2e-12, ENVMReadPerByte: 100e-12, ENVMWritePerByte: 200e-12,
		TMAC: 17e-9, NVMBytesPerSec: 300e6, PMemPerByte: 100e-12, PIdle: 150e-6,
	}
	eAvail := es.AvailablePerCycle(1)
	plans, err := intermittent.PlanWorkload(dnn.HAR(), dataflow.OS, cfgHW, 0.05, intermittent.FixedBudget(eAvail))
	if err != nil {
		t.Fatal(err)
	}
	res := Analytic(es, plans)
	if !res.Completed {
		t.Fatal("analytic says infeasible")
	}
}
