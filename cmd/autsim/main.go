// Command autsim runs a single AuT configuration through the
// fixed-step co-simulator and prints the run summary with an energy
// breakdown — useful for inspecting one design point in detail (the
// CHRYSALIS Evaluator exposed directly).
//
// Examples:
//
//	autsim -workload har -panel 8 -cap 100e-6
//	autsim -workload resnet18 -arch eyeriss -pe 128 -cache 1024 -panel 20 -cap 1e-3 -env dark
package main

import (
	"flag"
	"fmt"
	"os"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/explore"
	"chrysalis/internal/msp430"
	"chrysalis/internal/report"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

func main() {
	var (
		workload = flag.String("workload", "har", "workload name")
		arch     = flag.String("arch", "", "accelerator architecture (tpu or eyeriss); empty = MSP430")
		pe       = flag.Int("pe", 64, "PE count (accelerator only)")
		cache    = flag.Int("cache", 512, "PE cache bytes (accelerator only)")
		panel    = flag.Float64("panel", 8, "solar panel area in cm²")
		capF     = flag.Float64("cap", 100e-6, "capacitor size in farads")
		envName  = flag.String("env", "bright", "environment: bright or dark")
		step     = flag.Float64("step", 1e-3, "simulation step in seconds")
		jitter   = flag.Float64("jitter", 0, "per-tile energy jitter fraction (platform noise)")
		seed     = flag.Uint64("seed", 1, "jitter seed")
		policy   = flag.String("policy", "every-tile", "checkpoint policy: every-tile, adaptive or none")
		traceN   = flag.Int("trace", 0, "print up to N simulator events")
		waveform = flag.Bool("waveform", false, "plot the capacitor voltage waveform")
		analyze  = flag.Bool("analyze", false, "print the per-layer cost profile and exit")
	)
	flag.Parse()

	wl, err := dnn.ByName(*workload)
	if err != nil {
		fatal(err)
	}
	var env solar.Environment
	switch *envName {
	case "bright":
		env = solar.Bright()
	case "dark":
		env = solar.Dark()
	default:
		fatal(fmt.Errorf("unknown environment %q", *envName))
	}

	sc := explore.Scenario{
		Workload:  wl,
		Platform:  explore.MSP,
		Objective: explore.Lat,
		Envs:      []solar.Environment{env},
	}
	cand := explore.Candidate{
		PanelArea: units.AreaCM2(*panel),
		Cap:       units.Capacitance(*capF),
	}
	if *arch != "" {
		a, err := accel.ParseArch(*arch)
		if err != nil {
			fatal(err)
		}
		cfg := accel.Config{Arch: a, NPE: *pe, CacheBytes: units.Bytes(*cache)}
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		sc.Platform = explore.Accel
		cand.Accel = &cfg
	}

	if *analyze {
		df, hw := dataflow.OS, msp430.Config{}.HW()
		if ac := cand.Accel; ac != nil {
			df = ac.NativeDataflow()
			if hw, err = ac.HW(df); err != nil {
				fatal(err)
			}
		}
		rows, err := dataflow.Analyze(wl, df, hw)
		if err != nil {
			fatal(err)
		}
		t := report.NewTable(fmt.Sprintf("per-layer profile: %s (%s dataflow)", wl.Name, df),
			"Layer", "Kind", "MACs", "AI (MACs/B)", "Mapping", "Energy", "Time", "E share", "T share")
		for _, r := range rows {
			t.AddRow(r.Layer, r.Kind,
				fmt.Sprintf("%d", r.MACs),
				fmt.Sprintf("%.1f", r.ArithmeticIntensity),
				fmt.Sprintf("%s/%d", r.Mapping.Partition, r.Mapping.NTile),
				r.Energy.String(), r.Time.String(),
				fmt.Sprintf("%.0f%%", r.EnergyShare*100),
				fmt.Sprintf("%.0f%%", r.TimeShare*100))
		}
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	ev, err := explore.EvaluateCandidate(sc, cand)
	if err != nil {
		fatal(err)
	}
	simCfg, err := ev.SimConfig(env)
	if err != nil {
		fatal(err)
	}
	var pol sim.Policy
	switch *policy {
	case "every-tile":
		pol = sim.PolicyEveryTile
	case "adaptive":
		pol = sim.PolicyAdaptive
	case "none":
		pol = sim.PolicyNone
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	var rec sim.EventRecorder
	rec.Max = *traceN
	simCfg.Step, simCfg.Jitter, simCfg.Seed = units.Seconds(*step), *jitter, *seed
	simCfg.Policy = pol
	if *traceN > 0 {
		simCfg.Trace = rec.Trace
	}
	var wave *sim.Recorder
	if *waveform {
		wave = sim.NewRecorder(0)
		simCfg.Record = wave
	}
	run, err := sim.Run(simCfg)
	if err != nil {
		fatal(err)
	}
	if *traceN > 0 {
		fmt.Printf("event trace (first %d of %d+):\n", len(rec.Events), len(rec.Events)+rec.Dropped)
		for _, e := range rec.Events {
			fmt.Printf("  %-10v %-11s tile=%-3d layer=%-3d V=%v\n", e.Time, e.Kind, e.Tile, e.Layer, e.Voltage)
		}
		fmt.Println()
	}

	fmt.Printf("autsim: %s on %s — panel %v, cap %v, env %s\n\n",
		wl.Name, cand, cand.PanelArea, cand.Cap, env.Name())
	fmt.Printf("completed:      %v\n", run.Completed)
	fmt.Printf("e2e latency:    %v (analytic estimate %v)\n", run.E2ELatency, ev.PerEnv[0].Latency)
	fmt.Printf("active time:    %v\n", run.ActiveTime)
	fmt.Printf("power cycles:   %d\n", run.PowerCycles)
	fmt.Printf("checkpoints:    %d saves, %d resumes, %d tile retries\n",
		run.Checkpoints, run.Resumes, run.TileRetries)
	fmt.Printf("system eff.:    %.1f%%\n\n", run.SystemEfficiency*100)

	if wave != nil {
		vcap := wave.Waveform().Channels[sim.ChVCap].Points
		times := make([]float64, len(vcap))
		volts := make([]float64, len(vcap))
		for i, p := range vcap {
			times[i], volts[i] = p.T, p.Last
		}
		fmt.Println("capacitor voltage waveform:")
		fmt.Println(report.Waveform(times, volts, 70, 10))
		fmt.Println()
	}

	b := run.Breakdown
	total := float64(b.Delivered())
	if total > 0 {
		fmt.Println("load-side energy breakdown:")
		fmt.Println(report.Bar("infer", float64(b.Infer)/total, 40))
		fmt.Println(report.Bar("nvm i/o", float64(b.NVMIO)/total, 40))
		fmt.Println(report.Bar("static", float64(b.Static)/total, 40))
		fmt.Println(report.Bar("checkpoint", float64(b.Ckpt)/total, 40))
		fmt.Println(report.Bar("wasted", float64(b.Wasted)/total, 40))
	}
	if h := float64(b.Harvested); h > 0 {
		fmt.Println("\nharvest-side energy:")
		fmt.Println(report.Bar("to load", total/h, 40))
		fmt.Println(report.Bar("conversion", float64(b.ConversionLoss)/h, 40))
		fmt.Println(report.Bar("cap leakage", float64(b.CapLeakage)/h, 40))
		fmt.Println(report.Bar("spilled", float64(b.SpilledHarvest)/h, 40))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autsim:", err)
	os.Exit(1)
}
