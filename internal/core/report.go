package core

import (
	"fmt"
	"strings"

	"chrysalis/internal/report"
	"chrysalis/internal/units"
)

// Report renders a designed AuT as a pre-RTL design reference document
// (the paper positions CHRYSALIS as "providing pre-RTL level design
// references for AuT accelerator development"): the chosen hardware,
// the per-layer intermittent mapping, per-environment metrics, and the
// verified step-simulation summary when available.
func Report(spec Spec, res Result) (string, error) {
	w, err := spec.resolveWorkload()
	if err != nil {
		return "", err
	}
	var b strings.Builder

	fmt.Fprintf(&b, "CHRYSALIS pre-RTL design reference\n")
	fmt.Fprintf(&b, "==================================\n\n")
	fmt.Fprintf(&b, "workload:   %s (%d layers, %d params, %.3g MACs)\n",
		w.Name, len(w.Layers), w.TotalParams(), float64(w.TotalMACs()))
	fmt.Fprintf(&b, "objective:  %s (search space: %s, %d evaluations)\n\n",
		res.Objective, res.Baseline, res.Evals)

	hw := report.NewTable("Hardware configuration", "Subsystem", "Component", "Value")
	hw.AddRow("energy", "solar panel", res.PanelArea.String())
	hw.AddRow("energy", "capacitor", res.Cap.String())
	hw.AddRow("energy", "PMIC", "BQ25570-class, U_on=3.0V, U_off=1.8V")
	if res.InferHW == "msp430" {
		hw.AddRow("inference", "platform", "MSP430FR5994 + LEA")
		hw.AddRow("inference", "VM / NVM", "8KB SRAM / 256KB FRAM")
	} else {
		hw.AddRow("inference", "architecture", res.InferHW)
		hw.AddRow("inference", "PE count", fmt.Sprintf("%d", res.NPE))
		hw.AddRow("inference", "PE cache", res.CacheBytes.String())
	}
	if err := hw.Render(&b); err != nil {
		return "", err
	}
	b.WriteString("\n")

	df := report.NewTable("Per-layer intermittent mapping",
		"Layer", "Dataflow", "Partition", "N_tile", "Checkpoint")
	var totalTiles int
	var totalCkpt units.Bytes
	for _, d := range res.Dataflow {
		df.AddRow(d.Layer, d.Dataflow, d.Partition,
			fmt.Sprintf("%d", d.NTile), d.CkptBytes.String())
		totalTiles += d.NTile
		totalCkpt += d.CkptBytes
	}
	if err := df.Render(&b); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "total: %d tiles; peak checkpoint %s\n\n", totalTiles, maxCkpt(res).String())

	env := report.NewTable("Predicted metrics per environment",
		"Environment", "E2E latency", "Energy/inference", "System efficiency")
	for _, e := range res.PerEnv {
		env.AddRow(e.Env, e.Latency.String(), e.Energy.String(),
			fmt.Sprintf("%.1f%%", e.Efficiency*100))
	}
	if err := env.Render(&b); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "average latency %v; space-time cost %.3g cm²·s\n\n", res.AvgLatency, res.LatSP)

	b.WriteString("Mapping loop nests (Fig. 4 style)\n")
	b.WriteString("---------------------------------\n")
	for _, d := range res.Dataflow {
		for _, line := range d.LoopNest {
			b.WriteString(line + "\n")
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// maxCkpt returns the largest per-layer checkpoint, which sizes the
// reserved NVM checkpoint region.
func maxCkpt(res Result) units.Bytes {
	var m units.Bytes
	for _, d := range res.Dataflow {
		if d.CkptBytes > m {
			m = d.CkptBytes
		}
	}
	return m
}

// ReportWithVerification extends Report with a step-simulator replay
// under the first environment.
func ReportWithVerification(spec Spec, res Result) (string, error) {
	base, err := Report(spec, res)
	if err != nil {
		return "", err
	}
	run, err := Verify(spec, res)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteString("Step-simulator verification (first environment)\n")
	b.WriteString("-----------------------------------------------\n")
	fmt.Fprintf(&b, "completed:      %v\n", run.Completed)
	fmt.Fprintf(&b, "e2e latency:    %v\n", run.E2ELatency)
	fmt.Fprintf(&b, "power cycles:   %d\n", run.PowerCycles)
	fmt.Fprintf(&b, "checkpoints:    %d saves, %d resumes, %d retries\n",
		run.Checkpoints, run.Resumes, run.TileRetries)
	fmt.Fprintf(&b, "system eff.:    %.1f%%\n", run.SystemEfficiency*100)
	fmt.Fprintf(&b, "energy:         %v inference, %v NVM I/O, %v static, %v checkpoint, %v wasted\n",
		run.Breakdown.Infer, run.Breakdown.NVMIO, run.Breakdown.Static,
		run.Breakdown.Ckpt, run.Breakdown.Wasted)
	return b.String(), nil
}
