package experiments

import (
	"fmt"
	"io"
	"math"

	"chrysalis/internal/explore"
	"chrysalis/internal/report"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// Fig8 regenerates the solar-panel sizing rationality study: with the
// capacitor fixed at 100 µF, sweep the panel area for each Table IV
// application and report the energy breakdown (checkpoint overhead
// shrinks as panels grow) and system efficiency (which collapses once
// the harvest outruns the inference).
func Fig8(w io.Writer, o Options) error {
	o = o.withDefaults()
	const cap100 = 100e-6
	panels := []units.AreaCM2{2, 4, 8, 16, 24, 30}

	for _, app := range o.existingApps() {
		t := report.NewTable(
			fmt.Sprintf("Figure 8 — %s, capacitor fixed at 100uF (bright)", app.Name),
			"Panel", "E2E lat", "Infer E", "Ckpt E", "Static E", "Leak E", "Sys eff", "lat*sp")
		sc := explore.Scenario{
			Workload: app, Platform: explore.MSP,
			Objective: explore.Lat, Envs: brightOnly(),
		}
		bestLatSP := math.Inf(1)
		var bestPanel units.AreaCM2
		var prevCkptFrac float64 = -1
		ckptShrinks := true
		for _, sp := range panels {
			cand := explore.Candidate{PanelArea: sp, Cap: cap100}
			run, err := simBreakdown(sc, cand, solar.Bright())
			if err != nil {
				t.AddRow(sp.String(), "unmappable", "-", "-", "-", "-", "-", "-")
				continue
			}
			if !run.Completed {
				t.AddRow(sp.String(), "unavailable", "-", "-", "-", "-", "-", "-")
				continue
			}
			b := run.Breakdown
			latsp := float64(run.E2ELatency) * float64(sp)
			if latsp < bestLatSP {
				bestLatSP = latsp
				bestPanel = sp
			}
			total := float64(b.Delivered())
			ckptFrac := float64(b.Ckpt) / total
			if prevCkptFrac >= 0 && ckptFrac > prevCkptFrac*1.25 {
				ckptShrinks = false
			}
			prevCkptFrac = ckptFrac
			t.AddRow(sp.String(), fmtLat(run.E2ELatency),
				b.Infer.String(), b.Ckpt.String(), b.Static.String(), b.CapLeakage.String(),
				fmt.Sprintf("%.1f%%", run.SystemEfficiency*100), fmtVal(latsp))
		}
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "preferable panel for %s (min lat*sp): %v\n", app.Name, bestPanel)
		if ckptShrinks {
			fmt.Fprintln(w, "checkpoint share decreases with panel size, as the paper observes.")
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig9 regenerates the capacitor sizing rationality study: with the
// panel fixed at 8 cm², sweep the capacitor for each application.
// Small capacitors inflate checkpoint overhead (frequent cycles);
// large ones leak (Cap. Leakage); the preferable size minimizes
// latency.
func Fig9(w io.Writer, o Options) error {
	o = o.withDefaults()
	const panel8 units.AreaCM2 = 8
	caps := []units.Capacitance{10e-6, 47e-6, 100e-6, 470e-6, 1e-3, 4.7e-3, 10e-3}

	for _, app := range o.existingApps() {
		t := report.NewTable(
			fmt.Sprintf("Figure 9 — %s, solar panel fixed at 8cm² (bright)", app.Name),
			"Capacitor", "E2E lat", "Ckpt E", "Cap leakage", "Cycles", "Sys eff")
		sc := explore.Scenario{
			Workload: app, Platform: explore.MSP,
			Objective: explore.Lat, Envs: brightOnly(),
		}
		bestLat := math.Inf(1)
		var bestCap units.Capacitance
		var firstCkpt, lastLeak units.Energy
		for i, c := range caps {
			cand := explore.Candidate{PanelArea: panel8, Cap: c}
			run, err := simBreakdown(sc, cand, solar.Bright())
			if err != nil {
				t.AddRow(c.String(), "unmappable", "-", "-", "-", "-")
				continue
			}
			if !run.Completed {
				t.AddRow(c.String(), "unavailable", run.Breakdown.Ckpt.String(),
					run.Breakdown.CapLeakage.String(), fmt.Sprintf("%d", run.PowerCycles), "-")
				continue
			}
			b := run.Breakdown
			if l := float64(run.E2ELatency); l < bestLat {
				bestLat = l
				bestCap = c
			}
			if i == 0 {
				firstCkpt = b.Ckpt
			}
			lastLeak = b.CapLeakage
			t.AddRow(c.String(), fmtLat(run.E2ELatency), b.Ckpt.String(), b.CapLeakage.String(),
				fmt.Sprintf("%d", run.PowerCycles), fmt.Sprintf("%.1f%%", run.SystemEfficiency*100))
		}
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "preferable capacitor for %s (min latency): %v\n", app.Name, bestCap)
		if firstCkpt > 0 && lastLeak > 0 {
			fmt.Fprintln(w, "small caps pay checkpoint overhead; large caps pay leakage — the paper's U-shape.")
		}
		fmt.Fprintln(w)
	}
	return nil
}
