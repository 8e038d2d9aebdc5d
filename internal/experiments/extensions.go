package experiments

// Extension experiments beyond the paper's figures, exercising the
// Sec. III-D component extensions implemented in this repository:
// checkpoint-policy comparison, diurnal day-scale deployment, and
// temperature coupling.

import (
	"context"
	"fmt"
	"io"
	"math"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/explore"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/msp430"
	"chrysalis/internal/report"
	"chrysalis/internal/search"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
	"chrysalis/internal/storage"
	"chrysalis/internal/thermal"
	"chrysalis/internal/units"
)

// simConfigFor builds a step-sim config for an MSP design point under
// one environment.
func simConfigFor(wl dnn.Workload, panel units.AreaCM2, capC units.Capacitance, env solar.Environment) (sim.Config, error) {
	sc := explore.Scenario{
		Workload: wl, Platform: explore.MSP,
		Objective: explore.Lat, Envs: []solar.Environment{env},
	}
	ev, err := explore.EvaluateCandidate(sc, explore.Candidate{PanelArea: panel, Cap: capC})
	if err != nil {
		return sim.Config{}, err
	}
	es, err := energy.NewSolar(energy.Spec{PanelArea: panel, Cap: capC}, env)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Energy: es, HW: mspHW(), Plans: plansOf(ev)}, nil
}

// ExtPolicy compares checkpoint policies (every-tile, adaptive, none)
// under stable and intermittent power — the design axis separating the
// Table I platform families.
func ExtPolicy(w io.Writer, o Options) error {
	t := report.NewTable("Extension — checkpoint policies (HAR on MSP430, 8cm², 100uF)",
		"Environment", "Policy", "E2E lat", "Saves", "Retries", "Ckpt E", "Wasted E")
	envs := []solar.Environment{solar.Bright(), solar.Dark()}
	for _, env := range envs {
		for _, pol := range []sim.Policy{sim.PolicyEveryTile, sim.PolicyAdaptive, sim.PolicyNone} {
			cfg, err := simConfigFor(dnn.HAR(), 8, 100e-6, env)
			if err != nil {
				return err
			}
			cfg.Policy = pol
			cfg.Step = 0.5e-3
			cfg.MaxTime = 300
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			lat := fmtLat(res.E2ELatency)
			if !res.Completed {
				lat = "never completes"
			}
			t.AddRow(env.Name(), pol.String(), lat,
				fmt.Sprintf("%d", res.Checkpoints), fmt.Sprintf("%d", res.TileRetries),
				res.Breakdown.Ckpt.String(), res.Breakdown.Wasted.String())
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nadaptive saves less checkpoint energy under stable power; without checkpoints")
	fmt.Fprintln(w, "the inference cannot survive power cycling — the case for intermittent-aware design.")
	return nil
}

// ExtDayRun simulates a whole artificial day of back-to-back inferences
// under a diurnal light profile with a day/night temperature swing —
// the deployment view of a designed AuT.
func ExtDayRun(w io.Writer, o Options) error {
	const dayLen = 600 // compressed "day" for tractable simulation
	day, err := solar.NewDiurnal(solar.KehBright, 0, dayLen)
	if err != nil {
		return err
	}
	hot, err := thermal.NewDeratedEnvironment(day, thermal.DayNight{
		MeanC: 30, SwingC: 12, PeakAt: dayLen / 2, Period: 2 * dayLen,
	})
	if err != nil {
		return err
	}

	t := report.NewTable("Extension — day-scale deployment (HAR, 12cm², 470uF, compressed diurnal day)",
		"Scenario", "Inferences done", "Throughput (inf/h)", "Harvested", "Leaked", "Wasted retries")
	for _, sc := range []struct {
		name string
		env  solar.Environment
	}{
		{"clear day", day},
		{"hot day (PV derated)", hot},
	} {
		cfg, err := simConfigFor(dnn.HAR(), 12, 470e-6, solar.Bright())
		if err != nil {
			return err
		}
		es, err := energy.NewSolar(energy.Spec{PanelArea: 12, Cap: 470e-6}, sc.env)
		if err != nil {
			return err
		}
		cfg.Energy = es
		cfg.MaxTime = dayLen
		sr, err := sim.RunSeries(cfg, 10_000, 2)
		if err != nil {
			return err
		}
		t.AddRow(sc.name, fmt.Sprintf("%d", sr.Completed),
			fmt.Sprintf("%.0f", sr.ThroughputPerHour),
			sr.Energy.Harvested.String(), sr.Energy.CapLeakage.String(),
			sr.Energy.Wasted.String())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nthe device works while light lasts and stalls at night; heat derates the panel")
	fmt.Fprintln(w, "and trims daily throughput.")
	return nil
}

// ExtThermal sweeps ambient temperature and reports its effect on
// latency through the two couplings (PV derating and capacitor
// leakage inflation).
func ExtThermal(w io.Writer, o Options) error {
	t := report.NewTable("Extension — temperature coupling (HAR, 8cm², 1mF, bright)",
		"Ambient", "PV factor", "k_cap factor", "E2E lat")
	base := math.Inf(1)
	for _, temp := range []float64{0, 15, 25, 40, 55, 70} {
		env, err := thermal.NewDeratedEnvironment(solar.Bright(), thermal.Constant{C: temp})
		if err != nil {
			return err
		}
		sc := explore.Scenario{
			Workload: dnn.HAR(), Platform: explore.MSP,
			Objective: explore.Lat, Envs: []solar.Environment{env},
		}
		ev, err := explore.EvaluateCandidate(sc, explore.Candidate{PanelArea: 8, Cap: 1e-3})
		if err != nil {
			return err
		}
		es, err := energy.NewSolar(energy.Spec{
			PanelArea: 8, Cap: 1e-3,
			Kcap: thermal.AdjustedKcap(0, temp),
		}, env)
		if err != nil {
			return err
		}
		res, err := sim.Run(sim.Config{Energy: es, HW: mspHW(), Plans: plansOf(ev), Step: 2e-3})
		if err != nil {
			return err
		}
		lat := fmtLat(res.E2ELatency)
		if temp == 25 {
			base = float64(res.E2ELatency)
		}
		t.AddRow(fmt.Sprintf("%.0f°C", temp),
			fmt.Sprintf("%.2f", thermal.PVFactor(temp)),
			fmt.Sprintf("%.2f", thermal.LeakageFactor(temp)),
			lat)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if !math.IsInf(base, 1) {
		fmt.Fprintln(w, "\nlatency grows on both sides of the 25°C rating point once leakage inflation")
		fmt.Fprintln(w, "(hot) or the scenario's light profile dominates — temperature belongs in the spec.")
	}
	return nil
}

// ExtRobustness quantifies seed-to-seed search variance: the GA and
// random sampling repeated across seeds on one scenario at equal
// budgets.
func ExtRobustness(w io.Writer, o Options) error {
	o = o.withDefaults()
	sc := explore.Scenario{Workload: dnn.HAR(), Platform: explore.MSP, Objective: explore.LatSP}

	t := report.NewTable("Extension — search robustness across 8 seeds (HAR, lat*sp)",
		"Sampler", "Mean", "Std", "Min", "Max", "Feasible")
	const reps = 8
	for _, alg := range []string{"ga", "random"} {
		values := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			cfg := o.ga(int64(i) * 13)
			if alg == "random" {
				cfg.MutRate = 1
				cfg.MutSigma = 10
				cfg.Elite = 0
				cfg.TournamentK = 1
			}
			out, err := explore.Explore(context.TODO(), sc, explore.Full, cfg)
			if err != nil {
				values = append(values, math.Inf(1))
				continue
			}
			values = append(values, out.Value)
		}
		s := search.Summarize(values)
		t.AddRow(alg, fmt.Sprintf("%.4g", s.Mean), fmt.Sprintf("%.2g", s.Std),
			fmt.Sprintf("%.4g", s.Min), fmt.Sprintf("%.4g", s.Max),
			fmt.Sprintf("%d/%d", s.Feasible, s.Runs))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nthe GA's spread across seeds stays tight relative to its mean, supporting the")
	fmt.Fprintln(w, "paper's single-search-per-scenario methodology.")
	return nil
}

// ExtStorage compares capacitor technologies at matched sizes: ceramic
// rescues the mid-size regime with an order of magnitude less leakage,
// while supercaps extend storage at the cost of self-discharge.
func ExtStorage(w io.Writer, o Options) error {
	t := report.NewTable("Extension — storage technologies (HAR, 8cm², bright)",
		"Technology", "Size", "k_cap", "E2E lat", "Leak E", "Sys eff")
	cases := []struct {
		tech storage.Tech
		size units.Capacitance
	}{
		{storage.Electrolytic, 47e-6},
		{storage.Ceramic, 47e-6},
		{storage.Electrolytic, 4.7e-3},
		{storage.Supercap, 4.7e-3},
	}
	for _, c := range cases {
		ts, err := storage.SpecFor(c.tech)
		if err != nil {
			return err
		}
		sc := explore.Scenario{
			Workload: dnn.HAR(), Platform: explore.MSP,
			Objective: explore.Lat, Envs: brightOnly(),
		}
		ev, err := explore.EvaluateCandidate(sc, explore.Candidate{PanelArea: 8, Cap: c.size})
		if err != nil {
			return err
		}
		es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: c.size, Storage: c.tech}, solar.Bright())
		if err != nil {
			return err
		}
		res, err := sim.Run(sim.Config{Energy: es, HW: mspHW(), Plans: plansOf(ev), Step: 2e-3})
		if err != nil {
			return err
		}
		t.AddRow(c.tech.String(), c.size.String(), fmt.Sprintf("%.3f", ts.Kcap),
			fmtLat(res.E2ELatency), res.Breakdown.CapLeakage.String(),
			fmt.Sprintf("%.1f%%", res.SystemEfficiency*100))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nchemistry matters as much as size: at 4.7mF the supercap's self-discharge")
	fmt.Fprintln(w, "widens the latency gap, while ceramic parts make mid-size buffers nearly lossless.")
	return nil
}

// ExtSpace quantifies the paper's combinatorial-explosion claim: the
// number of candidate configurations per workload. The paper samples
// 10^4 hardware points and 100 mapping points per layer, for a
// 10^(4+2n) space; this table also counts the exact discrete mapping
// space our describers expose.
func ExtSpace(w io.Writer, o Options) error {
	t := report.NewTable("Extension — design-space cardinality",
		"Workload", "Layers n", "Paper-style 10^(4+2n)", "Exact mapping combos (log10)", "Per-layer choices (min..max)")
	all := append(dnn.ExistingAuT(), dnn.FutureAuT()...)
	for _, wl := range all {
		dfCount := 3
		if wl.ElemBytes == 2 {
			dfCount = 1 // MSP platform: single-PE, dataflow degenerates
		}
		logCombos := 0.0
		minC, maxC := math.MaxInt, 0
		for _, l := range wl.Layers {
			choices := 0
			for _, part := range []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial} {
				choices += dfCount * len(dataflow.CandidateNTiles(l, part))
			}
			if choices < minC {
				minC = choices
			}
			if choices > maxC {
				maxC = choices
			}
			logCombos += math.Log10(float64(choices))
		}
		n := len(wl.Layers)
		t.AddRow(wl.Name, fmt.Sprintf("%d", n),
			fmt.Sprintf("10^%d", 4+2*n),
			fmt.Sprintf("%.1f", logCombos),
			fmt.Sprintf("%d..%d", minC, maxC))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\neven the exact discrete mapping space spans tens of orders of magnitude once")
	fmt.Fprintln(w, "combined with the continuous hardware dimensions — hence the bi-level GA.")
	return nil
}

// ExtLEA quantifies the low-energy accelerator's contribution on the
// existing-AuT platform: the same workloads with the LEA disabled run
// on the bare CPU (the Table III "Infer Controller" without its
// vector unit).
func ExtLEA(w io.Writer, o Options) error {
	t := report.NewTable("Extension — LEA ablation (8cm², 100uF, bright)",
		"Workload", "With LEA", "CPU only", "Slowdown")
	for _, wl := range o.withDefaults().existingApps() {
		row := []string{wl.Name}
		var lats [2]float64
		for i, cfgMSP := range []msp430.Config{{}, {DisableLEA: true}} {
			hw := cfgMSP.HW()
			es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Bright())
			if err != nil {
				return err
			}
			budget := func(load units.Power) units.Energy {
				b, _ := es.CycleBudget(load)
				if math.IsInf(float64(b), 1) {
					return 1e6
				}
				return b * 0.9
			}
			plans, err := intermittent.PlanWorkload(wl, dataflow.OS, hw, 0.05, budget)
			if err != nil {
				row = append(row, "unmappable")
				lats[i] = math.Inf(1)
				continue
			}
			res := sim.Analytic(es, plans)
			row = append(row, fmtLat(res.E2ELatency))
			lats[i] = float64(res.E2ELatency)
		}
		if !math.IsInf(lats[0], 1) && !math.IsInf(lats[1], 1) {
			row = append(row, fmt.Sprintf("%.1fx", lats[1]/lats[0]))
		} else {
			row = append(row, "-")
		}
		t.AddRow(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nthe LEA's vector unit carries the platform: without it the energy per inference")
	fmt.Fprintln(w, "grows several-fold and the charging time with it.")
	return nil
}
