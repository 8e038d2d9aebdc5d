package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"chrysalis/internal/accel"
	"chrysalis/internal/explore"
	"chrysalis/internal/report"
)

// fig10Cell is one (network, arch, objective, method) search outcome.
type fig10Cell struct {
	workload  string
	arch      accel.Arch
	objective explore.Objective
	baseline  explore.Baseline
	value     float64
	outcome   *explore.Outcome
}

// runFig10 executes the full Figure 10 grid — one independent search
// per (network, arch, objective, method) cell, fanned out across
// workers.
func runFig10(o Options) ([]fig10Cell, error) {
	o = o.withDefaults()

	type job struct {
		idx  int
		sc   explore.Scenario
		b    explore.Baseline
		seed int64
		cell fig10Cell
	}
	var jobs []job
	seed := int64(0)
	for _, wl := range o.futureApps() {
		for _, arch := range accel.Arches() {
			for _, obj := range explore.Objectives() {
				a := arch
				sc := explore.Scenario{
					Workload:  wl,
					Platform:  explore.Accel,
					Objective: obj,
					Arch:      &a,
					MaxPanel:  20, // the paper's SP constraint regime
				}
				for _, b := range explore.Baselines() {
					seed++
					jobs = append(jobs, job{
						idx: len(jobs), sc: sc, b: b, seed: seed,
						cell: fig10Cell{
							workload: wl.Name, arch: arch, objective: obj, baseline: b,
							value: math.Inf(1),
						},
					})
				}
			}
		}
	}

	cells := make([]fig10Cell, len(jobs))
	workers := o.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	ch := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				cell := j.cell
				out, err := explore.Explore(context.TODO(), j.sc, j.b, o.ga(j.seed))
				if err == nil {
					cell.value = out.Value
					cell.outcome = &out
				}
				cells[j.idx] = cell
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return cells, nil
}

// Fig10 regenerates the baseline comparison: for every network ×
// architecture × objective, the best objective value found by
// CHRYSALIS and the six ablated methods of Table VI.
func Fig10(w io.Writer, o Options) error {
	cells, err := runFig10(o)
	if err != nil {
		return err
	}
	return renderFig10(w, cells)
}

func renderFig10(w io.Writer, cells []fig10Cell) error {
	// Group rows by (workload, arch); columns are methods per objective.
	type key struct {
		wl  string
		ar  accel.Arch
		obj explore.Objective
	}
	grid := map[key]map[explore.Baseline]float64{}
	for _, c := range cells {
		k := key{c.workload, c.arch, c.objective}
		if grid[k] == nil {
			grid[k] = map[explore.Baseline]float64{}
		}
		grid[k][c.baseline] = c.value
	}

	methods := explore.Baselines()
	for _, obj := range explore.Objectives() {
		headers := []string{"Network", "Arch"}
		for _, m := range methods {
			headers = append(headers, m.String())
		}
		t := report.NewTable(
			fmt.Sprintf("Figure 10 — objective %q (lower is better; %s)", obj, objectiveUnits(obj)),
			headers...)
		wins, rows := 0, 0
		for _, c := range cells {
			if c.objective != obj || c.baseline != explore.Full {
				continue
			}
			k := key{c.workload, c.arch, obj}
			row := []string{c.workload, c.arch.String()}
			full := grid[k][explore.Full]
			best := math.Inf(1)
			for _, m := range methods {
				v := grid[k][m]
				cell := fmtVal(v)
				if math.IsInf(v, 1) {
					cell = "inf"
				}
				row = append(row, cell)
				if m != explore.Full && v < best {
					best = v
				}
			}
			rows++
			if full <= best*1.001 {
				wins++
			}
			t.AddRow(row...)
		}
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "CHRYSALIS best-or-tied in %d/%d scenarios for %q.\n\n", wins, rows, obj)
	}

	// The paper's two aggregate observations.
	latImp := aggregateImprovement(cells, explore.Lat, explore.WoIA)
	spImp := aggregateImprovement(cells, explore.SP, explore.WoIA)
	if !math.IsNaN(latImp) {
		fmt.Fprintf(w, "Under the SP constraint, full co-design cuts latency by %.1f%% on average vs wo/IA\n", latImp)
	}
	if !math.IsNaN(spImp) {
		fmt.Fprintf(w, "Under the latency constraint, panel area shrinks by %.1f%% on average vs wo/IA\n", spImp)
	}
	return nil
}

func objectiveUnits(o explore.Objective) string {
	switch o {
	case explore.Lat:
		return "seconds"
	case explore.SP:
		return "cm²"
	default:
		return "cm²·s"
	}
}

// aggregateImprovement averages (base-full)/base over scenarios of one
// objective against one baseline.
func aggregateImprovement(cells []fig10Cell, obj explore.Objective, base explore.Baseline) float64 {
	type key struct {
		wl string
		ar accel.Arch
	}
	full := map[key]float64{}
	ref := map[key]float64{}
	for _, c := range cells {
		if c.objective != obj {
			continue
		}
		k := key{c.workload, c.arch}
		switch c.baseline {
		case explore.Full:
			full[k] = c.value
		case base:
			ref[k] = c.value
		}
	}
	var sum float64
	var n int
	for k, f := range full {
		r, ok := ref[k]
		if !ok || math.IsInf(r, 1) || math.IsInf(f, 1) || r <= 0 {
			continue
		}
		sum += (r - f) / r * 100
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Fig11 regenerates the energy-efficiency comparison: E_infer/E_eh of
// the lat*sp winners found by each method.
func Fig11(w io.Writer, o Options) error {
	o = o.withDefaults()
	headers := []string{"Network", "Arch"}
	for _, m := range explore.Baselines() {
		headers = append(headers, m.String())
	}
	t := report.NewTable("Figure 11 — energy efficiency E_infer/E_eh of lat*sp winners (bright)", headers...)

	seed := int64(100)
	chrysalisSum, chrysalisN := 0.0, 0
	otherSum, otherN := 0.0, 0
	for _, wl := range o.futureApps() {
		for _, arch := range accel.Arches() {
			a := arch
			sc := explore.Scenario{
				Workload: wl, Platform: explore.Accel,
				Objective: explore.LatSP, Arch: &a, MaxPanel: 20,
			}
			row := []string{wl.Name, arch.String()}
			for _, b := range explore.Baselines() {
				seed++
				out, err := explore.Explore(context.TODO(), sc, b, o.ga(seed))
				if err != nil {
					row = append(row, "inf")
					continue
				}
				eff := brightEfficiency(out.Best)
				row = append(row, fmt.Sprintf("%.1f%%", eff*100))
				if b == explore.Full {
					chrysalisSum += eff
					chrysalisN++
				} else {
					otherSum += eff
					otherN++
				}
			}
			t.AddRow(row...)
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if chrysalisN > 0 && otherN > 0 {
		fmt.Fprintf(w, "\nmean efficiency: CHRYSALIS %.1f%% vs other methods %.1f%%\n",
			chrysalisSum/float64(chrysalisN)*100, otherSum/float64(otherN)*100)
	}
	return nil
}

func brightEfficiency(ev explore.Evaluation) float64 {
	for _, e := range ev.PerEnv {
		if e.Env == "bright" {
			return e.Efficiency
		}
	}
	return 0
}

// Headline computes the paper's summary claim: the average performance
// improvement of full EA/IA co-design over the ablated design
// methodologies, across the Figure 10 scenarios (the paper reports
// 56.4% on its grid).
func Headline(w io.Writer, o Options) error {
	cells, err := runFig10(o)
	if err != nil {
		return err
	}
	t := report.NewTable("Headline — average improvement of CHRYSALIS vs each ablation",
		"Baseline", "Avg improvement (lat objective)", "Avg improvement (lat*sp objective)")
	var total float64
	var n int
	for _, b := range explore.Baselines() {
		if b == explore.Full {
			continue
		}
		lat := aggregateImprovement(cells, explore.Lat, b)
		lsp := aggregateImprovement(cells, explore.LatSP, b)
		t.AddRow(b.String(), fmt.Sprintf("%.1f%%", lat), fmt.Sprintf("%.1f%%", lsp))
		for _, v := range []float64{lat, lsp} {
			if !math.IsNaN(v) {
				total += v
				n++
			}
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if n > 0 {
		fmt.Fprintf(w, "\noverall average improvement: %.1f%% (paper reports 56.4%% on its configuration grid)\n",
			total/float64(n))
	}
	return nil
}
