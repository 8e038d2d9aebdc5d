package experiments

import (
	"fmt"
	"math"

	"chrysalis/internal/core"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/energy"
	"chrysalis/internal/explore"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/msp430"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// coreComponents adapts the Table III inventory for rendering.
func coreComponents() [][4]string {
	var rows [][4]string
	for _, c := range core.Components() {
		rows = append(rows, [4]string{c.Subsystem, c.Component, c.Realization, c.BaseModel})
	}
	return rows
}

// stepReplay replays an evaluation under env on the fixed-step
// simulator at the 2 ms step the Figure 8/9 sweeps use.
func stepReplay(ev explore.Evaluation, env solar.Environment) (sim.Result, error) {
	cfg, err := ev.SimConfig(env)
	if err != nil {
		return sim.Result{}, err
	}
	cfg.Step = 2e-3
	return sim.Run(cfg)
}

// evaluateConservative evaluates a candidate the way pre-CHRYSALIS
// systems ran: the finest feasible tiling per layer (HAWAII-style
// "checkpoint every footprint"), with no hardware-aware tile sizing.
// It is the iNAS-style reference the paper compares against in
// Figures 6 and 7.
func evaluateConservative(sc explore.Scenario, cand explore.Candidate) (explore.Evaluation, units.Seconds, error) {
	scd := sc
	if scd.Envs == nil {
		scd.Envs = []solar.Environment{solar.Bright(), solar.Dark()}
	}
	hw := msp430.Config{}.HW()
	w := sc.Workload
	var plans []intermittent.Plan
	for _, l := range w.Layers {
		var chosen *intermittent.Plan
		// Walk candidate tilings from finest to coarsest and keep the
		// first that fits VM.
		for _, part := range []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial} {
			cands := dataflow.CandidateNTiles(l, part)
			for i := len(cands) - 1; i >= 0; i-- {
				m := dataflow.Mapping{Dataflow: dataflow.OS, Partition: part, NTile: cands[i]}
				p, err := intermittent.PlanLayer(l, w.ElemBytes, m, hw, sc.Rexc)
				if err != nil {
					continue
				}
				if chosen == nil || p.Cost.NTileEffective > chosen.Cost.NTileEffective {
					cp := p
					chosen = &cp
				}
				break // finest feasible for this partition found
			}
		}
		if chosen == nil {
			return explore.Evaluation{}, 0, fmt.Errorf("experiments: layer %s unmappable", l.Name)
		}
		plans = append(plans, *chosen)
	}

	ev := explore.Evaluation{Candidate: cand, Feasible: true}
	var latSum float64
	for _, env := range scd.Envs {
		es, err := energy.NewSolar(energy.Spec{PanelArea: cand.PanelArea, Cap: cand.Cap}, env)
		if err != nil {
			return explore.Evaluation{}, 0, err
		}
		r := sim.Analytic(es, plans)
		ev.PerEnv = append(ev.PerEnv, explore.EnvResult{
			Env: env.Name(), Latency: r.E2ELatency, Energy: r.Breakdown.Delivered(),
			CkptEnergy: r.Breakdown.Ckpt, Efficiency: r.SystemEfficiency, Feasible: r.Completed,
		})
		if !r.Completed {
			ev.Feasible = false
			continue
		}
		latSum += float64(r.E2ELatency)
	}
	if !ev.Feasible {
		return ev, units.Seconds(math.Inf(1)), nil
	}
	ev.AvgLatency = units.Seconds(latSum / float64(len(scd.Envs)))
	ev.LatSP = float64(ev.AvgLatency) * float64(cand.PanelArea)
	return ev, ev.AvgLatency, nil
}
