package main

// Per-layer replays for traced runs. After the measured window, a
// traced run re-runs a handful of the window's designs through each
// layer's public functions and times the benchmark's own calls. Nothing
// here runs inside the measured window.

import (
	"fmt"
	"time"

	"chrysalis/internal/accel"
	"chrysalis/internal/audit"
	"chrysalis/internal/core"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/explore"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/msp430"
	"chrysalis/internal/sim"
)

// designCase is one design a traced run replays: the spec it was
// searched with and the result the run got (already golden-checked).
type designCase struct {
	spec   core.Spec
	result core.Result
}

// scoreRepeats is how many times explore.score_us evaluates the primed
// candidate.
const scoreRepeats = 20

var partitions = []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial}

// hwFor returns the dataflow cost constants of a result's inference
// hardware, and the dataflows its inner search explores.
func hwFor(res core.Result) ([]dataflow.Dataflow, []dataflow.HW, *accel.Config, error) {
	if res.InferHW == "msp430" {
		return []dataflow.Dataflow{dataflow.OS}, []dataflow.HW{msp430.Config{}.HW()}, nil, nil
	}
	arch, err := accel.ParseArch(res.InferHW)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := &accel.Config{Arch: arch, NPE: res.NPE, CacheBytes: res.CacheBytes}
	dfs := dataflow.Dataflows()
	hws := make([]dataflow.HW, len(dfs))
	for i, df := range dfs {
		if hws[i], err = cfg.HW(df); err != nil {
			return nil, nil, nil, err
		}
	}
	return dfs, hws, cfg, nil
}

// replayModel times the cost model, ladder builds, candidate scoring
// and the verification replay (simulator plus audit) on every case.
func replayModel(l *ledger, cases []designCase) error {
	var (
		evalCalls, ladderCalls, verifies int
		evalT, ladderT, scoreT, simT     time.Duration
		verifyT, auditT                  time.Duration
		simSeconds                       float64
	)
	for _, c := range cases {
		w, err := dnn.ByName(c.spec.WorkloadName)
		if err != nil {
			return err
		}
		dfs, hws, acfg, err := hwFor(c.result)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i, df := range dfs {
			for _, layer := range w.Layers {
				for _, part := range partitions {
					for _, n := range dataflow.CandidateNTiles(layer, part) {
						// Tile counts that overflow VM are rejected by the
						// model; the rejection is part of the replayed work.
						_, _ = dataflow.Evaluate(layer, w.ElemBytes, dataflow.Mapping{Dataflow: df, Partition: part, NTile: n}, hws[i])
						evalCalls++
					}
				}
			}
		}
		evalT += time.Since(t0)

		t0 = time.Now()
		for i, df := range dfs {
			for _, layer := range w.Layers {
				for _, part := range partitions {
					if _, err := intermittent.BuildLadder(layer, w.ElemBytes, df, part, hws[i], c.spec.Rexc); err != nil {
						return fmt.Errorf("ladder replay: %w", err)
					}
					ladderCalls++
				}
			}
		}
		ladderT += time.Since(t0)

		sc := explore.Scenario{
			Workload: w, Platform: c.spec.Platform, Envs: c.spec.Envs, Objective: c.spec.Objective,
			MaxPanel: c.spec.MaxPanel, MaxLatency: c.spec.MaxLatency, Rexc: c.spec.Rexc, SimMode: c.spec.SimMode,
		}
		ev, err := explore.NewEvaluator(sc)
		if err != nil {
			return err
		}
		cand := explore.Candidate{PanelArea: c.result.PanelArea, Cap: c.result.Cap, Accel: acfg}
		prime, err := ev.Evaluate(cand)
		if err != nil {
			return fmt.Errorf("score replay: %w", err)
		}
		// Design points built by hand (day-series) carry no lat·sp.
		if c.result.LatSP != 0 && prime.LatSP != c.result.LatSP {
			return fmt.Errorf("score replay of %s: lat·sp %v, design reported %v", c.spec.WorkloadName, prime.LatSP, c.result.LatSP)
		}
		t0 = time.Now()
		for i := 0; i < scoreRepeats; i++ {
			if _, err := ev.Evaluate(cand); err != nil {
				return err
			}
		}
		scoreT += time.Since(t0)

		rec := sim.NewRecorder(0)
		t0 = time.Now()
		// The replay's audit verdict is not counted in audit.findings: the
		// replayed designs were never verified by the workload itself, and
		// the event-mode replay of designs at the panel bound is known to
		// fail the capacitor-balance check.
		run, _, err := core.VerifyFlight(c.spec, c.result, nil, rec)
		vt := time.Since(t0)
		if err != nil {
			return fmt.Errorf("verify replay: %w", err)
		}
		t0 = time.Now()
		audit.Run(rec, audit.Options{})
		at := time.Since(t0)
		verifyT += vt
		auditT += at
		simT += vt - at
		simSeconds += float64(run.E2ELatency)
		verifies++
	}
	n := float64(len(cases))
	l.set("dataflow.evaluate_ns", ratio(float64(evalT.Nanoseconds()), float64(evalCalls)))
	l.set("intermittent.ladder_build_ms", ratio(ms(ladderT), float64(ladderCalls)))
	l.set("explore.score_us", ratio(float64(scoreT.Microseconds()), n*scoreRepeats))
	l.set("core.verify_ms", ratio(ms(verifyT), float64(verifies)))
	l.set("sim.host_ns_per_sim_s", ratio(float64(simT.Nanoseconds()), simSeconds))
	l.addAudit(ms(auditT), verifies, 0)
	return nil
}

// replaySearch re-runs every case's search serially, with the default
// worker count, and cold then warm against a fresh warm tier, checking
// each result against the design digest.
func replaySearch(l *ledger, cases []designCase) error {
	var (
		serialT, parT, coldT, warmT time.Duration
		designMS, gaps              []float64
	)
	run := func(spec core.Spec, want string) (time.Duration, error) {
		t0 := time.Now()
		res, err := core.Run(spec)
		d := time.Since(t0)
		if got := outcomeDigest(res, err); got != want {
			return 0, fmt.Errorf("search replay of %s seed %d: digest %q, want %q (err %v)",
				spec.WorkloadName, spec.Search.Seed, got, want, err)
		}
		return d, nil
	}
	for _, c := range cases {
		want := designDigest(c.result)

		spec := c.spec
		spec.Search.Workers = -1
		d, err := run(spec, want)
		if err != nil {
			return err
		}
		serialT += d

		spec = c.spec
		last := time.Time{}
		spec.Search.Progress = func(int, int, float64) {
			now := time.Now()
			if !last.IsZero() {
				gaps = append(gaps, ms(now.Sub(last)))
			}
			last = now
		}
		d, err = run(spec, want)
		if err != nil {
			return err
		}
		parT += d
		designMS = append(designMS, ms(d))

		spec = c.spec
		spec.Search.Warm = explore.NewWarmCache(64 << 20)
		if d, err = run(spec, want); err != nil {
			return err
		}
		coldT += d
		if d, err = run(spec, want); err != nil {
			return err
		}
		warmT += d
	}
	l.set("search.parallel_speedup", ratio(float64(serialT), float64(parT)))
	l.set("search.generation_ms", quantile(gaps, 0.5))
	l.set("core.design_ms", quantile(designMS, 0.5))
	l.set("intermittent.ladder_share", 1-ratio(float64(warmT), float64(coldT)))
	return nil
}

// searchCounters accumulates the informational counters of the search
// results a run produced.
type searchCounters struct {
	ops, evals, gens       int64
	hits, misses, warmHits int64
}

func (s *searchCounters) add(r core.Result) {
	s.ops++
	s.evals += int64(r.Evals)
	s.gens += int64(len(r.History))
	s.hits += r.CacheHits
	s.misses += r.CacheMisses
	s.warmHits += r.WarmHits
}

func (s *searchCounters) report(l *ledger) {
	n := float64(s.ops)
	l.set("explore.evals_per_op", ratio(float64(s.evals), n))
	l.set("search.generations_per_op", ratio(float64(s.gens), n))
	l.set("explore.plan_cache_hit_ratio", ratio(float64(s.hits), float64(s.hits+s.misses)))
	l.set("explore.warm_hit_ratio", ratio(float64(s.warmHits), float64(s.misses)))
	l.set("explore.warm_hit_base", ratio(float64(s.misses), n))
	l.set("intermittent.ladder_builds_per_op", ratio(float64(s.misses-s.warmHits), n))
}

// eventStats is a snapshot of the event simulator's counters.
type eventStats struct{ fastSegs, fastSteps, literal, fallback int64 }

func readEventStats() eventStats {
	a, b, c, d := sim.EventStats()
	return eventStats{a, b, c, d}
}

// reportSimDelta records the simulator counters' growth over the
// measured window per operation.
func reportSimDelta(l *ledger, before, after eventStats, ops int) {
	n := float64(ops)
	l.set("sim.fast_steps_per_op", ratio(float64(after.fastSteps-before.fastSteps), n))
	l.set("sim.literal_steps_per_op", ratio(float64(after.literal-before.literal), n))
	l.set("sim.fallback_runs_per_op", ratio(float64(after.fallback-before.fallback), n))
}
