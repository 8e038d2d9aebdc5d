package main

// accel-cold: a closed loop of one client running core.Run on a seeded
// stream of distinct accelerator-platform designs at the default budget
// of 400, with no warm tier and the default worker count. Ladder builds
// and the dataflow cost model do the work; serve, the warm tier and the
// simulator are bypassed.

import (
	"fmt"
	"time"

	"chrysalis/internal/core"
	"chrysalis/internal/dnn"
)

// latspDesigns is how many of a run's first designs bench.latsp_geomean
// covers; a fixed count keeps it a pure function of the seed.
const latspDesigns = 90

func runAccel(cfg runConfig) (*ledger, error) {
	var (
		gold   goldens
		stream *accelStream
	)
	setupS, teardown, err := timedSetup(func() (func(), error) {
		g, err := loadGoldens(cfg.goldenDir, "accel-cold")
		if err != nil {
			return nil, err
		}
		for _, w := range accelWorkloads {
			if _, err := dnn.ByName(w); err != nil {
				return nil, err
			}
		}
		gold, stream = g, newAccelStream(cfg.seed)
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	var (
		counters      searchCounters
		latsps        []float64
		cases         []designCase
		gaps          []float64
		ops           int
		before, after eventStats
	)
	l, err := passes(cfg, setupS, func(l *ledger) error {
		before = readEventStats()
		l.begin()
		for ops = 0; !l.expired(); ops++ {
			d := stream.at(ops)
			spec := d.spec()
			if l.trace {
				last := time.Time{}
				spec.Search.Progress = func(int, int, float64) {
					now := time.Now()
					if !last.IsZero() {
						gaps = append(gaps, ms(now.Sub(last)))
					}
					last = now
				}
			}
			t0 := time.Now()
			res, err := core.Run(spec)
			dur := time.Since(t0)
			out := gold.check(d.key(), outcomeDigest(res, err))
			l.op(dur, out)
			if (ops+1)%len(stream.order) == 0 {
				l.mark(ops + 1)
			}
			if out != opOK || err != nil || !l.trace {
				continue
			}
			if len(latsps) < latspDesigns {
				latsps = append(latsps, res.LatSP)
			}
			counters.add(res)
			if len(cases) < len(stream.order) {
				spec.Search.Progress = nil
				cases = append(cases, designCase{spec: spec, result: res})
			}
		}
		l.end()
		after = readEventStats()
		return nil
	})
	if err != nil || !cfg.trace {
		return l, err
	}
	counters.report(l)
	reportSimDelta(l, before, after, ops)
	l.set("bench.latsp_geomean", geomean(latsps))
	if err := replayModel(l, cases); err != nil {
		return nil, err
	}
	if err := replaySearch(l, cases); err != nil {
		return nil, err
	}
	// The in-loop Progress gaps are the direct measurement here; the
	// replay's are only a stand-in where the search runs out of reach.
	l.set("search.generation_ms", quantile(gaps, 0.5))
	return l, nil
}

func recordAccel() (goldens, error) {
	g := make(goldens)
	for _, w := range accelWorkloads {
		for _, o := range objectives {
			for seed := int64(1); seed <= accelSeeds; seed++ {
				d := accelDesign{Workload: w, Objective: o, Seed: seed}
				res, err := core.Run(d.spec())
				dg := outcomeDigest(res, err)
				if dg == "" {
					return nil, fmt.Errorf("%s: %w", d.key(), err)
				}
				g[d.key()] = dg
			}
		}
	}
	return g, nil
}
