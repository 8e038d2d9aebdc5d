package main

// day-series: a closed loop of one client replaying a fixed set of
// designs over the daylight part of a diurnal day. Each operation is a
// SimulateSeriesFlight replay (flight recorder and audit on) followed by
// an event-mode VerifyFlight of the same design under the same diurnal
// environment; the time-varying harvest sends the event simulator down
// its literal-stepping fallback. Search is bypassed entirely.

import (
	"fmt"
	"time"

	"chrysalis"
	"chrysalis/internal/audit"
	"chrysalis/internal/core"
	"chrysalis/internal/explore"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
)

const (
	// daySunset is the length of the diurnal day's daylight in seconds;
	// dayInferences × the largest idle gap ends before it, so no replay
	// stalls in the dark.
	daySunset     = 12 * 3600
	dayInferences = 20
)

func dayEnv() (solar.Environment, error) { return solar.NewDiurnal(solar.KehBright, 0, daySunset) }

// daySpec returns the spec and design point of a day-series design.
func daySpec(d dayDesign) (core.Spec, chrysalis.DesignPoint, core.Result) {
	spec := core.Spec{WorkloadName: d.Workload, Platform: explore.MSP}
	dp := chrysalis.DesignPoint{PanelArea: chrysalis.AreaCM2(d.Panel), Cap: chrysalis.Capacitance(d.Cap)}
	res := core.Result{PanelArea: dp.PanelArea, Cap: dp.Cap, InferHW: "msp430", NPE: 1}
	if d.Accel != nil {
		spec.Platform = explore.Accel
		dp.Accel = d.Accel
		res.InferHW, res.NPE, res.CacheBytes = d.Accel.Arch.String(), d.Accel.NPE, d.Accel.CacheBytes
	}
	return spec, dp, res
}

// dayResult is one day-series operation's output.
type dayResult struct {
	digest     string
	simSeconds float64
	auditOK    bool
	findings   int
	seriesT    time.Duration
	verifyT    time.Duration
	recs       [2]*sim.Recorder
}

func dayReplay(op dayOp, env solar.Environment) (dayResult, error) {
	spec, dp, res := daySpec(dayDesigns[op.Design])
	var out dayResult
	out.recs[0] = chrysalis.NewFlightRecorder(0)
	t0 := time.Now()
	sr, rep, err := chrysalis.SimulateSeriesFlight(spec, dp, env, dayInferences, chrysalis.Seconds(op.Idle), out.recs[0])
	out.seriesT = time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("series %s: %w", op.key(), err)
	}
	vspec := spec
	vspec.Envs = []solar.Environment{env}
	out.recs[1] = sim.NewRecorder(0)
	t0 = time.Now()
	run, vrep, err := core.VerifyFlight(vspec, res, nil, out.recs[1])
	out.verifyT = time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("verify %s: %w", op.key(), err)
	}
	out.digest = digest(sr, run)
	out.simSeconds = float64(sr.TotalTime) + float64(run.E2ELatency)
	out.auditOK = rep.OK() && vrep.OK()
	out.findings = len(rep.Findings) + len(vrep.Findings)
	return out, nil
}

func runDay(cfg runConfig) (*ledger, error) {
	var (
		gold   goldens
		stream *dayStream
		env    solar.Environment
	)
	setupS, teardown, err := timedSetup(func() (func(), error) {
		g, err := loadGoldens(cfg.goldenDir, "day-series")
		if err != nil {
			return nil, err
		}
		e, err := dayEnv()
		if err != nil {
			return nil, err
		}
		gold, stream, env = g, newDayStream(cfg.seed), e
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	var (
		simSeconds, hostSec float64
		verifyMS            []float64
		findings, ops       int
		before, after       eventStats
	)
	l, err := passes(cfg, setupS, func(l *ledger) error {
		simSeconds, hostSec, findings = 0, 0, 0
		before = readEventStats()
		l.begin()
		for ops = 0; !l.expired(); ops++ {
			op := stream.at(ops)
			t0 := time.Now()
			r, err := dayReplay(op, env)
			dur := time.Since(t0)
			out := gold.check(op.key(), r.digest)
			if err != nil {
				out = opFailed
			} else if !r.auditOK && out == opOK {
				out = opWrong
			}
			l.op(dur, out)
			simSeconds += r.simSeconds
			hostSec += dur.Seconds()
			findings += r.findings
			if l.trace && err == nil {
				// The audits already ran inside the replay; re-running them on
				// the kept recorders times the audit layer alone.
				t0 = time.Now()
				for _, rec := range r.recs {
					audit.Run(rec, audit.Options{})
				}
				l.addAudit(ms(time.Since(t0)), len(r.recs), 0)
				verifyMS = append(verifyMS, ms(r.verifyT))
			}
			if (ops+1)%len(stream.order) == 0 {
				l.mark(ops + 1)
			}
		}
		l.end()
		after = readEventStats()
		return nil
	})
	if err != nil || !cfg.trace {
		return l, err
	}
	reportSimDelta(l, before, after, ops)
	l.addAudit(0, 0, findings)
	l.set("bench.sim_s_per_host_s", ratio(simSeconds, hostSec))
	var cases []designCase
	for _, d := range dayDesigns {
		spec, _, res := daySpec(d)
		cases = append(cases, designCase{spec: spec, result: res})
	}
	if err := replayModel(l, cases); err != nil {
		return nil, err
	}
	// In-loop measurements of the day-scale work replace the replay's
	// bright-environment stand-ins.
	l.set("sim.host_ns_per_sim_s", ratio(hostSec*1e9, simSeconds))
	l.set("core.verify_ms", quantile(verifyMS, 0.5))
	return l, nil
}

func recordDay() (goldens, error) {
	env, err := dayEnv()
	if err != nil {
		return nil, err
	}
	g := make(goldens)
	for d := range dayDesigns {
		for _, idle := range dayIdles {
			op := dayOp{Design: d, Idle: idle}
			r, err := dayReplay(op, env)
			if err != nil {
				return nil, err
			}
			if !r.auditOK {
				return nil, fmt.Errorf("%s: audit findings %d", op.key(), r.findings)
			}
			g[op.key()] = r.digest
		}
	}
	return g, nil
}
