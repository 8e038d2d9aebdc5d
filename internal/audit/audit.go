// Package audit checks that a simulated run obeyed the physics it
// claims to model. It folds the flight recorder's per-cycle energy
// ledgers (internal/sim.Recorder) into structured conservation and
// invariant checks:
//
//   - capacitor balance: E_charged = E_load + E_leak + E_drain + ΔE_cap
//     per power cycle, exact up to float rounding;
//   - harvest identity: E_harvested = E_charged + E_conversion + E_spill;
//   - leakage reconstruction: the recorded leakage must match the
//     independent k_cap·C·∫V²dt integral of Eq. 2 — the check with
//     teeth, because it recomputes the flow from the spec constants and
//     the voltage trajectory instead of trusting the simulator's sum;
//   - voltage bounds: 0 ≤ V ≤ V_rated always, and V > U_off at every
//     powered step boundary (in-step checkpoint/resume dips excluded);
//   - continuity: cycle ledgers chain stored energy exactly and never
//     run backwards in time; cumulative channels never decrease;
//   - event ordering: violations the recorder flagged inline
//     (checkpoint-before-brownout, power transitions) become findings.
//
// A passing audit means the evaluator's numbers can be trusted; a
// failing one localizes the broken cycle and the size of the error.
package audit

import (
	"fmt"
	"math"

	"chrysalis/internal/sim"
)

// Options tunes the audit tolerances. The zero value selects defaults.
type Options struct {
	// RelTol is the relative tolerance of the exact-by-construction
	// balance checks (default 1e-9 — float rounding headroom only).
	RelTol float64
	// AbsTolJ is the absolute floor of the balance checks in joules
	// (default 1e-12, picojoule scale).
	AbsTolJ float64
	// LeakRelTol is the relative tolerance of the leakage
	// reconstruction (default 1e-6). The recorder integrates V² at the
	// capacitor's exact pre-discharge voltage, so the reconstruction
	// differs from the recorded debit only by summation order — any
	// real mismatch means the leakage constant or integrator is broken.
	LeakRelTol float64
	// VoltSlack is the allowed fractional undershoot of U_off while
	// powered (default 1e-9). The gate switches off at v <= U_off and
	// the recorder excludes in-step drain dips, so powered end-of-step
	// samples sit strictly above the threshold; the slack only absorbs
	// float rounding.
	VoltSlack float64
}

func (o Options) withDefaults() Options {
	if o.RelTol == 0 {
		o.RelTol = 1e-9
	}
	if o.AbsTolJ == 0 {
		o.AbsTolJ = 1e-12
	}
	if o.LeakRelTol == 0 {
		o.LeakRelTol = 1e-6
	}
	if o.VoltSlack == 0 {
		o.VoltSlack = 1e-9
	}
	return o
}

// Finding is one failed check.
type Finding struct {
	// Check identifies the failed invariant (e.g. "cap-balance",
	// "leak-model", "voltage-floor").
	Check string `json:"check"`
	// Cycle is the ledger index the finding localizes to (-1 when the
	// finding is not cycle-specific).
	Cycle int `json:"cycle"`
	// TimeS anchors the finding on the simulated timeline.
	TimeS float64 `json:"t_s"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
	// Delta quantifies the error (joules or volts depending on Check).
	Delta float64 `json:"delta"`
}

// Report is the outcome of one audit pass.
type Report struct {
	// Cycles is the number of power-cycle ledgers examined.
	Cycles int `json:"cycles"`
	// Checks counts the individual assertions evaluated.
	Checks int `json:"checks"`
	// Findings lists every failed check (empty on a clean run).
	Findings []Finding `json:"findings"`
	// MaxBalanceErrJ is the worst capacitor-balance residual seen, even
	// if within tolerance — a drift canary for future sim changes.
	MaxBalanceErrJ float64 `json:"max_balance_err_j"`
	// MaxLeakRelErr is the worst relative leakage-reconstruction error.
	MaxLeakRelErr float64 `json:"max_leak_rel_err"`
}

// OK reports whether the audit found no violations.
func (r *Report) OK() bool { return r != nil && len(r.Findings) == 0 }

// String summarizes the report for logs and CLI output.
func (r *Report) String() string {
	if r == nil {
		return "audit: no report"
	}
	status := "PASS"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d findings)", len(r.Findings))
	}
	return fmt.Sprintf("audit %s: %d cycles, %d checks, max balance err %.3g J, max leak rel err %.3g",
		status, r.Cycles, r.Checks, r.MaxBalanceErrJ, r.MaxLeakRelErr)
}

// Run audits a recorder snapshot. A nil or empty recorder yields an
// empty passing report (nothing recorded, nothing to contradict).
func Run(rec *sim.Recorder, opts Options) *Report {
	o := opts.withDefaults()
	// Findings starts non-nil so a clean report marshals as "findings":
	// [] rather than null — kinder to JSON clients.
	rep := &Report{Findings: []Finding{}}
	if rec == nil {
		return rep
	}
	spec := rec.EnergySpec()
	cycles := rec.Cycles()
	rep.Cycles = len(cycles)

	fail := func(check string, cycle int, t float64, delta float64, format string, args ...any) {
		rep.Findings = append(rep.Findings, Finding{
			Check: check, Cycle: cycle, TimeS: t, Delta: delta,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	uOff := float64(spec.PMIC.UOff)
	rated := float64(spec.Rated)
	kC := spec.Kcap * float64(spec.Cap)

	for i, c := range cycles {
		// 1. Capacitor-side balance (exact by construction).
		flow := math.Abs(c.ChargedJ) + math.Abs(c.DeliveredJ) + math.Abs(c.LeakedJ) + math.Abs(c.DrainedJ)
		tol := o.RelTol*flow + o.AbsTolJ
		bal := c.ChargedJ - c.DeliveredJ - c.LeakedJ - c.DrainedJ - (c.EndStoredJ - c.StartStoredJ)
		rep.Checks++
		if math.Abs(bal) > tol {
			fail("cap-balance", c.Index, c.EndS, bal,
				"cycle %d: charged %.6g J ≠ delivered %.6g + leaked %.6g + drained %.6g + ΔE %.6g (residual %.3g J, tol %.3g)",
				c.Index, c.ChargedJ, c.DeliveredJ, c.LeakedJ, c.DrainedJ, c.EndStoredJ-c.StartStoredJ, bal, tol)
		}
		if math.Abs(bal) > rep.MaxBalanceErrJ {
			rep.MaxBalanceErrJ = math.Abs(bal)
		}

		// 2. Harvest-side identity.
		htol := o.RelTol*math.Abs(c.HarvestedJ) + o.AbsTolJ
		hbal := c.HarvestedJ - c.ChargedJ - c.ConversionLossJ - c.SpilledJ
		rep.Checks++
		if math.Abs(hbal) > htol {
			fail("harvest-identity", c.Index, c.EndS, hbal,
				"cycle %d: harvested %.6g J ≠ charged %.6g + conversion loss %.6g + spilled %.6g (residual %.3g J)",
				c.Index, c.HarvestedJ, c.ChargedJ, c.ConversionLossJ, c.SpilledJ, hbal)
		}

		// 3. Leakage reconstruction from Eq. 2: E_leak ≈ k_cap·C·∫V²dt.
		expected := kC * c.VSqIntegral
		scale := math.Max(math.Abs(c.LeakedJ), math.Abs(expected))
		rep.Checks++
		if scale > o.AbsTolJ {
			rel := math.Abs(c.LeakedJ-expected) / scale
			if rel > rep.MaxLeakRelErr {
				rep.MaxLeakRelErr = rel
			}
			if rel > o.LeakRelTol {
				fail("leak-model", c.Index, c.EndS, c.LeakedJ-expected,
					"cycle %d: recorded leakage %.6g J vs k_cap·C·∫V²dt = %.6g J (rel err %.3g > %.3g) — leakage constant or integrator broken",
					c.Index, c.LeakedJ, expected, rel, o.LeakRelTol)
			}
		}

		// 4. Voltage bounds.
		rep.Checks++
		if c.MaxV > rated*(1+1e-9) {
			fail("voltage-ceiling", c.Index, c.EndS, c.MaxV-rated,
				"cycle %d: voltage peaked at %.4g V above rated %.4g V", c.Index, c.MaxV, rated)
		}
		rep.Checks++
		if c.MinV < -1e-12 {
			fail("voltage-floor", c.Index, c.EndS, c.MinV,
				"cycle %d: voltage went negative (%.4g V)", c.Index, c.MinV)
		}
		if c.OnSamples > 0 {
			rep.Checks++
			floor := uOff * (1 - o.VoltSlack)
			if c.MinVOn < floor {
				fail("voltage-on-floor", c.Index, c.EndS, c.MinVOn-uOff,
					"cycle %d: powered voltage dipped to %.4g V, below U_off %.4g V − slack", c.Index, c.MinVOn, uOff)
			}
		}

		// 5. Timeline and stored-energy continuity.
		rep.Checks++
		if c.EndS < c.StartS {
			fail("time-order", c.Index, c.StartS, c.EndS-c.StartS,
				"cycle %d: ends at %.6g s before it starts at %.6g s", c.Index, c.EndS, c.StartS)
		}
		if i > 0 {
			prev := cycles[i-1]
			rep.Checks += 2
			if c.StartS < prev.EndS {
				fail("time-order", c.Index, c.StartS, c.StartS-prev.EndS,
					"cycle %d starts at %.6g s before cycle %d ended at %.6g s", c.Index, c.StartS, prev.Index, prev.EndS)
			}
			if c.StartStoredJ != prev.EndStoredJ {
				fail("stored-continuity", c.Index, c.StartS, c.StartStoredJ-prev.EndStoredJ,
					"cycle %d starts with %.6g J stored but cycle %d ended with %.6g J", c.Index, c.StartStoredJ, prev.Index, prev.EndStoredJ)
			}
		}
	}

	// 6. Monotone cumulative waveform channels: harvested and
	// checkpoint energy only ever accumulate. (Compute/NVM-IO may dip
	// when a brownout reclassifies in-flight work as wasted.)
	for _, name := range []string{"e_harvest", "e_ckpt"} {
		prev := math.Inf(-1)
		prevT := math.Inf(-1)
		if rec.WalkLast(name, func(t, last float64) bool {
			if t <= prevT {
				fail("waveform-time", -1, t, t-prevT, "channel %s: bin at %.6g s not after %.6g s", name, t, prevT)
				return false
			}
			prevT = t
			if last < prev-o.AbsTolJ {
				fail("monotone-"+name, -1, t, last-prev,
					"channel %s fell from %.6g J to %.6g J", name, prev, last)
				return false
			}
			prev = last
			return true
		}) {
			rep.Checks++
		}
	}

	// 7. Event-stream invariants flagged inline by the recorder.
	viol, dropped := rec.Violations()
	rep.Checks++
	for _, v := range viol {
		fail("event-order", -1, v.TimeS, 0, "%s", v.Msg)
	}
	if dropped > 0 {
		fail("event-order", -1, 0, float64(dropped), "%d further event-order violations dropped", dropped)
	}
	return rep
}
