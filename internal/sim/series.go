package sim

import (
	"fmt"

	"chrysalis/internal/energy"
	"chrysalis/internal/units"
)

// SeriesResult summarizes a sequence of inferences executed
// back-to-back on one AuT under a (possibly time-varying) environment —
// the paper's deployment view, where light is stable within one
// inference but "may change greatly in one day" (Sec. III-D).
type SeriesResult struct {
	// PerInference holds each inference's result in order. Inferences
	// after the first that never completes are not attempted.
	PerInference []Result
	// Completed counts the inferences that finished.
	Completed int
	// TotalTime is the wall-clock span of the series, idle gaps
	// included.
	TotalTime units.Seconds
	// ThroughputPerHour is completed inferences extrapolated per hour
	// of wall-clock time.
	ThroughputPerHour float64
	// Energy aggregates the per-inference breakdowns.
	Energy Breakdown
}

// RunSeries executes n inferences in sequence with an idle gap between
// them (sensing/sleep time), carrying the capacitor state and the
// clock across inferences so diurnal or cloudy environments influence
// each one differently. The subsystem keeps harvesting during idle.
func RunSeries(cfg Config, n int, idle units.Seconds) (SeriesResult, error) {
	if err := cfg.Validate(); err != nil {
		return SeriesResult{}, err
	}
	if n < 1 {
		return SeriesResult{}, fmt.Errorf("sim: series needs at least 1 inference, got %d", n)
	}
	if idle < 0 {
		return SeriesResult{}, fmt.Errorf("sim: negative idle gap %v", idle)
	}

	es := cfg.Energy
	es.Reset()
	if cfg.StartCharged {
		es.Cap.SetVoltage(es.Spec().PMIC.UOn)
	} else {
		es.Cap.SetVoltage(es.Spec().PMIC.UOff)
	}

	dt := cfg.Step
	if dt == 0 {
		dt = DefaultStep
	}

	var (
		sr     SeriesResult
		tm     units.Seconds
		rep    energy.StepReport
		idleBD Breakdown // idle steps carry no inference energy
	)
	for i := 0; i < n; i++ {
		// Unique jitter stream per inference.
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9e37
		res, end := runOnce(c, tm)
		sr.PerInference = append(sr.PerInference, res)
		accumulate(&sr.Energy, res.Breakdown)
		if !res.Completed {
			// The environment cannot sustain this inference (night,
			// leakage); the series ends here.
			tm = end
			break
		}
		sr.Completed++
		tm = end

		// Idle gap: the device sleeps but keeps harvesting; idle is
		// advanced in coarse steps since nothing switches quickly. The
		// flight recorder keeps observing so waveforms and energy
		// ledgers stay continuous across the gap.
		if idle > 0 && i < n-1 {
			idleDt := idle / 100
			if idleDt < dt {
				idleDt = dt
			}
			if cfg.Record != nil {
				cfg.Record.begin(es, tm, cfg.Policy)
			}
			for done := units.Seconds(0); done < idle; done += idleDt {
				es.StepInto(&rep, tm, 0, idleDt)
				tm += idleDt
				if cfg.Record != nil {
					cfg.Record.step(tm, idleDt, &rep, &idleBD)
				}
			}
		}
	}
	if cfg.Record != nil {
		cfg.Record.release()
	}
	sr.TotalTime = tm
	if tm > 0 && sr.Completed > 0 {
		sr.ThroughputPerHour = float64(sr.Completed) / float64(tm) * 3600
	}
	if sr.Completed == 0 {
		sr.ThroughputPerHour = 0
	}
	return sr, nil
}

func accumulate(dst *Breakdown, b Breakdown) {
	dst.Infer += b.Infer
	dst.NVMIO += b.NVMIO
	dst.Static += b.Static
	dst.Ckpt += b.Ckpt
	dst.Wasted += b.Wasted
	dst.Harvested += b.Harvested
	dst.ConversionLoss += b.ConversionLoss
	dst.CapLeakage += b.CapLeakage
	dst.SpilledHarvest += b.SpilledHarvest
}
