// Package sim implements the CHRYSALIS Evaluator (Sec. III-C/D): a
// step-based co-simulation of the energy subsystem and the inference
// subsystem. Unlike statistical simulators that "simply sum up the
// energy or time of individual components", the step simulator advances
// both subsystems together in discrete time steps, so energy
// fluctuations affect inference in real time: tiles restart when power
// browns out mid-tile, checkpoints are saved at tile boundaries, and
// resume costs are paid after every interruption.
//
// The package also provides the analytic fast path (Eq. 5 + Eq. 7) that
// the Explorer uses for search, and cross-checks between the two are
// part of the test suite.
package sim

import (
	"fmt"
	"math"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/energy"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/pmic"
	"chrysalis/internal/units"
)

// DefaultStep is the default simulation step. The paper divides the
// process into steps "each lasting several seconds (adjustable based on
// requirements)"; we default much finer so that single energy cycles
// are resolved.
const DefaultStep units.Seconds = 1e-3

// DefaultMaxTime bounds a simulation that cannot complete (e.g. leakage
// exceeds harvest — Figure 2(b)'s unavailability region).
const DefaultMaxTime units.Seconds = 20_000

// Config describes one simulation run: an energy subsystem, the
// inference hardware constants, and the per-layer intermittent plans
// produced by the mapper.
type Config struct {
	Energy *energy.Subsystem
	HW     dataflow.HW
	Plans  []intermittent.Plan

	// Step is the simulation step (0 selects DefaultStep).
	Step units.Seconds
	// MaxTime aborts runs that make no progress (0 selects
	// DefaultMaxTime).
	MaxTime units.Seconds
	// StartCharged starts the capacitor at U_on instead of U_off,
	// skipping the initial cold-start charge.
	StartCharged bool
	// Jitter adds deterministic pseudo-random variation (±fraction) to
	// per-tile energy draw, emulating measurement noise on a physical
	// platform (used by the Figure 7 hardware-in-the-loop stand-in).
	Jitter float64
	// Seed drives the jitter stream.
	Seed uint64
	// Trace, when non-nil, receives the run's events (power cycles,
	// tile starts/completions, checkpoints, resumes, retries) in time
	// order.
	Trace Tracer
	// Record, when non-nil, captures the full energy-state vector each
	// step (voltage, stored energy, power flows, cumulative energy
	// categories, cycle index) into bounded min/max-preserving bins
	// plus per-power-cycle ledgers. One recorder may span a whole
	// RunSeries; see Recorder.
	Record *Recorder
	// SampleEvery records the capacitor voltage at this interval into
	// Result.VoltageTrace. Long runs are downsampled into
	// min/max-preserving bins instead of being truncated, so the trace
	// stays bounded while covering the whole run.
	//
	// Deprecated: attach a Recorder via Record for the full waveform;
	// VoltageTrace is derived from the same machinery.
	SampleEvery units.Seconds
	// Policy selects the checkpoint strategy (default PolicyEveryTile).
	Policy Policy
	// AdaptiveHeadroom tunes PolicyAdaptive: a checkpoint is skipped
	// while the capacitor's usable energy exceeds this multiple of the
	// next tile's energy (0 selects 2.0).
	AdaptiveHeadroom float64
}

// Policy is the checkpointing strategy of the inference controller —
// the design axis separating HAWAII-style footprints from SONIC-style
// restart-everything and adaptive JAPARI-style schemes (Table I's
// platform rows).
type Policy int

const (
	// PolicyEveryTile persists a checkpoint after every InterTempMap
	// tile — the paper's Eq. 5 accounting and the default.
	PolicyEveryTile Policy = iota
	// PolicyAdaptive skips the save while the capacitor holds ample
	// headroom; a brownout then loses every tile since the last save.
	PolicyAdaptive
	// PolicyNone never checkpoints: any interruption restarts the whole
	// inference (the classic argument for intermittent-aware design).
	PolicyNone
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyEveryTile:
		return "every-tile"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Breakdown itemizes where energy went during a run, load-side and
// energy-side. The load-side categories mirror Eq. 4–5; the energy-side
// ones support the Figure 8/9 and Figure 11 analyses.
type Breakdown struct {
	// Load side.
	Infer  units.Energy // compute + VM traffic (E_infer of Eq. 4)
	NVMIO  units.Energy // tile reads/writes from/to NVM (E_read+E_write)
	Static units.Energy // T·N_mem·p_mem + idle (E_static)
	Ckpt   units.Energy // checkpoint saves + resumes
	Wasted units.Energy // energy spent on tiles that were interrupted

	// Energy side.
	Harvested      units.Energy // raw transducer output
	ConversionLoss units.Energy // PMIC boost loss + quiescent
	CapLeakage     units.Energy // k_cap·C·U² integral
	SpilledHarvest units.Energy // rejected when the capacitor was full
}

// Delivered is the total energy the load consumed.
func (b Breakdown) Delivered() units.Energy {
	return b.Infer + b.NVMIO + b.Static + b.Ckpt + b.Wasted
}

// VoltageSample is one point of the capacitor-voltage waveform.
type VoltageSample struct {
	Time    units.Seconds
	Voltage units.Voltage
}

// Result summarizes one simulated inference.
type Result struct {
	Completed bool
	// E2ELatency is the wall-clock time from power-on (cold start) to
	// inference completion, charging included (Eq. 7's quantity).
	E2ELatency units.Seconds
	// ActiveTime is the powered execution time.
	ActiveTime units.Seconds
	Breakdown  Breakdown

	PowerCycles int // number of Off→On transitions
	Checkpoints int // checkpoint saves performed
	Resumes     int // checkpoint restores performed
	TileRetries int // tiles re-executed after mid-tile brownout
	TilesDone   int

	// SystemEfficiency is the paper's E_infer/E_eh metric (Fig. 8, 11):
	// useful inference energy over harvested energy.
	SystemEfficiency float64

	// VoltageTrace holds the sampled capacitor waveform when
	// Config.SampleEvery is set: one point per downsampling bin,
	// carrying the bin's last observed voltage.
	//
	// Deprecated: use Config.Record and Recorder.Waveform for the full
	// multi-channel waveform.
	VoltageTrace []VoltageSample
}

// tile is the flattened unit of execution.
type tile struct {
	energy units.Energy // dynamic energy the tile consumes (EDf share)
	time   units.Seconds
	ckptB  units.Bytes
	ioFrac float64 // NVM share of the dynamic energy (per-layer constant)
	layer  int
}

// flatten expands layer plans into the tile schedule. The slice is
// sized up front and the NVM fraction is resolved once per layer — both
// are per-step costs otherwise.
func flatten(buf []tile, plans []intermittent.Plan) []tile {
	n := 0
	for i := range plans {
		n += plans[i].Cost.NTileEffective
	}
	ts := buf[:0]
	if n > cap(ts) {
		ts = make([]tile, 0, n)
	}
	for li := range plans {
		p := &plans[li]
		f := nvmFraction(p)
		for i := 0; i < p.Cost.NTileEffective; i++ {
			ts = append(ts, tile{
				energy: p.Cost.TileEnergy,
				time:   p.Cost.TileTime,
				ckptB:  p.CkptBytes,
				ioFrac: f,
				layer:  li,
			})
		}
	}
	return ts
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Energy == nil {
		return fmt.Errorf("sim: energy subsystem must not be nil")
	}
	if err := c.HW.Validate(); err != nil {
		return err
	}
	if len(c.Plans) == 0 {
		return fmt.Errorf("sim: no layer plans")
	}
	if c.Step < 0 || c.MaxTime < 0 {
		return fmt.Errorf("sim: negative step or max time")
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("sim: jitter %g must be in [0,1)", c.Jitter)
	}
	switch c.Policy {
	case PolicyEveryTile, PolicyAdaptive, PolicyNone:
	default:
		return fmt.Errorf("sim: unknown checkpoint policy %d", int(c.Policy))
	}
	if c.AdaptiveHeadroom < 0 {
		return fmt.Errorf("sim: negative adaptive headroom %g", c.AdaptiveHeadroom)
	}
	return nil
}

// Run executes the step-based simulation of one inference.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	es := cfg.Energy
	es.Reset()
	if cfg.StartCharged {
		es.Cap.SetVoltage(es.Spec().PMIC.UOn)
	} else {
		es.Cap.SetVoltage(es.Spec().PMIC.UOff)
	}
	res, _ := runOnce(cfg, 0)
	return res, nil
}

// stepper holds the complete mutable state of one co-simulated
// inference, with the loop body factored into step() so it advances
// exactly one dt at a time. runOnce drives it step-by-step; the event
// simulator (eventsim.go) interleaves the same literal steps with
// analytic multi-step jumps that mutate the identical state.
type stepper struct {
	cfg     Config
	es      *energy.Subsystem
	dt      units.Seconds
	start   units.Seconds
	maxT    units.Seconds
	rec     *Recorder
	tiles   []tile
	staticP units.Power

	// tileBuf backs tiles for small workloads so flatten stays inside
	// the stepper's own allocation.
	tileBuf [16]tile

	res Result
	tm  units.Seconds
	// rep is the energy subsystem's report of the latest step, filled
	// in place so the per-step path copies no structs.
	rep energy.StepReport

	idx         int     // current tile
	progress    float64 // energy fraction of current tile completed
	stepsInTile int     // progress increments since the last reset
	inTile      bool    // tile partially executed (volatile state live)
	needsResu   bool    // must pay resume cost before next tile
	wasOn       bool
	rngState    uint64
	curNeed     units.Energy

	// tileSpent tracks the Infer/NVMIO energy already credited to the
	// in-flight tile so a brownout can reclassify it as Wasted.
	tileSpentInfer, tileSpentIO units.Energy

	// Checkpoint policy state: committed is the tile index execution
	// rolls back to on brownout; uncommitted* track the Infer/NVMIO
	// energy of completed-but-unsaved tiles (lost on rollback).
	headroom                        float64
	committed                       int
	uncommittedInfer, uncommittedIO units.Energy
}

// newStepper prepares the state for one inference starting at time
// start without resetting the subsystem. The caller is responsible for
// validation and initial conditions.
func newStepper(cfg Config, start units.Seconds) *stepper {
	s := &stepper{
		cfg:      cfg,
		es:       cfg.Energy,
		dt:       cfg.Step,
		start:    start,
		tm:       start,
		rngState: cfg.Seed ^ 0x9e3779b97f4a7c15,
		headroom: cfg.AdaptiveHeadroom,
	}
	if s.dt == 0 {
		s.dt = DefaultStep
	}
	s.maxT = start + cfg.MaxTime
	if cfg.MaxTime == 0 {
		s.maxT = start + DefaultMaxTime
	}
	if s.headroom == 0 {
		s.headroom = 2.0
	}

	// The flight recorder: either the caller's (possibly spanning a
	// whole series) or, for the deprecated SampleEvery voltage trace, a
	// local one scoped to this inference.
	s.rec = cfg.Record
	if s.rec == nil && cfg.SampleEvery > 0 {
		s.rec = NewRecorder(legacyVoltagePoints)
		s.rec.BinSeconds = cfg.SampleEvery
	}
	if s.rec != nil {
		s.rec.begin(s.es, start, cfg.Policy)
	}

	s.tiles = flatten(s.tileBuf[:], cfg.Plans)
	s.staticP = units.Power(float64(cfg.HW.PMemPerByte)*float64(cfg.HW.VMBytes) + float64(cfg.HW.PIdle))
	s.curNeed = s.tileEnergy(s.idx)
	return s
}

func (s *stepper) jitterMult() float64 {
	if s.cfg.Jitter == 0 {
		return 1
	}
	s.rngState = s.rngState*6364136223846793005 + 1442695040888963407
	u := float64(s.rngState>>11) / float64(1<<53)
	return 1 + s.cfg.Jitter*(2*u-1)
}

func (s *stepper) tileEnergy(i int) units.Energy {
	return units.Energy(float64(s.tiles[i].energy) * s.jitterMult())
}

func (s *stepper) emit(kind EventKind, tileIdx int) {
	if s.cfg.Trace == nil && s.rec == nil {
		return
	}
	layer := -1
	if tileIdx >= 0 && tileIdx < len(s.tiles) {
		layer = s.tiles[tileIdx].layer
	}
	e := Event{Kind: kind, Time: s.tm, Tile: tileIdx, Layer: layer, Voltage: s.es.Cap.Voltage()}
	if s.rec != nil {
		s.rec.event(e)
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace(e)
	}
}

// step advances the co-simulation by exactly one dt: energy subsystem,
// tile progress, checkpoint policy and gate transitions.
func (s *stepper) step() {
	dt := s.dt
	es := s.es
	res := &s.res

	// Load demand while powered: current activity's power draw.
	var load units.Power
	if s.wasOn {
		t := s.tiles[s.idx]
		dyn := units.DivET(s.curNeed, t.time)
		load = dyn + s.staticP
	}
	rep := &s.rep
	es.StepInto(rep, s.tm, load, dt)
	s.tm += dt

	res.Breakdown.Harvested += rep.Harvested
	res.Breakdown.ConversionLoss += rep.ConversionLoss
	res.Breakdown.CapLeakage += rep.Leaked
	res.Breakdown.SpilledHarvest += rep.Spilled

	// 1. Account energy delivered during this step (load was active).
	if s.wasOn {
		res.ActiveTime += dt
		if rep.Delivered > 0 {
			staticShare := units.MulPT(s.staticP, dt)
			if staticShare > rep.Delivered {
				staticShare = rep.Delivered
			}
			res.Breakdown.Static += staticShare
			if work := rep.Delivered - staticShare; work > 0 {
				if !s.inTile {
					s.emit(EvTileStart, s.idx)
				}
				s.inTile = true
				s.progress += float64(work) / float64(s.curNeed)
				s.stepsInTile++
				io := units.Energy(float64(work) * s.tiles[s.idx].ioFrac)
				inf := units.Energy(float64(work)) - io
				res.Breakdown.NVMIO += io
				res.Breakdown.Infer += inf
				s.tileSpentIO += io
				s.tileSpentInfer += inf
			}
		}
		if s.progress >= 1 {
			// Tile complete. Whether its volatile state is persisted
			// depends on the checkpoint policy.
			s.emit(EvTileDone, s.idx)
			t := s.tiles[s.idx]
			res.TilesDone++
			s.inTile = false
			s.progress = 0
			s.stepsInTile = 0

			save := false
			switch s.cfg.Policy {
			case PolicyEveryTile:
				save = true
			case PolicyAdaptive:
				// Save only when the remaining usable energy is low
				// relative to the next tile's demand.
				next := s.curNeed
				if s.idx+1 < len(s.tiles) {
					next = s.tiles[s.idx+1].energy
				}
				usable := es.Cap.UsableAbove(es.Spec().PMIC.UOff)
				save = float64(usable) < s.headroom*float64(next)
			case PolicyNone:
				save = false
			}
			if save {
				saveE := intermittent.SaveEnergy(s.cfg.HW, t.ckptB)
				res.Breakdown.Ckpt += saveE
				drained := drainExtra(es, saveE)
				if s.rec != nil {
					s.rec.drain(drained, saveE)
				}
				res.Checkpoints++
				s.emit(EvCheckpoint, s.idx)
				s.committed = s.idx + 1
				s.uncommittedInfer, s.uncommittedIO = 0, 0
			} else {
				s.uncommittedInfer += s.tileSpentInfer
				s.uncommittedIO += s.tileSpentIO
			}
			s.tileSpentInfer, s.tileSpentIO = 0, 0
			s.idx++
			if s.idx >= len(s.tiles) {
				res.Completed = true
				s.emit(EvDone, -1)
			} else {
				s.curNeed = s.tileEnergy(s.idx)
			}
		}
	}

	// 2. Handle gate transitions (skipped on the completion step —
	// the run ends before the gate can act again).
	if !res.Completed {
		on := rep.State == pmic.On
		if on && !s.wasOn {
			res.PowerCycles++
			s.emit(EvPowerOn, s.idx)
			if s.needsResu {
				// Pay the resume cost out of the fresh cycle.
				t := s.tiles[s.idx]
				resE := intermittent.ResumeEnergy(s.cfg.HW, t.ckptB)
				res.Breakdown.Ckpt += resE
				drained := drainExtra(es, resE)
				if s.rec != nil {
					s.rec.drain(drained, resE)
				}
				res.Resumes++
				s.emit(EvResume, s.idx)
				s.needsResu = false
			}
		}
		if !on && s.wasOn {
			// Brownout. Everything since the last durable point is
			// lost: the in-flight tile's partial energy plus any
			// completed-but-unsaved tiles under lazy policies.
			s.emit(EvPowerOff, s.idx)
			lost := s.tileSpentInfer + s.tileSpentIO
			if s.inTile && s.progress > 0 {
				res.TileRetries++
				s.emit(EvRetry, s.idx)
			}
			if s.idx > s.committed {
				// Roll back to the last checkpoint.
				res.TileRetries += s.idx - s.committed
				res.TilesDone -= s.idx - s.committed
				lost += s.uncommittedInfer + s.uncommittedIO
				s.idx = s.committed
			}
			if lost > 0 {
				res.Breakdown.Infer -= s.tileSpentInfer + s.uncommittedInfer
				res.Breakdown.NVMIO -= s.tileSpentIO + s.uncommittedIO
				res.Breakdown.Wasted += lost
			}
			s.progress = 0
			s.stepsInTile = 0
			s.curNeed = s.tileEnergy(s.idx)
			s.inTile = false
			s.tileSpentInfer, s.tileSpentIO = 0, 0
			s.uncommittedInfer, s.uncommittedIO = 0, 0
			// A restore is needed whenever execution was interrupted:
			// even with no checkpoint yet, the runtime re-initializes
			// its state from NVM on the next power-up.
			s.needsResu = true
		}
		s.wasOn = on
	}

	// Record the step's flows and end-of-step state (after drains,
	// so ledgers balance exactly).
	if s.rec != nil {
		s.rec.step(s.tm, dt, rep, &res.Breakdown)
	}
}

// finish derives the run summary from the final state.
func (s *stepper) finish() (Result, units.Seconds) {
	if s.rec != nil {
		s.rec.release()
	}
	res := s.res
	if s.cfg.SampleEvery > 0 && s.rec != nil {
		res.VoltageTrace = s.rec.voltageTraceSince(float64(s.start))
	}
	res.E2ELatency = s.tm - s.start
	if !res.Completed {
		res.E2ELatency = units.Seconds(math.Inf(1))
	}
	if res.Breakdown.Harvested > 0 {
		res.SystemEfficiency = float64(res.Breakdown.Infer+res.Breakdown.NVMIO) / float64(res.Breakdown.Harvested)
	}
	return res, s.tm
}

// runOnce simulates one inference starting at time start without
// resetting the subsystem state, returning the result and the end time.
// The caller is responsible for validation and initial conditions.
func runOnce(cfg Config, start units.Seconds) (Result, units.Seconds) {
	s := newStepper(cfg, start)
	for s.tm < s.maxT {
		s.step()
		if s.res.Completed {
			break
		}
	}
	return s.finish()
}

// drainExtra removes energy directly from the capacitor for discrete
// events (checkpoint save/resume) that happen inside one step. It
// returns the capacitor-side energy actually removed (the load-side
// cost divided by the PMIC load efficiency, clamped to what is stored).
func drainExtra(es *energy.Subsystem, e units.Energy) units.Energy {
	spec := es.Spec()
	capSide := units.Energy(float64(e) / spec.PMIC.LoadEff)
	stored := es.Cap.Stored()
	if capSide > stored {
		capSide = stored
	}
	es.Cap.SetVoltage(units.VoltageForEnergy(spec.Cap, stored-capSide))
	return capSide
}

// nvmFraction is the share of a plan's dynamic tile energy that is NVM
// traffic rather than compute, from the cost model's own decomposition.
func nvmFraction(p *intermittent.Plan) float64 {
	io := float64(p.Cost.TileNVMEnergy)
	total := float64(p.Cost.TileEnergy)
	if total <= 0 {
		return 0
	}
	f := io / total
	if f > 1 {
		return 1
	}
	return f
}

// Analytic computes the closed-form estimate the Explorer uses during
// search: total energy per Eq. 5 (summed over layer plans) and
// end-to-end latency per Eq. 7, E2ELat = E_all / P_eh, where P_eh is
// the net charging power (harvest minus leakage, after conversion).
// It reports Completed=false when the net charging power is
// non-positive — Figure 2(b)'s unavailability condition.
func Analytic(es *energy.Subsystem, plans []intermittent.Plan) Result {
	return AnalyticTotals(es, intermittent.Sum(plans))
}

// AnalyticTotals is the core of Analytic over pre-aggregated plan
// totals. Search loops that evaluate one plan set under several
// environments aggregate once and call this per environment.
func AnalyticTotals(es *energy.Subsystem, tot intermittent.Totals) Result {
	spec := es.Spec()

	pNet := float64(es.HarvestPower(0)) -
		spec.Kcap*float64(spec.Cap)*float64(spec.PMIC.UOn)*float64(spec.PMIC.UOn)
	var res Result
	res.ActiveTime = tot.Time
	res.Breakdown.Ckpt = tot.CkptEnergy
	res.Breakdown.Static = tot.StaticEnergy
	res.Breakdown.NVMIO = tot.NVMIO
	res.Breakdown.Infer = tot.Energy - tot.CkptEnergy - tot.StaticEnergy - tot.NVMIO
	res.TilesDone = tot.Tiles
	res.Checkpoints = tot.Tiles

	if pNet <= 0 {
		res.E2ELatency = units.Seconds(math.Inf(1))
		return res
	}
	// E2E latency decomposes as: the initial charge from U_off to U_on
	// (execution cannot start earlier), then the charging time for the
	// energy beyond what that first fill delivers — bounded below by the
	// powered execution time when harvest outruns consumption.
	capSide := float64(tot.Energy) / spec.PMIC.LoadEff
	initCharge := float64(es.ChargeLatency())
	if math.IsInf(initCharge, 1) {
		res.E2ELatency = units.Seconds(math.Inf(1))
		return res
	}
	usable := float64(units.CapacitorEnergy(spec.Cap, spec.PMIC.UOn, spec.PMIC.UOff))
	remaining := capSide - usable
	if remaining < 0 {
		remaining = 0
	}
	tail := remaining / pNet
	if tail < float64(tot.Time) {
		// Harvest outruns consumption: execution time dominates.
		tail = float64(tot.Time)
	}
	lat := initCharge + tail
	res.E2ELatency = units.Seconds(lat)
	res.Completed = true
	res.Breakdown.Harvested = units.MulPT(es.Harvester.Power(0), res.E2ELatency)
	if res.Breakdown.Harvested > 0 {
		// The paper's E_infer/E_eh metric counts all useful inference
		// energy — compute plus the NVM tile traffic — exactly as the
		// step simulator reports it.
		res.SystemEfficiency = float64(res.Breakdown.Infer+res.Breakdown.NVMIO) / float64(res.Breakdown.Harvested)
	}
	return res
}
