// Event-driven analytic co-simulator: the same co-simulation as
// runOnce, but quiet windows — stretches of steps where nothing
// discrete can happen (no gate transition, no tile boundary, no
// checkpoint, no spill, no starvation) — are solved in closed form by
// the segment recurrence (internal/energy.Segment) and applied as one
// multi-step jump instead of being ground out step by step.
//
// The step simulator remains the bit-honest oracle. The event path
// reuses the identical stepper state and literal step() for every step
// on which an event can fire, and its jumps are built so that:
//
//   - tile-progress arithmetic is replayed bitwise (prefix-sum memo of
//     the repeated float addition), so every discrete counter —
//     completions, power cycles, checkpoints, resumes, retries — lands
//     on exactly the same step as the oracle;
//   - jump energy flows are closed under the recorder's ledger
//     identities by construction (leak is the residual of the
//     capacitor balance), so the audit invariants hold exactly;
//   - continuous accumulators (breakdown, latency) agree with the
//     oracle to fp accumulation order, far inside 1e-6 relative.
//
// Runs the closed form cannot cover — jitter enabled, time-varying
// harvest, or a leak constant outside the segment solver's validity
// range — fall back to pure literal stepping, which is the oracle.
package sim

import (
	"math"
	"sync"
	"sync/atomic"

	"chrysalis/internal/energy"
	"chrysalis/internal/units"
)

// minJump is the smallest window worth jumping: below this the segment
// bookkeeping costs about as much as the literal steps it would skip.
const minJump = 2

// Process-wide fastpath-vs-fallback counters, exported on /metrics.
var (
	statFastSegments atomic.Int64 // analytic jumps taken
	statFastSteps    atomic.Int64 // literal steps those jumps replaced
	statLiteralSteps atomic.Int64 // steps executed by the oracle loop
	statFallbackRuns atomic.Int64 // runs that never qualified for jumps
)

// EventStats returns the cumulative event-simulator counters:
// fastSegments analytic jumps covering fastSteps steps, literalSteps
// bit-honest steps, and fallbackRuns whole runs that fell back to pure
// stepping (jitter, time-varying harvest, or out-of-range leak).
func EventStats() (fastSegments, fastSteps, literalSteps, fallbackRuns int64) {
	return statFastSegments.Load(), statFastSteps.Load(),
		statLiteralSteps.Load(), statFallbackRuns.Load()
}

// RunEvent executes one inference on the event-driven simulator. It
// accepts exactly the configurations Run does and produces the same
// Result, Event stream and Recorder channels; see the package comment
// for the agreement contract.
func RunEvent(cfg Config) (Result, error) {
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
	res, _ := runOnceEvent(cfg, 0)
	return res, nil
}

// runOnceEvent is the event-mode counterpart of runOnce: same contract,
// analytic jumps interleaved with literal steps.
func runOnceEvent(cfg Config, start units.Seconds) (Result, units.Seconds) {
	s := newStepper(cfg, start)
	var f fastPath
	if !f.init(s) {
		statFallbackRuns.Add(1)
		var lit int64
		for s.tm < s.maxT {
			s.step()
			lit++
			if s.res.Completed {
				break
			}
		}
		statLiteralSteps.Add(lit)
		return s.finish()
	}
	var lit int64
	for s.tm < s.maxT {
		n := f.quietSteps()
		if n >= minJump {
			f.jump(n)
			if s.tm >= s.maxT {
				break
			}
			n = 0
		}
		// A short quiet window is cheaper stepped than jumped, but it
		// is still proven quiet: run its n steps plus the first step an
		// event may fire on literally, without re-solving in between.
		for i := 0; i <= n; i++ {
			s.step()
			lit++
			if s.res.Completed || s.tm >= s.maxT {
				break
			}
		}
		if s.res.Completed {
			break
		}
	}
	statLiteralSteps.Add(lit)
	statFastSegments.Add(f.segments)
	statFastSteps.Add(f.fastSteps)
	return s.finish()
}

// fastPath holds the per-run constants of the analytic jump machinery
// plus the window parameters handed from quietSteps to jump.
type fastPath struct {
	s    *stepper
	kcap float64
	capC float64

	hRaw units.Energy // raw transducer energy per step
	hCap units.Energy // capacitor-side harvest credit per step

	eOn, eOff float64 // gate thresholds, joules
	spill     float64 // rated ceiling minus harvest credit, joules
	invDt     float64 // 1/dt, hoisted out of the per-call limit math

	offSeg energy.Segment // the gate-Off recurrence (load debit 0)
	// offSpill is whether the Off trajectory can reach the spill target
	// at all (its asymptote exceeds it); when false the crossing solver
	// would return "never" for every start, so the call is skipped.
	offSpill bool

	// Window parameters, set by quietSteps and consumed by jump (on
	// selects between offSeg and tileSeg; a pointer field would chain
	// the fastPath to its own address and force it onto the heap).
	on        bool
	statShare units.Energy // static share of delivered energy per step
	io, inf   units.Energy // NVM / compute share of tile work per step
	table     *prefixTable // progress prefix sums of the current tile

	// Cache of the On-window constants, valid while the stepper stays
	// on (tileIdx, tileNeed): quietSteps runs between literal steps and
	// the segment build costs a log, so recomputing per tile rather
	// than per call matters.
	tileIdx    int
	tileNeed   units.Energy
	tileOK     bool
	tileSeg    energy.Segment
	tileStarve float64 // starvation crossing target, joules
	// tileChkStarve / tileChkSpill gate the starvation and spill
	// crossing solves: starvation is subsumed by the brownout crossing
	// when its target sits at or below U_off, and spill is unreachable
	// when the On asymptote sits at or below the spill target.
	tileChkStarve bool
	tileChkSpill  bool
	tileShare     units.Energy
	tileIO        units.Energy
	tileInf       units.Energy
	tileTab       *prefixTable

	segments  int64
	fastSteps int64
}

// init qualifies a run for analytic jumps. It returns false — pure
// literal stepping — when the per-step flows cannot be proven constant
// (jitter, time-varying harvest) or the leak recurrence is outside the
// segment solver's validity range.
func (f *fastPath) init(s *stepper) bool {
	if s.cfg.Jitter != 0 {
		return false
	}
	raw, ok := s.es.SteadyHarvest()
	if !ok {
		return false
	}
	spec := s.es.Spec()
	toCap := s.es.Ctrl.HarvestToCap(raw)
	hCap := units.MulPT(toCap, s.dt)
	offSeg, ok := energy.NewSegment(spec.Kcap, float64(s.dt), float64(hCap), 0)
	if !ok {
		return false
	}
	*f = fastPath{
		s:       s,
		kcap:    spec.Kcap,
		capC:    float64(spec.Cap),
		hRaw:    units.MulPT(raw, s.dt),
		hCap:    hCap,
		eOn:     float64(units.EnergyAtVoltage(spec.Cap, spec.PMIC.UOn)),
		eOff:    float64(units.EnergyAtVoltage(spec.Cap, spec.PMIC.UOff)),
		spill:   float64(units.EnergyAtVoltage(spec.Cap, spec.Rated)) - float64(hCap),
		invDt:   1 / float64(s.dt),
		offSeg:  offSeg,
		tileIdx: -1,
	}
	f.offSpill = offSeg.F > f.spill
	return true
}

// cacheTile derives the On-window constants for the stepper's current
// tile: the per-step load debit, its static/work/NVM split, the segment
// recurrence and the progress prefix table. tileOK=false marks a tile
// the fast path cannot jump (solver out of range, no net work, or an
// un-memoizable progress increment).
func (f *fastPath) cacheTile() {
	s := f.s
	f.tileIdx, f.tileNeed, f.tileOK = s.idx, s.curNeed, false
	t := s.tiles[s.idx]
	dyn := units.DivET(s.curNeed, t.time)
	effLoad := s.es.Ctrl.LoadOnCap(dyn + s.staticP)
	d := units.MulPT(effLoad, s.dt)
	seg, ok := energy.NewSegment(f.kcap, float64(s.dt), float64(f.hCap), float64(d))
	if !ok {
		return
	}
	statShare := units.MulPT(s.staticP, s.dt)
	if statShare > d {
		statShare = d
	}
	work := d - statShare
	if work <= 0 {
		// Static draw swallows the whole delivery: no tile progress,
		// nothing to solve for.
		return
	}
	tab := prefixFor(float64(work) / float64(s.curNeed))
	if tab == nil {
		return
	}
	f.tileSeg, f.tileShare = seg, statShare
	f.tileStarve = float64(d)/seg.A - float64(f.hCap)
	f.tileChkStarve = f.tileStarve > f.eOff
	f.tileChkSpill = seg.F > f.spill
	f.tileIO = units.Energy(float64(work) * t.ioFrac)
	f.tileInf = units.Energy(float64(work)) - f.tileIO
	f.tileTab = tab
	f.tileOK = true
}

// quietSteps returns the number of steps guaranteed not to fire an
// event from the current state: every constraint below is a
// conservative undershoot of its event's first-firing step. Counts of
// at least minJump also arm the window parameters for jump; shorter
// counts are a literal-step budget the caller may grind through without
// re-solving. 0 means the very next step may fire.
func (f *fastPath) quietSteps() int {
	s := f.s

	// Whole steps that keep the jump short of the horizon, with slack
	// for the literal steps that bracket it.
	limit := int(float64(s.maxT-s.tm)*f.invDt) - 2
	if limit < minJump {
		return 0
	}

	if !s.wasOn {
		// Charging toward U_on. Events possible: power-on (rising past
		// eOn) and harvest spill (the rated ceiling). The spill target
		// constrains each step's pre-harvest energy, so check e+h
		// against the ceiling.
		e0 := float64(s.es.Cap.Stored())
		seg := &f.offSeg
		n := limit
		if c := seg.StepsShortOfCrossing(e0, f.eOn); c < n {
			n = c
		}
		if f.offSpill {
			if c := seg.StepsShortOfCrossing(e0, f.spill); c < n {
				n = c
			}
		}
		if n < minJump {
			return n
		}
		f.on = false
		return n
	}

	if !s.inTile {
		// The next literal step opens the tile (EvTileStart).
		return 0
	}

	// Powered, mid-tile. Per-step flows are fixed by the current tile.
	if s.idx != f.tileIdx || s.curNeed != f.tileNeed {
		f.cacheTile()
	}
	if !f.tileOK {
		return 0
	}
	seg, tab := &f.tileSeg, f.tileTab

	// Tile completion. The oracle accumulates progress by repeated
	// float addition of r; the prefix memo replays that sum literally,
	// and the window is only trusted when the current progress is
	// bitwise on that trajectory — so completion lands on the oracle's
	// step.
	if s.stepsInTile >= tab.need || tab.sums[s.stepsInTile] != s.progress {
		return 0
	}
	n := tab.need - s.stepsInTile - 1
	if n > limit {
		n = limit
	}
	e0 := float64(s.es.Cap.Stored())
	// Brownout: end-of-step energy falling to the U_off threshold.
	if c := seg.StepsShortOfCrossing(e0, f.eOff); c < n {
		n = c
	}
	// Starvation: the step's demand exceeding post-leak energy, i.e.
	// start-of-step energy below d/A − h (normally U_off fires first
	// and the solve is skipped; this is insurance for tiny capacitors).
	if f.tileChkStarve {
		if c := seg.StepsShortOfCrossing(e0, f.tileStarve); c < n {
			n = c
		}
	}
	// Spill: the harvest credit hitting the rated ceiling (unreachable
	// under load for all but degenerate configurations).
	if f.tileChkSpill {
		if c := seg.StepsShortOfCrossing(e0, f.spill); c < n {
			n = c
		}
	}
	if n < minJump {
		return n
	}

	f.on = true
	f.statShare = f.tileShare
	f.io, f.inf = f.tileIO, f.tileInf
	f.table = tab
	return n
}

// jump advances the stepper by n steps analytically. The jump's energy
// flows are constructed to close the recorder's ledger identities
// exactly: leak is the residual of the capacitor balance, conversion
// loss the residual of the harvest identity, and the v² integral is the
// leak re-expressed through the leak model.
func (f *fastPath) jump(n int) {
	s := f.s
	seg := &f.offSeg
	if f.on {
		seg = &f.tileSeg
	}
	spec := s.es.Spec()
	e0 := float64(s.es.Cap.Stored())
	eN := seg.EnergyAfter(e0, n)
	nf := float64(n)

	charged := nf * seg.H
	delivered := nf * seg.D
	leaked := charged - delivered - (eN - e0)
	harv := nf * float64(f.hRaw)
	conv := harv - charged
	vsq := 0.0
	if kc := f.kcap * f.capC; kc > 0 {
		vsq = leaked / kc
	}

	s.es.Cap.SetVoltage(units.VoltageForEnergy(spec.Cap, units.Energy(eN)))
	s.tm += units.Seconds(nf * float64(s.dt))

	bd := &s.res.Breakdown
	bd.Harvested += units.Energy(harv)
	bd.ConversionLoss += units.Energy(conv)
	bd.CapLeakage += units.Energy(leaked)
	if f.on {
		s.res.ActiveTime += units.Seconds(nf * float64(s.dt))
		bd.Static += units.Energy(nf * float64(f.statShare))
		ioSeg := units.Energy(nf * float64(f.io))
		infSeg := units.Energy(nf * float64(f.inf))
		bd.NVMIO += ioSeg
		bd.Infer += infSeg
		s.tileSpentIO += ioSeg
		s.tileSpentInfer += infSeg
		s.stepsInTile += n
		s.progress = f.table.sums[s.stepsInTile]
	}

	if s.rec != nil {
		s.rec.segment(s.tm, s.dt, segmentReport{
			n:              n,
			harvested:      harv,
			charged:        charged,
			conversionLoss: conv,
			delivered:      delivered,
			leaked:         leaked,
			vsqIntegral:    vsq,
			on:             f.on,
		}, &s.res.Breakdown)
	}

	f.segments++
	f.fastSteps += int64(n)
}

// prefixTable memoizes the oracle's tile-progress accumulation for one
// per-step increment r: sums[k] is the literal float64 result of adding
// r to zero k times, and need is the first k where that sum reaches 1
// (the step on which the oracle completes the tile). Repeated float
// addition is not invertible in closed form, so the memo is the only
// way to predict the completion step exactly.
type prefixTable struct {
	need int
	sums []float64 // len need+1, sums[0] = 0
}

const (
	// maxPrefixSteps bounds one table; tiles needing more steps than
	// this stay on the literal path.
	maxPrefixSteps = 1 << 21
	// maxPrefixTables bounds the process-wide memo. Increments are one
	// per (plan layer × jitter-free config), so real workloads use a
	// handful; the cap only guards against degenerate sweeps.
	maxPrefixTables = 4096
)

var (
	prefixTables sync.Map // math.Float64bits(r) -> *prefixTable
	prefixCount  atomic.Int64
)

// prefixFor returns the memoized prefix sums for increment r, building
// them on first use. nil means the increment is unusable (non-positive,
// non-finite, or the tile would take more than maxPrefixSteps steps)
// and the caller must step literally.
func prefixFor(r float64) *prefixTable {
	key := math.Float64bits(r)
	if v, ok := prefixTables.Load(key); ok {
		return v.(*prefixTable)
	}
	if !(r > 0) || math.IsInf(r, 1) || 1/r+2 > maxPrefixSteps {
		return nil
	}
	sums := make([]float64, 1, int(1/r)+2)
	p := 0.0
	for p < 1 {
		if len(sums) > maxPrefixSteps {
			return nil
		}
		p += r
		sums = append(sums, p)
	}
	tab := &prefixTable{need: len(sums) - 1, sums: sums}
	if prefixCount.Load() < maxPrefixTables {
		if _, loaded := prefixTables.LoadOrStore(key, tab); !loaded {
			prefixCount.Add(1)
		}
	}
	return tab
}
