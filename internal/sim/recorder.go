package sim

// The flight recorder: a bounded-memory capture of the full energy-state
// vector of a simulation — the physics the paper is actually about.
// Where the span tracer (traceexport.go) answers "when did what happen",
// the recorder answers "where did every joule go": capacitor voltage,
// stored energy, harvest/load/leakage power and the cumulative load-side
// energy categories, sampled every step into min/max-preserving bins,
// plus an exact per-power-cycle energy ledger the audit pass
// (internal/audit) folds into conservation checks.
//
// Memory is bounded no matter how long the simulated horizon: when the
// bin count exceeds the configured point budget, adjacent bins merge
// pairwise and the bin width doubles, so a 24-hour series costs the same
// memory as a 2-second run while every bin still carries the true
// min/max of the raw samples it absorbed (peaks are never clipped away,
// unlike plain decimation — or the old hard 100k-sample cap, which
// silently dropped the tail of long runs).

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"chrysalis/internal/energy"
	"chrysalis/internal/pmic"
	"chrysalis/internal/units"
)

// DefaultWavePoints is the per-channel point budget when the caller
// passes no capacity to NewRecorder.
const DefaultWavePoints = 4096

// maxCycleLedgers bounds the per-cycle ledger table; beyond it adjacent
// ledgers merge pairwise (conservation-preserving), so pathological
// scenarios with millions of power cycles stay bounded too.
const maxCycleLedgers = 4096

// maxViolations bounds the recorder's event-ordering violation list.
const maxViolations = 64

// Waveform channel indices. Order is the export order.
const (
	ChVCap     = iota // capacitor voltage (V)
	ChEStored         // stored capacitor energy (J)
	ChPHarvest        // raw transducer output power (W)
	ChPLoad           // cap-side power delivered to the load (W)
	ChPLeak           // capacitor leakage power (W)
	ChEHarvest        // cumulative raw harvested energy (J)
	ChECompute        // cumulative inference compute energy (J)
	ChENVMIO          // cumulative NVM tile read/write energy (J)
	ChECkpt           // cumulative checkpoint save+resume energy (J)
	ChCycle           // power-cycle index (count)

	numChannels
)

// channelMeta names each channel for exports.
var channelMeta = [numChannels]struct{ Name, Unit string }{
	{"v_cap", "V"},
	{"e_stored", "J"},
	{"p_harvest", "W"},
	{"p_load", "W"},
	{"p_leak", "W"},
	{"e_harvest", "J"},
	{"e_compute", "J"},
	{"e_nvm_io", "J"},
	{"e_ckpt", "J"},
	{"cycle", "count"},
}

// chanAgg aggregates one channel over one bin.
type chanAgg struct {
	min, max, sum, last float64
}

func (a *chanAgg) add(v float64) {
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	a.sum += v
	a.last = v
}

func (a *chanAgg) merge(b chanAgg) {
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.sum += b.sum
	a.last = b.last
}

// wavebin is one downsampling bin: a time interval plus per-channel
// aggregates of every raw sample that fell into it.
type wavebin struct {
	t0, t1 float64
	count  int64
	ch     [numChannels]chanAgg
}

// emptyBin is a bin before its first sample: every channel's min/max
// at the infinities any sample replaces.
var emptyBin = func() (b wavebin) {
	for i := range b.ch {
		b.ch[i] = chanAgg{min: math.Inf(1), max: math.Inf(-1)}
	}
	return b
}()

// The bin store is a list of segments that never move: segment 0 holds
// the first seg0Bins bins and each later segment as many bins as all
// before it, so segment k ≥ 1 holds bins [2^(k+seg0Log-1), 2^(k+seg0Log)).
// The last segment is clipped so the store holds exactly the point
// budget plus the one bin that triggers compaction. Growing allocates
// one segment and copies nothing, a full budget is allocated once, and
// a store of n > seg0Bins bins has room for at most 2n.
const (
	seg0Log  = 3
	seg0Bins = 1 << seg0Log
)

// segmentCount returns how many segments hold capacity bins.
func segmentCount(capacity int) int {
	return 1 + bits.Len(uint(capacity-1)>>seg0Log)
}

// WavePoint is one exported bin of one channel.
type WavePoint struct {
	T    float64 `json:"t_s"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	Last float64 `json:"last"`
}

// WaveChannel is one exported waveform channel.
type WaveChannel struct {
	Name   string      `json:"name"`
	Unit   string      `json:"unit"`
	Points []WavePoint `json:"points"`
}

// CycleLedger is the exact energy bookkeeping of one power-cycle
// segment: the interval from one power-on to the next (segment 0 covers
// the initial cold-start charge). All energies are capacitor-side
// joules except HarvestedJ/ConversionLossJ (transducer-side) and
// CkptLoadJ (load-side checkpoint+resume cost). Conservation holds per
// segment by construction:
//
//	ChargedJ = DeliveredJ + LeakedJ + DrainedJ + (EndStoredJ − StartStoredJ)
//	HarvestedJ = ChargedJ + ConversionLossJ + SpilledJ
type CycleLedger struct {
	Index int `json:"index"`
	// Merged counts how many raw segments this ledger aggregates (>1
	// after ledger-table compaction on pathological cycle counts).
	Merged int     `json:"merged,omitempty"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// OnSeconds is the powered time inside the segment.
	OnSeconds float64 `json:"on_s"`

	StartStoredJ float64 `json:"start_stored_j"`
	EndStoredJ   float64 `json:"end_stored_j"`

	HarvestedJ      float64 `json:"harvested_j"`
	ChargedJ        float64 `json:"charged_j"`
	ConversionLossJ float64 `json:"conversion_loss_j"`
	SpilledJ        float64 `json:"spilled_j"`
	DeliveredJ      float64 `json:"delivered_j"`
	LeakedJ         float64 `json:"leaked_j"`
	// DrainedJ is capacitor energy removed directly by discrete
	// checkpoint-save and resume events (drainExtra).
	DrainedJ float64 `json:"drained_j"`
	// CkptLoadJ is the load-side energy of those same events.
	CkptLoadJ float64 `json:"ckpt_load_j"`

	// VSqIntegral is ∫V²dt over the segment (V²·s), integrated at the
	// capacitor's pre-discharge voltage each step — the exact basis of
	// the leakage debit, so the audit's reconstruction k_cap·C·∫V²dt
	// matches the recorded LeakedJ up to float rounding.
	VSqIntegral float64 `json:"vsq_integral"`

	MinV float64 `json:"min_v"`
	MaxV float64 `json:"max_v"`
	// MinVOn is the minimum end-of-step voltage observed while the
	// power gate was on, excluding steps that contained a discrete
	// checkpoint/resume drain (those may legitimately dip below U_off
	// within the step). +Inf internally when the segment never powered;
	// snapshots report 0 then (OnSamples disambiguates).
	MinVOn float64 `json:"min_v_on"`
	// OnSamples counts the end-of-step samples MinVOn aggregates; 0
	// means MinVOn is meaningless (e.g. the segment's only powered step
	// contained a drain).
	OnSamples int `json:"on_samples"`

	Checkpoints int `json:"checkpoints"`
	Resumes     int `json:"resumes"`
	Retries     int `json:"retries"`
	TilesDone   int `json:"tiles_done"`
}

func (l *CycleLedger) mergeFrom(b CycleLedger) {
	l.Merged += b.Merged
	l.EndS = b.EndS
	l.OnSeconds += b.OnSeconds
	l.EndStoredJ = b.EndStoredJ
	l.HarvestedJ += b.HarvestedJ
	l.ChargedJ += b.ChargedJ
	l.ConversionLossJ += b.ConversionLossJ
	l.SpilledJ += b.SpilledJ
	l.DeliveredJ += b.DeliveredJ
	l.LeakedJ += b.LeakedJ
	l.DrainedJ += b.DrainedJ
	l.CkptLoadJ += b.CkptLoadJ
	l.VSqIntegral += b.VSqIntegral
	l.MinV = math.Min(l.MinV, b.MinV)
	l.MaxV = math.Max(l.MaxV, b.MaxV)
	l.MinVOn = math.Min(l.MinVOn, b.MinVOn)
	l.OnSamples += b.OnSamples
	l.Checkpoints += b.Checkpoints
	l.Resumes += b.Resumes
	l.Retries += b.Retries
	l.TilesDone += b.TilesDone
}

// Violation is one event-stream invariant the recorder saw broken.
type Violation struct {
	TimeS float64 `json:"t_s"`
	Msg   string  `json:"msg"`
}

// Waveform is a point-in-time snapshot of a recorder: the downsampled
// channels plus the per-cycle ledgers. It marshals to JSON directly and
// writes CSV via WriteCSV.
type Waveform struct {
	StartS     float64       `json:"start_s"`
	EndS       float64       `json:"end_s"`
	BinSeconds float64       `json:"bin_s"`
	RawSamples int64         `json:"raw_samples"`
	Channels   []WaveChannel `json:"channels"`
	Cycles     []CycleLedger `json:"cycles,omitempty"`

	// binCounts carries per-bin raw-sample counts for the CSV export
	// (kept out of the per-channel JSON to stay compact).
	binCounts []int64
}

// WriteCSV renders the waveform in wide CSV form: one row per bin with
// t_s, the raw-sample count, and min/max/mean/last columns per channel.
func (w *Waveform) WriteCSV(out io.Writer) error {
	if _, err := fmt.Fprint(out, "t_s,samples"); err != nil {
		return err
	}
	for _, ch := range w.Channels {
		fmt.Fprintf(out, ",%s_min,%s_max,%s_mean,%s_last", ch.Name, ch.Name, ch.Name, ch.Name)
	}
	fmt.Fprintln(out)
	if len(w.Channels) == 0 {
		return nil
	}
	n := len(w.Channels[0].Points)
	for i := 0; i < n; i++ {
		fmt.Fprintf(out, "%g,%d", w.Channels[0].Points[i].T, w.binCount(i))
		for _, ch := range w.Channels {
			p := ch.Points[i]
			if _, err := fmt.Fprintf(out, ",%g,%g,%g,%g", p.Min, p.Max, p.Mean, p.Last); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(out); err != nil {
			return err
		}
	}
	return nil
}

// binCount returns the raw-sample count of bin i.
func (w *Waveform) binCount(i int) int64 {
	if i < len(w.binCounts) {
		return w.binCounts[i]
	}
	return 0
}

// Recorder samples the simulator's full energy-state vector each step
// into bounded min/max-preserving bins and maintains exact per-cycle
// energy ledgers. Attach one via Config.Record; the same recorder may
// span a whole RunSeries (clock and capacitor state carry over). A nil
// *Recorder is inert.
//
// All exported methods are safe for concurrent use with a running
// simulation. Steps are staged without a lock and folded in batches
// (see flush), so a snapshot taken mid-run may lag the simulator by up
// to one stage of steps; once the run returns, snapshots are complete.
// A recorder is fed by one simulation at a time.
type Recorder struct {
	// BinSeconds is the initial bin width (0 = one bin per raw sample
	// until the point budget forces merging). Set before the first run.
	BinSeconds units.Seconds

	// stage buffers records not yet folded into the state below; it is
	// held only while a run is in flight. Only the simulating goroutine
	// reads or writes it (and staged).
	stage  *[stageSize]stagedStep
	staged int

	// mu guards everything below.
	mu        sync.Mutex
	maxPoints int
	binDur    float64
	// segs is the bin store (see seg0Log); its first nbins bins are in
	// time order and cur points at the last of them, the open bin (nil
	// before the first sample).
	segs  [][]wavebin
	nbins int
	cur   *wavebin
	raw   int64

	es     *energy.Subsystem
	espec  energy.Spec
	policy Policy

	// Cumulative-channel bookkeeping across runOnce calls.
	base       Breakdown
	prevBD     Breakdown
	cumHarvest float64

	// Per-cycle ledgers.
	cycles       []CycleLedger
	open         CycleLedger
	opened       bool
	cycleIndex   int
	powered      bool
	freshRun     bool // a begin() happened since the last power-on event
	pendingCycle bool
	tilesSince   int // tile-done events since the last checkpoint
	pendDrain    float64
	pendCkpt     float64
	lastT        float64
	lastStored   float64
	haveLast     bool

	lastEventT float64
	violations []Violation
	dropped    int64 // violations beyond maxViolations
}

// NewRecorder returns a recorder with the given per-channel point
// budget (<= 0 selects DefaultWavePoints).
func NewRecorder(maxPoints int) *Recorder {
	if maxPoints <= 0 {
		maxPoints = DefaultWavePoints
	}
	return &Recorder{maxPoints: maxPoints}
}

// begin attaches the recorder to a subsystem at simulation time t. It
// is called at the start of every runOnce (and before idle phases) and
// is idempotent: repeated calls fold the previous inference's breakdown
// into the cumulative base and re-anchor the ledger to the current
// stored energy.
func (r *Recorder) begin(es *energy.Subsystem, t units.Seconds, policy Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	if r.stage == nil {
		r.stage = stagePool.Get().(*[stageSize]stagedStep)
	}
	if r.es == nil {
		r.es = es
		r.espec = es.Spec()
		if r.binDur == 0 {
			r.binDur = float64(r.BinSeconds)
		}
	}
	r.policy = policy
	r.freshRun = true
	// Fold the finished inference's breakdown into the running base so
	// cumulative channels stay continuous across a series.
	r.base.Infer += r.prevBD.Infer
	r.base.NVMIO += r.prevBD.NVMIO
	r.base.Ckpt += r.prevBD.Ckpt
	r.prevBD = Breakdown{}

	stored := float64(es.Cap.Stored())
	if !r.opened {
		r.openLedgerLocked(float64(t), stored)
	} else if r.haveLast && stored != r.lastStored {
		// State changed outside recorded steps (unreachable via the
		// public API, but keep the ledger sound): close and re-open at
		// the observed boundary.
		r.closeLedgerLocked()
		r.openLedgerLocked(float64(t), stored)
	}
	r.lastT = float64(t)
	r.lastStored = stored
	r.haveLast = true
}

func (r *Recorder) openLedgerLocked(t, stored float64) {
	r.open = CycleLedger{
		Index:        r.cycleIndex,
		Merged:       1,
		StartS:       t,
		EndS:         t,
		StartStoredJ: stored,
		EndStoredJ:   stored,
		MinV:         math.Inf(1),
		MaxV:         math.Inf(-1),
		MinVOn:       math.Inf(1),
	}
	r.opened = true
}

func (r *Recorder) closeLedgerLocked() {
	if !r.opened {
		return
	}
	// Skip empty pre-sample segments (no time advanced, no flows).
	// Infinities (MinVOn of a never-powered segment) are kept internal
	// so ledger merges stay correct; snapshots sanitize them.
	if r.open.EndS > r.open.StartS || r.open.HarvestedJ != 0 || r.open.TilesDone != 0 {
		r.cycles = append(r.cycles, r.open)
		if len(r.cycles) > maxCycleLedgers {
			r.compactCyclesLocked()
		}
	}
	r.opened = false
}

// compactCyclesLocked merges adjacent ledger pairs, halving the table.
// Each merge sums the flows and chains the stored-energy boundaries, so
// conservation checks survive compaction unchanged.
func (r *Recorder) compactCyclesLocked() {
	half := len(r.cycles) / 2
	for i := 0; i < half; i++ {
		l := r.cycles[2*i]
		l.mergeFrom(r.cycles[2*i+1])
		r.cycles[i] = l
	}
	if len(r.cycles)%2 == 1 {
		r.cycles[half] = r.cycles[len(r.cycles)-1]
		half++
	}
	r.cycles = r.cycles[:half]
}

// event consumes one simulator event, updating per-cycle counters and
// checking event-stream invariants. Called from the simulation loop.
func (r *Recorder) event(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	ts := float64(e.Time)
	if ts < r.lastEventT {
		r.violateLocked(ts, fmt.Sprintf("event %v at %gs precedes prior event at %gs", e.Kind, ts, r.lastEventT))
	}
	r.lastEventT = ts
	switch e.Kind {
	case EvPowerOn:
		// Each runOnce re-detects an already-on gate as a fresh power-on
		// (Result.PowerCycles counts it too), so a powered power-on is
		// only a violation when no run boundary intervened.
		if r.powered && !r.freshRun {
			r.violateLocked(ts, "power-on while already powered")
		}
		r.freshRun = false
		r.powered = true
		r.cycleIndex++
		r.pendingCycle = true
		r.tilesSince = 0
	case EvPowerOff:
		if !r.powered {
			r.violateLocked(ts, "power-off while already off")
		}
		// Under the eager policy every completed tile is durable before
		// any brownout; completed-but-unsaved tiles at power-off mean
		// the checkpoint-before-brownout ordering broke.
		if r.policy == PolicyEveryTile && r.tilesSince > 0 {
			r.violateLocked(ts, fmt.Sprintf("%d tiles completed without checkpoint before brownout", r.tilesSince))
		}
		r.powered = false
	case EvTileStart, EvTileDone, EvCheckpoint:
		if !r.powered {
			r.violateLocked(ts, fmt.Sprintf("%v while power is off", e.Kind))
		}
		switch e.Kind {
		case EvTileDone:
			if r.opened {
				r.open.TilesDone++
			}
			r.tilesSince++
		case EvCheckpoint:
			if r.opened {
				r.open.Checkpoints++
			}
			r.tilesSince = 0
		}
	case EvResume:
		if !r.powered {
			r.violateLocked(ts, "resume while power is off")
		}
		if r.opened {
			r.open.Resumes++
		}
	case EvRetry:
		if r.opened {
			r.open.Retries++
		}
	}
}

func (r *Recorder) violateLocked(ts float64, msg string) {
	if len(r.violations) >= maxViolations {
		r.dropped++
		return
	}
	r.violations = append(r.violations, Violation{TimeS: ts, Msg: msg})
}

// drain records a discrete capacitor drain (checkpoint save / resume):
// capJ removed capacitor-side, loadJ the load-side cost. Flushed into
// the ledger by the next step call so transition-step drains land in
// the segment they belong to.
func (r *Recorder) drain(capJ, loadJ units.Energy) {
	r.mu.Lock()
	r.flushLocked()
	r.pendDrain += float64(capJ)
	r.pendCkpt += float64(loadJ)
	r.mu.Unlock()
}

// stageSize is the number of records Recorder.step buffers before
// folding them under the lock.
const stageSize = 64

// stagePool recycles stages between runs. A run takes a stage in begin
// and gives it back when it finishes (release), so a recorder kept
// after its run — chrysalisd keeps one per verify job — holds none.
var stagePool = sync.Pool{New: func() any { return new([stageSize]stagedStep) }}

// stagedStep is one recorded step — or one analytic jump standing for n
// steps — captured at the moment the simulator reported it: the end
// time, the span it covers, the capacitor's end-of-step state, its
// energy flows (segment totals for a jump), its ∫V²dt contribution,
// the in-flight inference's cumulative load-side energies and the gate
// state. Folding it later reproduces the direct bookkeeping exactly.
type stagedStep struct {
	t, span, v, stored float64

	harvested, charged, convLoss, spilled, delivered, leaked float64
	vsq                                                      float64

	infer, nvmio, ckpt float64

	n  int64
	on bool
}

// step records one simulation step: the energy flows of the step report,
// the cumulative breakdown of the in-flight inference, and the
// subsystem's end-of-step state. tm is the time at the END of the step.
//
// It takes no lock: the record goes into the stage, which only the
// simulating goroutine touches, and is folded under the lock when the
// stage fills or before any other mutation (see flush).
func (r *Recorder) step(tm, dt units.Seconds, rep *energy.StepReport, bd *Breakdown) {
	s := &r.stage[r.staged]
	s.t = float64(tm)
	s.span = float64(dt)
	s.v = float64(r.es.Cap.Voltage())
	s.stored = float64(r.es.Cap.Stored())
	s.harvested = float64(rep.Harvested)
	s.charged = float64(rep.Charged)
	s.convLoss = float64(rep.ConversionLoss)
	s.spilled = float64(rep.Spilled)
	s.delivered = float64(rep.Delivered)
	s.leaked = float64(rep.Leaked)
	// The capacitor debits leakage at its pre-discharge voltage, which
	// it reports exactly, so the V² integral reproduces the leak-basis
	// trajectory rather than approximating it from end-of-step samples.
	vLeak := float64(rep.LeakVoltage)
	s.vsq = vLeak * vLeak * float64(dt)
	s.infer, s.nvmio, s.ckpt = float64(bd.Infer), float64(bd.NVMIO), float64(bd.Ckpt)
	s.n = 1
	s.on = rep.State == pmic.On
	r.staged++
	if r.staged == stageSize {
		r.flush()
	}
}

// segmentReport aggregates the flows of one analytic multi-step jump —
// the event simulator's macro-step equivalent of a StepReport. Flows
// are segment totals (capacitor-side, except harvested/conversionLoss);
// vsqIntegral is passed explicitly because the recorder cannot
// re-derive the per-step leak basis from aggregate flows. Quiet windows
// never spill or starve, so those flows are implicitly zero.
type segmentReport struct {
	n              int // steps the segment stands in for
	harvested      float64
	charged        float64
	conversionLoss float64
	delivered      float64
	leaked         float64
	vsqIntegral    float64
	on             bool // power gate state throughout the segment
}

// segment records one analytic jump of seg.n steps ending at tm. The
// subsystem state has already been advanced to the end of the window.
// Within a quiet window the voltage trajectory is monotone and the
// previous literal step sampled the window's start, so folding only the
// endpoint keeps MinV/MaxV (and MinVOn) exact. Jumps are folded at
// once, so live readers never see one late.
func (r *Recorder) segment(tm, dt units.Seconds, seg segmentReport, bd *Breakdown) {
	r.stage[r.staged] = stagedStep{
		t:         float64(tm),
		span:      float64(seg.n) * float64(dt),
		v:         float64(r.es.Cap.Voltage()),
		stored:    float64(r.es.Cap.Stored()),
		harvested: seg.harvested,
		charged:   seg.charged,
		convLoss:  seg.conversionLoss,
		delivered: seg.delivered,
		leaked:    seg.leaked,
		vsq:       seg.vsqIntegral,
		infer:     float64(bd.Infer),
		nvmio:     float64(bd.NVMIO),
		ckpt:      float64(bd.Ckpt),
		n:         int64(seg.n),
		on:        seg.on,
	}
	r.staged++
	r.flush()
}

// flush folds the staged records into the ledgers and bins under one
// lock acquisition. Only the simulating goroutine calls it: from step
// when the stage fills, at the end of every run, and (as flushLocked)
// at the top of every other mutation, so records fold in the order the
// simulator produced them.
func (r *Recorder) flush() {
	if r.staged == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
}

// release folds the staged records and returns the stage to the pool
// at the end of a run; the next begin takes one again.
func (r *Recorder) release() {
	r.flush()
	if r.stage != nil {
		stagePool.Put(r.stage)
		r.stage = nil
	}
}

func (r *Recorder) flushLocked() {
	for i := 0; i < r.staged; i++ {
		r.foldLocked(&r.stage[i])
	}
	r.staged = 0
}

// foldLocked applies one staged record to the open ledger, the
// cumulative channels and the bins.
func (r *Recorder) foldLocked(s *stagedStep) {
	// A power-on observed since the last step closes the ledger at the
	// previous step boundary; the transition step's flows (and any
	// resume drain) belong to the new cycle. (Jumps never immediately
	// follow a power-on — transitions happen on literal steps — but
	// the same rule keeps the ledger chain sound either way.)
	if r.pendingCycle {
		r.closeLedgerLocked()
		r.openLedgerLocked(r.lastT, r.lastStored)
		r.pendingCycle = false
	}

	// Drains are only ever pending after a literal step, so a jump
	// never counts as a drained step.
	drainedNow := r.pendDrain != 0 || r.pendCkpt != 0
	l := &r.open
	l.EndS = s.t
	l.EndStoredJ = s.stored
	l.HarvestedJ += s.harvested
	l.ChargedJ += s.charged
	l.ConversionLossJ += s.convLoss
	l.SpilledJ += s.spilled
	l.DeliveredJ += s.delivered
	l.LeakedJ += s.leaked
	l.DrainedJ += r.pendDrain
	l.CkptLoadJ += r.pendCkpt
	r.pendDrain, r.pendCkpt = 0, 0
	l.VSqIntegral += s.vsq
	if s.v < l.MinV {
		l.MinV = s.v
	}
	if s.v > l.MaxV {
		l.MaxV = s.v
	}
	// Gate state comes from the step report, not the event stream:
	// idle-phase stepping has no events, but the PMIC still switches.
	if s.on {
		l.OnSeconds += s.span
		if !drainedNow {
			l.OnSamples += int(s.n)
			if s.v < l.MinVOn {
				l.MinVOn = s.v
			}
		}
	}

	r.cumHarvest += s.harvested
	r.prevBD = Breakdown{Infer: units.Energy(s.infer), NVMIO: units.Energy(s.nvmio), Ckpt: units.Energy(s.ckpt)}

	// Fold the sample into the open bin, opening a new one when the
	// sample falls outside it. The one sample of a jump stands in for
	// its n raw steps.
	r.raw += s.n
	b := r.cur
	if b == nil || (r.binDur > 0 && s.t-b.t0 >= r.binDur) || (r.binDur == 0 && s.t > b.t1) {
		b = r.openBinLocked(s.t)
	}
	b.t1 = s.t
	b.count++
	var pHarvest, pLoad, pLeak float64
	if s.span > 0 {
		pHarvest = s.harvested / s.span
		pLoad = s.delivered / s.span
		pLeak = s.leaked / s.span
	}
	b.ch[ChVCap].add(s.v)
	b.ch[ChEStored].add(s.stored)
	b.ch[ChPHarvest].add(pHarvest)
	b.ch[ChPLoad].add(pLoad)
	b.ch[ChPLeak].add(pLeak)
	b.ch[ChEHarvest].add(r.cumHarvest)
	b.ch[ChECompute].add(float64(r.base.Infer) + s.infer)
	b.ch[ChENVMIO].add(float64(r.base.NVMIO) + s.nvmio)
	b.ch[ChECkpt].add(float64(r.base.Ckpt) + s.ckpt)
	b.ch[ChCycle].add(float64(r.cycleIndex))

	r.lastT = s.t
	r.lastStored = s.stored
}

// openBinLocked appends an empty bin starting at t, adding a segment
// when the store is full and compacting on budget overflow, and
// returns the open bin.
func (r *Recorder) openBinLocked(t float64) *wavebin {
	// Unclipped segments hold seg0Bins<<(len(r.segs)-1) bins in all; a
	// clipped one is the last and never fills, as compaction runs first.
	if len(r.segs) == 0 || r.nbins == seg0Bins<<(len(r.segs)-1) {
		r.addSegmentLocked()
	}
	b := r.binAt(r.nbins)
	*b = emptyBin
	b.t0, b.t1 = t, t
	r.nbins++
	if r.nbins > r.maxPoints {
		r.compactBinsLocked()
	}
	r.cur = r.binAt(r.nbins - 1)
	return r.cur
}

// addSegmentLocked appends the next segment to a full store, clipped so
// the store holds at most maxPoints+1 bins.
func (r *Recorder) addSegmentLocked() {
	held := r.nbins
	n := held
	if len(r.segs) == 0 {
		n = seg0Bins
		r.segs = make([][]wavebin, 0, segmentCount(r.maxPoints+1))
	}
	if n > r.maxPoints+1-held {
		n = r.maxPoints + 1 - held
	}
	r.segs = append(r.segs, make([]wavebin, n))
}

// binAt returns bin i of the store.
func (r *Recorder) binAt(i int) *wavebin {
	if i < seg0Bins {
		return &r.segs[0][i]
	}
	k := bits.Len(uint(i)) - seg0Log
	return &r.segs[k][i-1<<(k+seg0Log-1)]
}

// binsLocked calls visit with every bin in use, in time order, until
// visit returns false.
func (r *Recorder) binsLocked(visit func(b *wavebin) bool) {
	left := r.nbins
	for _, seg := range r.segs {
		if left == 0 {
			return
		}
		if len(seg) > left {
			seg = seg[:left]
		}
		for i := range seg {
			if !visit(&seg[i]) {
				return
			}
		}
		left -= len(seg)
	}
}

// compactBinsLocked merges adjacent bin pairs in place and doubles the
// bin width, keeping the true min/max of every absorbed sample.
func (r *Recorder) compactBinsLocked() {
	if r.binDur == 0 {
		span := r.binAt(r.nbins-1).t1 - r.binAt(0).t0
		r.binDur = 2 * span / float64(r.nbins)
		if r.binDur <= 0 {
			r.binDur = math.SmallestNonzeroFloat64
		}
	} else {
		r.binDur *= 2
	}
	half := r.nbins / 2
	for i := 0; i < half; i++ {
		b := r.binAt(i)
		if i > 0 {
			*b = *r.binAt(2 * i)
		}
		nb := r.binAt(2*i + 1)
		b.t1 = nb.t1
		b.count += nb.count
		for c := range b.ch {
			b.ch[c].merge(nb.ch[c])
		}
	}
	if r.nbins%2 == 1 {
		*r.binAt(half) = *r.binAt(r.nbins - 1)
		half++
	}
	r.nbins = half
}

// EnergySpec returns the (defaults-filled) spec of the subsystem the
// recorder observed — the constants the audit pass reconstructs
// leakage and voltage bounds from. Zero before the first run.
func (r *Recorder) EnergySpec() energy.Spec {
	if r == nil {
		return energy.Spec{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.espec
}

// Violations returns the event-stream invariant violations observed so
// far (bounded at 64) and how many more were dropped.
func (r *Recorder) Violations() ([]Violation, int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.violations...), r.dropped
}

// Cycles snapshots the per-cycle ledgers, including the open segment.
func (r *Recorder) Cycles() []CycleLedger {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cyclesLocked()
}

func (r *Recorder) cyclesLocked() []CycleLedger {
	out := append([]CycleLedger(nil), r.cycles...)
	if r.opened && (r.open.EndS > r.open.StartS || r.open.HarvestedJ != 0) {
		out = append(out, r.open)
	}
	// Sanitize infinities so snapshots JSON-marshal cleanly: a segment
	// with no powered time reports MinVOn = 0 (OnSeconds disambiguates),
	// and a segment with no samples reports zero voltage bounds.
	for i := range out {
		if math.IsInf(out[i].MinVOn, 1) {
			out[i].MinVOn = 0
		}
		if math.IsInf(out[i].MinV, 1) {
			out[i].MinV, out[i].MaxV = 0, 0
		}
	}
	return out
}

// Waveform snapshots the recorder into an exportable waveform.
func (r *Recorder) Waveform() Waveform {
	if r == nil {
		return Waveform{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := Waveform{
		BinSeconds: r.binDur,
		RawSamples: r.raw,
		Cycles:     r.cyclesLocked(),
	}
	if r.nbins > 0 {
		w.StartS = r.binAt(0).t0
		w.EndS = r.cur.t1
	}
	w.binCounts = make([]int64, r.nbins)
	w.Channels = make([]WaveChannel, numChannels)
	for c := range w.Channels {
		w.Channels[c] = WaveChannel{
			Name:   channelMeta[c].Name,
			Unit:   channelMeta[c].Unit,
			Points: make([]WavePoint, r.nbins),
		}
	}
	i := 0
	r.binsLocked(func(b *wavebin) bool {
		w.binCounts[i] = b.count
		for c := range w.Channels {
			a := &b.ch[c]
			w.Channels[c].Points[i] = WavePoint{
				T:    b.t0,
				Min:  a.min,
				Max:  a.max,
				Mean: a.sum / float64(b.count),
				Last: a.last,
			}
		}
		i++
		return true
	})
	return w
}

// WalkLast calls visit with the start time and last value of every bin
// of the named channel, in time order and under the recorder's lock,
// until visit returns false. It reports whether the channel exists
// (false for a nil recorder). Unlike Waveform it copies nothing, so a
// check over one channel's trajectory skips the full snapshot; visit
// must not call back into the recorder.
func (r *Recorder) WalkLast(name string, visit func(t0, last float64) bool) bool {
	if r == nil {
		return false
	}
	c := 0
	for c < numChannels && channelMeta[c].Name != name {
		c++
	}
	if c == numChannels {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.binsLocked(func(b *wavebin) bool { return visit(b.t0, b.ch[c].last) })
	return true
}
