// Package explore implements the CHRYSALIS Explorer: the bi-level
// search of Sec. III-C. The outer HW-level optimizer (a genetic
// algorithm over panel area, capacitor size and — for accelerator
// platforms — architecture, PE count and PE cache) proposes hardware
// configurations; for each, the inner SW-level optimizer searches the
// mapping space (dataflow × partition × tile count per layer) and
// returns the best achievable objective, which the outer loop then
// optimizes. Table VI's ablation baselines (wo/Cap … wo/IA) are the
// same search with the corresponding dimensions pinned to fixed
// defaults.
package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/msp430"
	"chrysalis/internal/obs"
	"chrysalis/internal/search"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
	"chrysalis/internal/storage"
	"chrysalis/internal/units"
)

// ErrNoFeasibleDesign reports that a search finished without finding
// any candidate satisfying every constraint. Callers that treat an
// empty search as a legitimate outcome (small GA budgets, sweeps over
// hostile scenarios) match it with errors.Is.
var ErrNoFeasibleDesign = errors.New("no feasible design")

// Objective selects the design target (Sec. IV): minimize latency under
// a solar-panel bound, minimize panel size under a latency bound, or
// minimize their product (space-time cost).
type Objective int

const (
	// Lat minimizes average latency subject to MaxPanel.
	Lat Objective = iota
	// SP minimizes panel area subject to MaxLatency.
	SP
	// LatSP minimizes latency × panel area.
	LatSP
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Lat:
		return "lat"
	case SP:
		return "sp"
	case LatSP:
		return "lat*sp"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Objectives lists all objectives in paper order.
func Objectives() []Objective { return []Objective{Lat, SP, LatSP} }

// ParseObjective converts a name to an Objective.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "lat":
		return Lat, nil
	case "sp":
		return SP, nil
	case "lat*sp", "latsp":
		return LatSP, nil
	default:
		return 0, fmt.Errorf("explore: unknown objective %q (want lat, sp or lat*sp)", s)
	}
}

// PlatformKind selects the inference-hardware family.
type PlatformKind int

const (
	// MSP is the existing-AuT platform (MSP430FR5994 + LEA, Table IV).
	MSP PlatformKind = iota
	// Accel is the future-AuT reconfigurable accelerator (Table V).
	Accel
)

// String implements fmt.Stringer.
func (p PlatformKind) String() string {
	if p == MSP {
		return "msp430"
	}
	return "accel"
}

// Baseline identifies a Table VI search-space ablation.
type Baseline int

const (
	// Full is CHRYSALIS: every dimension searched.
	Full Baseline = iota
	// WoCap pins the capacitor size.
	WoCap
	// WoSP pins the solar-panel area (the iNAS design approach).
	WoSP
	// WoEA pins the whole energy subsystem (SONIC/HAWAII-style).
	WoEA
	// WoPE pins the PE count.
	WoPE
	// WoCache pins the PE cache size.
	WoCache
	// WoIA pins the whole inference subsystem.
	WoIA
)

// String implements fmt.Stringer.
func (b Baseline) String() string {
	switch b {
	case Full:
		return "chrysalis"
	case WoCap:
		return "wo/Cap"
	case WoSP:
		return "wo/SP"
	case WoEA:
		return "wo/EA"
	case WoPE:
		return "wo/PE"
	case WoCache:
		return "wo/Cache"
	case WoIA:
		return "wo/IA"
	default:
		return fmt.Sprintf("baseline(%d)", int(b))
	}
}

// Baselines lists the Table VI rows in paper order (CHRYSALIS last).
func Baselines() []Baseline {
	return []Baseline{WoCap, WoSP, WoEA, WoPE, WoCache, WoIA, Full}
}

// Fixed defaults used when a baseline pins a dimension. The panel and
// capacitor values reproduce the iNAS reference operating point the
// paper replicates in Figure 7 (P_in = 6 mW ⇒ 6 cm² bright, C = 1 mF);
// the inference defaults are mid-range values a designer might pick
// without search.
const (
	FixedPanel units.AreaCM2     = 6
	FixedCap   units.Capacitance = 1e-3
	FixedNPE                     = 16
	FixedCache units.Bytes       = 256
)

// Scenario describes one design problem.
type Scenario struct {
	Workload dnn.Workload
	Platform PlatformKind
	// Envs are the solar environments to average over; nil selects the
	// paper's bright+dark pair.
	Envs      []solar.Environment
	Objective Objective
	// MaxPanel bounds the panel for the Lat objective (0 ⇒ 30 cm²).
	MaxPanel units.AreaCM2
	// MaxLatency bounds latency for the SP objective (0 ⇒ 30 s).
	MaxLatency units.Seconds
	// Rexc is the energy-exception rate (<0 ⇒ default).
	Rexc float64
	// Arch, when non-nil, pins the accelerator architecture instead of
	// searching it (the per-architecture columns of Figure 10).
	Arch *accel.Arch
	// SimMode selects the simulator core a replay of this scenario runs
	// (core.VerifyFlight reads it). Search scoring always stays on the
	// analytic evaluator. The zero value is the event-driven simulator
	// (sim.ModeEvent).
	SimMode sim.Mode
	// Warm, when non-nil, attaches a process-lifetime warm-start tier:
	// the evaluator resolves fingerprints through it, reusing ladder sets
	// previous searches built for the same hardware fingerprint and
	// publishing the sets it builds. Nil keeps every search cold.
	// Because rungs are deterministic and never change once published,
	// attaching a tier never affects results — warm and cold runs
	// produce bit-identical Outcomes.
	Warm *WarmCache
}

func (s Scenario) withDefaults() Scenario {
	if s.Envs == nil {
		s.Envs = []solar.Environment{solar.Bright(), solar.Dark()}
	}
	if s.MaxPanel == 0 {
		s.MaxPanel = solar.MaxPanelArea
	}
	if s.MaxLatency == 0 {
		s.MaxLatency = 30
	}
	if s.Rexc < 0 {
		s.Rexc = intermittent.DefaultExceptionRate
	}
	return s
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if s.Platform != MSP && s.Platform != Accel {
		return fmt.Errorf("explore: unknown platform %d", int(s.Platform))
	}
	switch s.Objective {
	case Lat, SP, LatSP:
	default:
		return fmt.Errorf("explore: unknown objective %d", int(s.Objective))
	}
	if s.MaxPanel < 0 || s.MaxPanel > solar.MaxPanelArea {
		return fmt.Errorf("explore: MaxPanel %v outside (0, %v]", s.MaxPanel, solar.MaxPanelArea)
	}
	return nil
}

// Candidate is one hardware design point.
type Candidate struct {
	PanelArea units.AreaCM2
	Cap       units.Capacitance
	// Accel is set for the Accel platform; MSP candidates leave it nil.
	Accel *accel.Config
}

// String renders the candidate for reports.
func (c Candidate) String() string {
	if c.Accel != nil {
		return fmt.Sprintf("sp=%v cap=%v arch=%v pe=%d cache=%v",
			c.PanelArea, c.Cap, c.Accel.Arch, c.Accel.NPE, c.Accel.CacheBytes)
	}
	return fmt.Sprintf("sp=%v cap=%v msp430", c.PanelArea, c.Cap)
}

// LayerChoice records the mapping the inner optimizer chose for one layer.
type LayerChoice struct {
	Layer   string
	Mapping dataflow.Mapping
	Plan    intermittent.Plan
}

// EnvResult is the evaluation under one environment.
type EnvResult struct {
	Env        string
	Latency    units.Seconds
	Energy     units.Energy
	CkptEnergy units.Energy
	Efficiency float64
	Feasible   bool
}

// Evaluation is the full assessment of one candidate.
type Evaluation struct {
	Candidate Candidate
	Mappings  []LayerChoice
	PerEnv    []EnvResult
	// AvgLatency averages the per-environment latencies (the paper's
	// search metric for dual-environment robustness).
	AvgLatency units.Seconds
	// LatSP is AvgLatency × PanelArea (cm²·s).
	LatSP    float64
	Feasible bool
}

// platformLoad returns the inference subsystem's active power draw.
func platformLoad(sc Scenario, cand Candidate, df dataflow.Dataflow) (units.Power, error) {
	if sc.Platform == MSP {
		return msp430.Config{}.ActivePower(), nil
	}
	return cand.Accel.ActivePower(df)
}

// platformHW returns the dataflow cost constants.
func platformHW(sc Scenario, cand Candidate, df dataflow.Dataflow) (dataflow.HW, error) {
	if sc.Platform == MSP {
		return msp430.Config{}.HW(), nil
	}
	return cand.Accel.HW(df)
}

// dataflowChoices returns the dataflows the inner optimizer explores.
func dataflowChoices(sc Scenario) []dataflow.Dataflow {
	if sc.Platform == MSP {
		// Single-PE device: the taxonomy degenerates; OS matches how
		// the LEA accumulates.
		return []dataflow.Dataflow{dataflow.OS}
	}
	return dataflow.Dataflows()
}

// budgetMargin leaves headroom between the planned tile energy and the
// cycle budget so jitter does not starve tiles at the boundary.
const budgetMargin = 0.9

// buildSubsystems instantiates the candidate's energy subsystem under
// every environment once; the slice is shared between the inner
// search's budget function and the analytic evaluation pass (the
// subsystem's closed-form queries are read-only).
func buildSubsystems(envs []solar.Environment, cand Candidate) ([]*energy.Subsystem, error) {
	subsystems := make([]*energy.Subsystem, 0, len(envs))
	for _, env := range envs {
		es, err := energy.NewSolar(energy.Spec{PanelArea: cand.PanelArea, Cap: cand.Cap}, env)
		if err != nil {
			return nil, err
		}
		subsystems = append(subsystems, es)
	}
	return subsystems, nil
}

// cycleBudget returns the Eq. 8 budget closure over the candidate's
// prepared per-environment budgets: the minimum cycle budget across
// environments at the querying tile's own power draw (with the Eq. 3 T
// term), scaled by the jitter margin.
func cycleBudget(bs []energy.Budgeter) intermittent.BudgetFunc {
	return func(load units.Power) units.Energy {
		minB := units.Energy(math.Inf(1))
		for i := range bs {
			b, _ := bs[i].At(load)
			if b < minB {
				minB = b
			}
		}
		if math.IsInf(float64(minB), 1) {
			return 1e6 // always-on: effectively unbounded
		}
		return units.Energy(float64(minB) * budgetMargin)
	}
}

// Evaluator runs candidate evaluations for one scenario, memoizing the
// expensive half of the inner mapping search: per-layer plan ladders
// keyed on the candidate's hardware fingerprint. Candidates that differ
// only in energy genes (panel area, capacitance) — the dimensions the
// outer GA mutates most — reuse the pinned ladders and pay only a cheap
// budget scan. On the MSP platform the fingerprint is constant, so the
// whole search resolves the ladders exactly once.
//
// An Evaluator is safe for concurrent use by multiple goroutines
// (search.GAConfig.Workers > 1), and its cache counters are the same
// for any worker count.
type Evaluator struct {
	sc Scenario
	// pins maps every fingerprint this search has asked for to its
	// resolved ladder set; the process tier (sc.Warm), when attached, is
	// the only shared store behind it. release sets it to nil.
	mu   sync.Mutex
	pins map[fingerprint]*pin
	// lookups counts ladder-set requests, misses the distinct
	// fingerprints pinned, and builds the sets this search built itself
	// rather than taking from sc.Warm. rungs counts the rung-kernel
	// calls this evaluator's scans made; each inner search sums its own
	// and adds them once, so workers do not contend on it per rung build.
	lookups, misses, builds, rungs atomic.Int64
	// subs memoizes energy subsystems per (panel, cap) gene pair.
	subs *subsystemCache
	// layers is the evaluator's copy of the workload's layers, sizes
	// their mapping-independent sizes for the ladder floors, and ntiles
	// lists each layer's candidate tile counts per partition. They depend
	// only on the workload, so this evaluator's first ladder-set build
	// makes them (inputsOnce) and every set it builds reads them in
	// place; a search served only by the warm tier never pays for them.
	inputsOnce sync.Once
	layers     []dnn.Layer
	sizes      []intermittent.LayerSizes
	ntiles     [][2][]int
	// slab, set only by the search that owns the evaluator and attaches
	// no warm tier, supplies its ladder sets' storage until release.
	slab *slab
	// trace, set only by a search whose ctx carries one (obs.WithTrace),
	// records evaluation spans: score vs. full evaluate, ladder builds,
	// per-span cache hit/miss attributes. Nil keeps every path untraced
	// at the cost of one nil test; it never affects results.
	trace *obs.Trace
}

// NewEvaluator validates the scenario (filling defaults) and returns an
// evaluator with no fingerprints pinned yet.
func NewEvaluator(sc Scenario) (*Evaluator, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{sc: sc, pins: make(map[fingerprint]*pin), subs: newSubsystemCache(sc.Envs)}, nil
}

// newSearchEvaluator returns the evaluator of one Explore, ParetoScan
// or ParetoSearch run, which must call release after its last use of
// it. Without a warm tier, no ladder set it builds outlives the search,
// so their storage comes from a slab of recycled blocks. The run's
// tracer, if ctx carries one, is read here once.
func newSearchEvaluator(ctx context.Context, sc Scenario) (*Evaluator, error) {
	e, err := NewEvaluator(sc)
	if err != nil {
		return nil, err
	}
	if e.sc.Warm == nil {
		e.slab = new(slab)
	}
	e.trace = obs.TraceFrom(ctx)
	return e, nil
}

// release ends the search that owns e: it drops the pinned ladder sets
// and hands the slab's blocks back for later searches to recycle. The
// evaluator is unusable afterwards; a later lookup panics rather than
// read storage another search may be reusing.
func (e *Evaluator) release() {
	e.mu.Lock()
	e.pins = nil
	s := e.slab
	e.slab = nil
	e.mu.Unlock()
	if s != nil {
		s.release()
	}
}

// Scenario returns the default-filled scenario the evaluator serves.
func (e *Evaluator) Scenario() Scenario { return e.sc }

// CacheStats returns this evaluator's ladder-set hits and misses:
// misses are the distinct fingerprints it resolved, hits every other
// lookup.
func (e *Evaluator) CacheStats() (hits, misses int64) {
	misses = e.misses.Load()
	return e.lookups.Load() - misses, misses
}

// WarmHits returns how many of this evaluator's misses the attached
// warm tier served instead of a build of its own. Zero when no tier is
// attached.
func (e *Evaluator) WarmHits() int64 {
	return e.misses.Load() - e.builds.Load()
}

// RungsBuilt returns how many candidate tile counts this evaluator's
// scans ran through the rung kernel. For a search without a warm tier
// it is the sum over ladders of the furthest candidate any scan reached,
// so it is the same for any worker count.
func (e *Evaluator) RungsBuilt() int64 { return e.rungs.Load() }

// ladderSetFor returns the candidate's ladder set, resolving its
// fingerprint on the first request and serving the pinned set after.
func (e *Evaluator) ladderSetFor(cand Candidate) (*ladderSet, error) {
	fp := fingerprintOf(e.sc, cand)
	e.lookups.Add(1)
	e.mu.Lock()
	if e.pins == nil {
		e.mu.Unlock()
		panic("explore: evaluator used after its search released it")
	}
	p, ok := e.pins[fp]
	if !ok {
		p = &pin{}
		e.pins[fp] = p
		e.misses.Add(1)
	}
	e.mu.Unlock()
	p.once.Do(func() { p.ls, p.err = e.resolve(fp, cand) })
	return p.ls, p.err
}

// resolve produces fp's ladder set for its pin: through the warm tier
// when one is attached, so concurrent searches share one build, and by
// building it directly otherwise.
func (e *Evaluator) resolve(fp fingerprint, cand Candidate) (*ladderSet, error) {
	build := func() (*ladderSet, error) {
		e.builds.Add(1)
		if e.trace == nil {
			return e.buildLadderSet(cand)
		}
		sp := e.trace.Start("explore", "ladder-build",
			obs.A("platform", e.sc.Platform.String()), obs.A("arch", fp.arch.String()),
			obs.A("npe", fp.npe), obs.A("layers", fp.layers))
		ls, err := e.buildLadderSet(cand)
		sp.End(obs.A("err", err != nil))
		return ls, err
	}
	if w := e.sc.Warm; w != nil {
		return w.get(fp, build)
	}
	return build()
}

// evalArena is the per-evaluation scratch every scoring pass needs: the
// per-layer winning plans, materialized into reusable backing storage.
// Arenas are pooled (arenaPool), so the steady-state score path — the
// one the outer GA runs thousands of times — does not allocate the
// plan storage per candidate.
type evalArena struct {
	backing []intermittent.Plan
	plans   []*intermittent.Plan
}

var arenaPool = sync.Pool{New: func() any { return &evalArena{} }}

// takeArena returns a pooled arena resized for n layers, with plans[i]
// aliasing backing[i]. Return it with arenaPool.Put once every datum
// derived from the plans has been copied out.
func takeArena(n int) *evalArena {
	a := arenaPool.Get().(*evalArena)
	if cap(a.backing) < n {
		a.backing = make([]intermittent.Plan, n)
		a.plans = make([]*intermittent.Plan, n)
	}
	a.backing = a.backing[:n]
	a.plans = a.plans[:n]
	for i := range a.plans {
		a.plans[i] = &a.backing[i]
	}
	return a
}

// innerSearch is the SW-level optimizer: for a fixed candidate it
// chooses, per layer, the (dataflow, partition, N_tile) minimizing the
// layer's total energy, subject to every tile fitting the tightest
// per-cycle budget across environments (Eq. 8) — ladderSet.best. The
// per-layer plan ladders come from the pinned ladder set; only the
// budget scan runs per candidate, over slim rungs built on demand, and
// only each layer's winner is materialized as a full Plan — by tile
// count, into the caller's arena, which the returned pointers alias.
//
// When a layer has no feasible rung, innerSearch returns the bare
// intermittent.ErrNoFeasibleTile together with the plans of the layers
// before it, so the score path never formats an error; evaluateInner
// names the layer.
func (e *Evaluator) innerSearch(cand Candidate, budget intermittent.BudgetFunc, a *evalArena) ([]*intermittent.Plan, error) {
	ls, err := e.ladderSetFor(cand)
	if err != nil {
		return nil, err
	}
	var built int64
	defer func() {
		if built > 0 {
			e.rungs.Add(built)
		}
	}()
	for li := range e.sc.Workload.Layers {
		k, r, ok := ls.best(li, budget, &built)
		if !ok {
			return a.plans[:li], intermittent.ErrNoFeasibleTile
		}
		ls.planInto(k, r.NTile, &a.backing[li])
	}
	return a.plans, nil
}

// quickScore is the allocation-lean evaluation the search loops consume:
// just the objective ingredients, no per-layer mappings or per-env
// reports materialized.
type quickScore struct {
	avgLatency units.Seconds
	latSP      float64
	feasible   bool
}

// score computes a candidate's objective ingredients without
// materializing a full Evaluation. It runs the same inner search and
// the same analytic model as Evaluate, so the numbers are bit-identical
// to the ones Evaluate reports; only the discarded per-candidate
// bookkeeping (layer choices, per-env reports) is skipped. When the
// search is traced, each score records a span annotated with
// feasibility and the ladder-set hits/misses it incurred; with tracing
// off the fast path is untouched.
func (e *Evaluator) score(cand Candidate) (quickScore, error) {
	if tr := e.trace; tr != nil {
		h0, m0 := e.CacheStats()
		sp := tr.Start("explore", "score")
		s, err := e.scoreInner(cand)
		h1, m1 := e.CacheStats()
		sp.End(obs.A("feasible", s.feasible), obs.A("cache_hits", h1-h0),
			obs.A("cache_misses", m1-m0), obs.A("err", err != nil))
		return s, err
	}
	return e.scoreInner(cand)
}

// scoreInner is the uninstrumented scoring path.
func (e *Evaluator) scoreInner(cand Candidate) (quickScore, error) {
	if err := e.checkCandidate(cand); err != nil {
		return quickScore{}, err
	}
	subsystems, budget, err := e.subs.get(cand)
	if err != nil {
		return quickScore{}, err
	}
	a := takeArena(len(e.sc.Workload.Layers))
	defer arenaPool.Put(a)
	plans, err := e.innerSearch(cand, budget, a)
	if err != nil {
		return quickScore{}, err
	}
	tot := intermittent.SumRefs(plans)

	var latSum float64
	feasible := true
	for i := range e.sc.Envs {
		r := sim.AnalyticTotals(subsystems[i], tot)
		if !r.Completed {
			feasible = false
			continue
		}
		latSum += float64(r.E2ELatency)
	}
	s := quickScore{feasible: feasible}
	if feasible {
		s.avgLatency = units.Seconds(latSum / float64(len(e.sc.Envs)))
		s.latSP = float64(s.avgLatency) * float64(cand.PanelArea)
	} else {
		s.avgLatency = units.Seconds(math.Inf(1))
		s.latSP = math.Inf(1)
	}
	return s, nil
}

// checkCandidate validates the candidate/platform pairing.
func (e *Evaluator) checkCandidate(cand Candidate) error {
	if e.sc.Platform == Accel {
		if cand.Accel == nil {
			return fmt.Errorf("explore: accel platform needs an accelerator config")
		}
		return cand.Accel.Validate()
	}
	if cand.Accel != nil {
		return fmt.Errorf("explore: MSP platform must not carry an accelerator config")
	}
	return nil
}

// Evaluate runs the inner mapping search and the analytic evaluator
// under every environment for one candidate, reusing cached plan
// ladders and building each environment's energy subsystem exactly
// once. In a traced search it records a "full-evaluate"
// span, distinguishing the rare materializing evaluations from the
// lean score path in a trace.
func (e *Evaluator) Evaluate(cand Candidate) (Evaluation, error) {
	if tr := e.trace; tr != nil {
		sp := tr.Start("explore", "full-evaluate")
		ev, err := e.evaluateInner(cand)
		sp.End(obs.A("feasible", ev.Feasible), obs.A("err", err != nil))
		return ev, err
	}
	return e.evaluateInner(cand)
}

// evaluateInner is the uninstrumented evaluation path.
func (e *Evaluator) evaluateInner(cand Candidate) (Evaluation, error) {
	sc := e.sc
	if err := e.checkCandidate(cand); err != nil {
		return Evaluation{}, err
	}

	ev := Evaluation{Candidate: cand}
	subsystems, budget, err := e.subs.get(cand)
	if err != nil {
		return ev, err
	}

	a := takeArena(len(sc.Workload.Layers))
	defer arenaPool.Put(a)
	plans, err := e.innerSearch(cand, budget, a)
	if errors.Is(err, intermittent.ErrNoFeasibleTile) {
		return ev, fmt.Errorf("explore: layer %s infeasible on %s: %w",
			sc.Workload.Layers[len(plans)].Name, cand, err)
	}
	if err != nil {
		return ev, err
	}
	ev.Mappings = make([]LayerChoice, len(plans))
	for i, p := range plans {
		ev.Mappings[i] = LayerChoice{Layer: p.Layer.Name, Mapping: p.Cost.Mapping, Plan: *p}
	}
	tot := intermittent.SumRefs(plans)

	var latSum float64
	feasible := true
	for i, env := range sc.Envs {
		r := sim.AnalyticTotals(subsystems[i], tot)
		er := EnvResult{
			Env:        env.Name(),
			Latency:    r.E2ELatency,
			Energy:     r.Breakdown.Delivered(),
			CkptEnergy: r.Breakdown.Ckpt,
			Efficiency: r.SystemEfficiency,
			Feasible:   r.Completed,
		}
		ev.PerEnv = append(ev.PerEnv, er)
		if !r.Completed {
			feasible = false
			continue
		}
		latSum += float64(r.E2ELatency)
	}
	ev.Feasible = feasible
	if feasible {
		ev.AvgLatency = units.Seconds(latSum / float64(len(sc.Envs)))
		ev.LatSP = float64(ev.AvgLatency) * float64(cand.PanelArea)
	} else {
		ev.AvgLatency = units.Seconds(math.Inf(1))
		ev.LatSP = math.Inf(1)
	}
	return ev, nil
}

// EvaluateCandidate runs the inner mapping search and the analytic
// evaluator under every environment. It is the one-shot form of
// Evaluator.Evaluate; callers evaluating many candidates of one
// scenario should create an Evaluator to share its pinned ladders.
func EvaluateCandidate(sc Scenario, cand Candidate) (Evaluation, error) {
	e, err := NewEvaluator(sc)
	if err != nil {
		return Evaluation{}, err
	}
	return e.Evaluate(cand)
}

// SimConfig is the one place a design point becomes a simulator run:
// it returns the co-simulator configuration that replays the evaluated
// candidate under env — a copy of its per-layer plans, its inference
// hardware (the MSP430, or the accelerator in its native dataflow) and
// its energy subsystem built under env. The environments the
// evaluation was planned under and the one that powers the replay may
// differ (verification plans under every environment of a scenario and
// replays the first). Trace, Record, Policy, Step and the other run
// knobs are left for the caller to set.
func (ev Evaluation) SimConfig(env solar.Environment) (sim.Config, error) {
	cand := ev.Candidate
	if len(ev.Mappings) == 0 {
		return sim.Config{}, fmt.Errorf("explore: no feasible mapping for %s", cand)
	}
	hw := msp430.Config{}.HW()
	if ac := cand.Accel; ac != nil {
		var err error
		if hw, err = ac.HW(ac.NativeDataflow()); err != nil {
			return sim.Config{}, err
		}
	}
	es, err := energy.NewSolar(energy.Spec{PanelArea: cand.PanelArea, Cap: cand.Cap}, env)
	if err != nil {
		return sim.Config{}, err
	}
	plans := make([]intermittent.Plan, len(ev.Mappings))
	for i, m := range ev.Mappings {
		plans[i] = m.Plan
	}
	return sim.Config{Energy: es, HW: hw, Plans: plans}, nil
}

// objectiveOf scores a candidate's objective ingredients (lower is
// better, +Inf infeasible).
func objectiveOf(sc Scenario, panel units.AreaCM2, s quickScore) float64 {
	if !s.feasible {
		return math.Inf(1)
	}
	switch sc.Objective {
	case Lat:
		if panel > sc.MaxPanel {
			return math.Inf(1)
		}
		return float64(s.avgLatency)
	case SP:
		v := float64(panel)
		if s.avgLatency > sc.MaxLatency {
			// Smooth penalty keeps the GA gradient toward feasibility.
			excess := float64(s.avgLatency-sc.MaxLatency) / float64(sc.MaxLatency)
			v += float64(solar.MaxPanelArea) * (1 + excess)
		}
		return v
	default: // LatSP
		return s.latSP
	}
}

// objectiveValue scores an evaluation (lower is better, +Inf infeasible).
func objectiveValue(sc Scenario, ev Evaluation) float64 {
	return objectiveOf(sc, ev.Candidate.PanelArea,
		quickScore{avgLatency: ev.AvgLatency, latSP: ev.LatSP, feasible: ev.Feasible})
}

// genomeSpec describes which dimensions the baseline searches.
type genomeSpec struct {
	sp, cap, arch, npe, cache bool
}

func spec(sc Scenario, b Baseline) genomeSpec {
	g := genomeSpec{sp: true, cap: true}
	if sc.Platform == Accel {
		g.arch, g.npe, g.cache = true, true, true
		if sc.Arch != nil {
			g.arch = false
		}
	}
	switch b {
	case WoCap:
		g.cap = false
	case WoSP:
		g.sp = false
	case WoEA:
		g.sp, g.cap = false, false
	case WoPE:
		g.npe = false
	case WoCache:
		g.cache = false
	case WoIA:
		g.arch, g.npe, g.cache = false, false, false
	}
	return g
}

func (g genomeSpec) dim() int {
	n := 0
	for _, b := range []bool{g.sp, g.cap, g.arch, g.npe, g.cache} {
		if b {
			n++
		}
	}
	if n == 0 {
		n = 1 // degenerate space still needs a genome for the optimizer
	}
	return n
}

// decode maps a genome to a candidate under the scenario's bounds.
func decode(sc Scenario, g genomeSpec, genome []float64) Candidate {
	i := 0
	next := func() float64 {
		v := genome[i%len(genome)]
		i++
		return v
	}
	cand := Candidate{PanelArea: FixedPanel, Cap: FixedCap}
	maxSP := float64(sc.MaxPanel)
	if g.sp {
		cand.PanelArea = units.AreaCM2(search.MapFloat(next(), float64(solar.MinPanelArea), maxSP, false))
	}
	if g.cap {
		cand.Cap = units.Capacitance(search.MapFloat(next(),
			float64(storage.MinCapacitance), float64(storage.MaxCapacitance), true))
	}
	if sc.Platform == Accel {
		ac := accel.Config{Arch: accel.TPU, NPE: FixedNPE, CacheBytes: FixedCache}
		if sc.Arch != nil {
			ac.Arch = *sc.Arch
		}
		if g.arch {
			ac.Arch = accel.Arches()[search.MapChoice(next(), len(accel.Arches()))]
		}
		if g.npe {
			ac.NPE = search.MapInt(next(), accel.MinPE, accel.MaxPE)
		}
		if g.cache {
			ac.CacheBytes = units.Bytes(search.MapFloat(next(),
				float64(accel.MinCacheBytes), float64(accel.MaxCacheBytes), true))
		}
		cand.Accel = &ac
	}
	return cand
}

// Outcome is the result of one Explore run.
type Outcome struct {
	Scenario Scenario
	Baseline Baseline
	Best     Evaluation
	// Value is the best objective value (lower is better).
	Value float64
	// Evals is the number of candidate evaluations spent.
	Evals int
	// Workers is the resolved candidate-evaluation concurrency: every
	// batch of the run fanned out across this many goroutines (fewer
	// only for a smaller batch; 1 = serial). It never affects the other
	// fields: Outcomes are bit-identical for any worker count at the
	// same seed.
	Workers int
	// CacheHits / CacheMisses count the evaluator's ladder-set lookups
	// across the run: misses are the distinct hardware fingerprints,
	// hits every other lookup, both the same for any worker count.
	// WarmHits is the subset of misses served by the process-lifetime
	// warm tier (Scenario.Warm) instead of a fresh ladder build; it is
	// zero with no tier attached.
	CacheHits   int64
	CacheMisses int64
	WarmHits    int64
	// RungsBuilt counts the candidate tile counts the run's ladder scans
	// evaluated with the rung kernel (Evaluator.RungsBuilt): the work
	// behind its cold ladder builds, the same for any worker count.
	RungsBuilt int64
	// History is the outer GA's per-generation best-objective series
	// (search.Result.History), and Quality the matching per-generation
	// population statistics — the search observatory's raw material.
	History []float64
	Quality search.QualityHistory
	// StoppedEarly reports that the plateau policy (GAConfig.Patience)
	// ended the search before the configured generation count; the stop
	// generation is len(History).
	StoppedEarly bool
}

// resolveWorkers maps the Workers convention shared by Explore,
// ParetoScan and ParetoSearch onto an explicit worker count: 0 (the
// zero value) selects GOMAXPROCS — one design request uses the whole
// machine by default — negative opts out to serial, and >= 1 is taken
// literally.
func resolveWorkers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// bestTracker folds (evaluation index, value, genome) observations into
// the winning genome under concurrent evaluation. Ties on the objective
// value are broken toward the LOWEST evaluation index: a serial fold
// only replaces the best on strict improvement, so the first (lowest-
// index) genome reaching a value wins — the tracker reproduces exactly
// that choice regardless of the order parallel workers report in.
type bestTracker struct {
	mu     sync.Mutex
	value  float64
	index  int
	genome []float64
}

func newBestTracker() *bestTracker {
	return &bestTracker{value: math.Inf(1), index: math.MaxInt}
}

func (b *bestTracker) observe(idx int, v float64, genome []float64) {
	if math.IsInf(v, 1) {
		return
	}
	b.mu.Lock()
	if v < b.value || (v == b.value && idx < b.index) {
		b.value = v
		b.index = idx
		b.genome = append(b.genome[:0], genome...)
	}
	b.mu.Unlock()
}

// Explore runs the bi-level search for a scenario under a baseline's
// search space. cfg seeds and sizes the outer GA; cfg.Workers follows
// the resolveWorkers convention (0 = GOMAXPROCS, negative = serial),
// and every batch of the outer GA runs at that width. All candidate
// evaluations share one Evaluator, so the inner mapping search is
// memoized across the whole run. Candidate generation stays sequential
// and seeded, so the Outcome is bit-identical for any worker count
// (Outcome.Workers aside).
//
// ctx ends the search early when cancelled (search.RunGA); a tracer
// attached with obs.WithTrace records the run, its generations and its
// evaluations.
func Explore(ctx context.Context, sc Scenario, b Baseline, cfg search.GAConfig) (Outcome, error) {
	e, err := newSearchEvaluator(ctx, sc)
	if err != nil {
		return Outcome{}, err
	}
	defer e.release()
	sc = e.Scenario()
	g := spec(sc, b)
	cfg.Workers = resolveWorkers(cfg.Workers)

	var runSpan *obs.Span
	if e.trace != nil {
		runSpan = e.trace.Start("explore", "explore "+b.String(),
			obs.A("workload", sc.Workload.Name), obs.A("platform", sc.Platform.String()),
			obs.A("objective", sc.Objective.String()))
		defer func() {
			hits, misses := e.CacheStats()
			runSpan.End(obs.A("cache_hits", hits), obs.A("cache_misses", misses),
				obs.A("rungs_built", e.RungsBuilt()))
		}()
	}

	bt := newBestTracker()
	problem := search.Problem{
		Dim: g.dim(),
		EvalCtx: func(ec search.EvalContext, genome []float64) float64 {
			cand := decode(sc, g, genome)
			s, err := e.score(cand)
			if err != nil {
				return math.Inf(1)
			}
			v := objectiveOf(sc, cand.PanelArea, s)
			bt.observe(ec.Index, v, genome)
			return v
		},
	}
	res, err := search.RunGA(ctx, problem, cfg)
	if err != nil {
		return Outcome{}, err
	}
	if math.IsInf(bt.value, 1) {
		return Outcome{}, fmt.Errorf("explore: no feasible design for %s/%s under %s: %w",
			sc.Workload.Name, sc.Platform, b, ErrNoFeasibleDesign)
	}
	// Materialize the full evaluation once, for the winning candidate
	// only; the per-candidate search loop above runs the lean score path.
	best, err := e.Evaluate(decode(sc, g, bt.genome))
	if err != nil {
		return Outcome{}, err
	}
	hits, misses := e.CacheStats()
	return Outcome{Scenario: sc, Baseline: b, Best: best, Value: bt.value, Evals: res.Evals,
		Workers: cfg.Workers, CacheHits: hits, CacheMisses: misses, WarmHits: e.WarmHits(),
		RungsBuilt: e.RungsBuilt(), History: res.History, Quality: res.Quality, StoppedEarly: res.StoppedEarly}, nil
}

// ParetoPoint pairs a candidate with its (panel, latency) coordinates.
type ParetoPoint struct {
	Candidate Candidate
	PanelArea units.AreaCM2
	Latency   units.Seconds
	LatSP     float64
}

// ParetoScan samples the design space at random and returns all
// feasible points plus the Pareto front over (panel area, latency) —
// the Figure 6 analysis. workers follows the resolveWorkers convention
// (0 = GOMAXPROCS, negative = serial). Sampling stays sequential and
// seeded and the collected points are ordered by sample index, so the
// result is bit-identical for any worker count.
func ParetoScan(sc Scenario, n int, seed int64, workers int) (points, front []ParetoPoint, err error) {
	e, err := newSearchEvaluator(context.TODO(), sc)
	if err != nil {
		return nil, nil, err
	}
	defer e.release()
	sc = e.Scenario()
	g := spec(sc, Full)
	workers = resolveWorkers(workers)

	type taggedPoint struct {
		idx int
		p   ParetoPoint
	}
	var (
		mu     sync.Mutex
		tagged []taggedPoint
	)
	problem := search.Problem{
		Dim: g.dim(),
		EvalCtx: func(ec search.EvalContext, genome []float64) float64 {
			cand := decode(sc, g, genome)
			s, evalErr := e.score(cand)
			if evalErr != nil || !s.feasible {
				return math.Inf(1)
			}
			tp := taggedPoint{idx: ec.Index, p: ParetoPoint{
				Candidate: cand,
				PanelArea: cand.PanelArea,
				Latency:   s.avgLatency,
				LatSP:     s.latSP,
			}}
			mu.Lock()
			tagged = append(tagged, tp)
			mu.Unlock()
			return s.latSP
		},
	}
	if _, err := search.RunRandom(problem, n, seed, false, workers); err != nil {
		return nil, nil, err
	}
	// Restore sample order: parallel workers append in completion order,
	// but the evaluation index is assigned at (sequential) generation
	// time, so sorting on it reproduces the serial trajectory exactly.
	sort.Slice(tagged, func(i, j int) bool { return tagged[i].idx < tagged[j].idx })
	all := make([]ParetoPoint, len(tagged))
	for i, tp := range tagged {
		all[i] = tp.p
	}
	pts := make([]search.Point2, len(all))
	for i, p := range all {
		pts[i] = search.Point2{X: float64(p.PanelArea), Y: float64(p.Latency), Tag: i}
	}
	for _, fp := range search.ParetoFront(pts) {
		front = append(front, all[fp.Tag])
	}
	return all, front, nil
}

// ParetoOutcome is the result of one ParetoSearch run: the front plus
// the same convergence telemetry Outcome carries for scalar searches
// (History here is the per-generation dominated-hypervolume series).
type ParetoOutcome struct {
	Scenario Scenario
	Front    []ParetoPoint
	// Best is the full evaluation of the front's minimum-LatSP member
	// (the first on ties); zero when the front is empty.
	Best    Evaluation
	Evals   int
	Workers int
	// CacheHits / CacheMisses / WarmHits mirror the Outcome fields of
	// the same names: ladder-set traffic for the run, with WarmHits the
	// misses served by the process-lifetime warm tier.
	CacheHits    int64
	CacheMisses  int64
	WarmHits     int64
	History      []float64
	Quality      search.QualityHistory
	StoppedEarly bool
}

// ParetoSearch runs a true multi-objective search (NSGA-II) over the
// hardware space for the (panel area, average latency) front — a
// stronger generator for the paper's Figure 6 curve than the random
// scan, at the same evaluation budget. cfg.Workers follows the
// resolveWorkers convention; the outcome is bit-identical for any
// count (Workers aside). ctx plays the same part as in Explore.
func ParetoSearch(ctx context.Context, sc Scenario, cfg search.GAConfig) (ParetoOutcome, error) {
	e, err := newSearchEvaluator(ctx, sc)
	if err != nil {
		return ParetoOutcome{}, err
	}
	defer e.release()
	sc = e.Scenario()
	g := spec(sc, Full)
	cfg.Workers = resolveWorkers(cfg.Workers)
	problem := search.BiProblem{
		Dim: g.dim(),
		EvalCtx: func(ec search.EvalContext, genome []float64) (float64, float64) {
			cand := decode(sc, g, genome)
			s, evalErr := e.score(cand)
			if evalErr != nil || !s.feasible {
				return math.Inf(1), math.Inf(1)
			}
			return float64(cand.PanelArea), float64(s.avgLatency)
		},
	}
	raw, stats, err := search.RunNSGA2(ctx, problem, cfg)
	if err != nil {
		return ParetoOutcome{}, err
	}
	hits, misses := e.CacheStats()
	out := ParetoOutcome{Scenario: sc, Evals: stats.Evals, Workers: cfg.Workers,
		CacheHits: hits, CacheMisses: misses, WarmHits: e.WarmHits(),
		History: stats.History, Quality: stats.Quality, StoppedEarly: stats.StoppedEarly}
	for _, p := range raw {
		cand := decode(sc, g, p.Genome)
		out.Front = append(out.Front, ParetoPoint{
			Candidate: cand,
			PanelArea: units.AreaCM2(p.F1),
			Latency:   units.Seconds(p.F2),
			LatSP:     p.F1 * p.F2,
		})
	}
	if len(out.Front) == 0 {
		return out, nil
	}
	best := out.Front[0]
	for _, p := range out.Front[1:] {
		if p.LatSP < best.LatSP {
			best = p
		}
	}
	// The search's own evaluator still pins the winner's ladder set, so
	// the headline costs no second build and joins the run's trace.
	if out.Best, err = e.Evaluate(best.Candidate); err != nil {
		return ParetoOutcome{}, err
	}
	return out, nil
}
