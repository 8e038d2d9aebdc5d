package explore

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/obs"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// fingerprint canonically identifies everything the per-layer plan
// ladders depend on: the inference-side hardware (platform plus, for
// accelerator candidates, the full accel config), the exception rate
// and the workload identity. The energy genes (panel area, capacitance)
// are deliberately absent — plans are budget-independent, the budget
// only selects a ladder rung at scan time — so candidates that differ
// only in energy genes share one cache entry. On the MSP platform the
// fingerprint is constant across the whole search.
type fingerprint struct {
	platform  PlatformKind
	arch      accel.Arch
	npe       int
	cache     units.Bytes
	rexc      float64
	workload  string
	elemBytes int
	layers    int
}

// fingerprintOf derives the candidate's fingerprint under a
// default-filled scenario. It allocates nothing (comparable struct key).
func fingerprintOf(sc Scenario, cand Candidate) fingerprint {
	fp := fingerprint{
		platform:  sc.Platform,
		rexc:      sc.Rexc,
		workload:  sc.Workload.Name,
		elemBytes: sc.Workload.ElemBytes,
		layers:    len(sc.Workload.Layers),
	}
	if cand.Accel != nil {
		fp.arch = cand.Accel.Arch
		fp.npe = cand.Accel.NPE
		fp.cache = cand.Accel.CacheBytes
	}
	return fp
}

// dfCtx pairs a dataflow with the hardware cost constants it implies
// for one candidate, and records per partition whether those inputs
// pass the cost model's checks (dataflow.Evaluable). A ladder whose
// inputs fail them has no rungs at all.
type dfCtx struct {
	df        dataflow.Dataflow
	hw        dataflow.HW
	evaluable [2]bool
}

// ladderSet is the mapping space for one fingerprint: the dataflow
// contexts the inner optimizer explores and, per layer, one ladder per
// (dataflow, partition) pair. Its ladders are built on demand: a ladder
// evaluates its candidate tile counts in ascending order only as far as
// a budget scan needs, so a set scanned twice pays for a few rungs per
// ladder while a set scanned thousands of times (the MSP fingerprint,
// a warm-tier entry) soon holds every rung its scans reach and serves
// them as a memo.
//
// A set is safe to share across goroutines and searches. Every rung is
// computed by the same kernel in the same order whoever extends the
// ladder, so the rungs a set publishes do not depend on which scans ran
// first, and a published rung never changes. Scans read published rungs
// without a lock; extensions serialize on mu.
//
// The set owns one HW per dataflow context and reads the workload's
// layers and candidate tile counts from the evaluator that built it.
// Each ladder's (layer, context, partition) follows from its index, so
// a ladder stores only its rungs.
type ladderSet struct {
	ctxs []dfCtx
	// layers and ntiles[layer][partition], the candidate tile counts,
	// are shared read-only with every other set of the evaluator that
	// built this one.
	layers    []dnn.Layer
	ntiles    [][2][]int
	elemBytes int
	rexc      float64 // normalized
	mu        sync.Mutex
	// ladders[(layer*len(ctxs) + ctxIndex)*2 + int(partition)]
	ladders []lazyLadder
	// slab, when set, supplies the ladder array and the rung storage of
	// a set its search owns; a nil slab keeps them on the heap. chunk is
	// the uncarved rest of the set's current rung chunk, guarded by mu.
	slab  *slab
	chunk []intermittent.Rung
}

// ladderDone is the state bit a ladder sets once every candidate has
// been evaluated; the bits above it hold the published rung count.
const ladderDone = 1

// nearRungs is how many rungs after the head a ladder holds in its
// small fixed chunk. Most scans stop within the first few rungs, so most
// ladders that grow past the head never need the full-length tail.
const nearRungs = 3

// lazyLadder is one (layer, dataflow, partition) ladder of a set, stored
// in three levels sized to what scans read: rung 0 is head, rungs 1 to
// nearRungs live in near, taken when rung 1 is built, and the rest in
// tail, taken sized for every remaining candidate when a ladder passes
// near (ladderSet.newRungs). Each pointer is written once, under the
// set's mu, before state publishes a rung stored behind it. Rungs below
// the published count are immutable.
type lazyLadder struct {
	state atomic.Uint32 // rung count << 1 | ladderDone
	next  uint32        // next candidate to evaluate; guarded by the set's mu
	head  intermittent.Rung
	near  *[nearRungs]intermittent.Rung
	tail  []intermittent.Rung
}

// rung returns rung i, which must be below the published count.
func (ld *lazyLadder) rung(i int) *intermittent.Rung {
	switch {
	case i == 0:
		return &ld.head
	case i <= nearRungs:
		return &ld.near[i-1]
	}
	return &ld.tail[i-1-nearRungs]
}

// store places rung i of ladder ld, which has ncand candidates,
// carving the level it falls in on first use; the set's mu must be held.
func (ls *ladderSet) store(ld *lazyLadder, i, ncand int, r intermittent.Rung) {
	switch {
	case i == 0:
		ld.head = r
		return
	case i <= nearRungs:
		if ld.near == nil {
			ld.near = (*[nearRungs]intermittent.Rung)(ls.newRungs(nearRungs))
		}
		ld.near[i-1] = r
		return
	}
	if ld.tail == nil {
		ld.tail = ls.newRungs(ncand - 1 - nearRungs)
	}
	ld.tail[i-1-nearRungs] = r
}

// newRungs returns storage for n rungs: its own allocation in a
// heap-backed set, and otherwise carved from the set's chunk, which is
// refilled from the slab with room for at least setChunkRungs rungs.
// The set's mu must be held.
func (ls *ladderSet) newRungs(n int) []intermittent.Rung {
	if ls.slab == nil {
		return make([]intermittent.Rung, n)
	}
	if n > len(ls.chunk) {
		ls.chunk = ls.slab.rungChunk(max(n, setChunkRungs))
	}
	r := ls.chunk[:n:n]
	ls.chunk = ls.chunk[n:]
	return r
}

// fits reports whether a rung's tile energy fits the cycle budget at the
// rung's own power draw (Eq. 8).
func fits(r *intermittent.Rung, budget intermittent.BudgetFunc) bool {
	avail := budget(r.Power)
	return avail > 0 && r.TileEnergy <= avail
}

// ladderIndex returns the index of the ladder for (layer, dataflow
// context, partition).
func (ls *ladderSet) ladderIndex(layer, ctx int, part dataflow.Partition) int {
	return (layer*len(ls.ctxs)+ctx)*2 + int(part)
}

// header assembles ladder k's rung-less intermittent.Ladder: the inputs
// the rung kernel and plan materialization read.
func (ls *ladderSet) header(k int) (intermittent.Ladder, *dfCtx) {
	part := dataflow.Partition(k & 1)
	ctx := &ls.ctxs[(k>>1)%len(ls.ctxs)]
	layer := &ls.layers[(k>>1)/len(ls.ctxs)]
	return intermittent.Ladder{Layer: layer, ElemBytes: ls.elemBytes, Dataflow: ctx.df,
		Partition: part, Rexc: ls.rexc, HW: &ctx.hw}, ctx
}

// candidates returns ladder k's candidate tile counts.
func (ls *ladderSet) candidates(k int) []int {
	return ls.ntiles[(k>>1)/len(ls.ctxs)][k&1]
}

// extend is the only way rungs are built. Under one hold of the set's
// mu it finishes a budget scan of ladder k whose first have rungs did
// not fit: it checks any rungs another scan published since, then
// evaluates the ladder's next candidates, publishing every rung it
// builds, until one fits the budget, and returns that rung. ok is false
// when the ladder ran out of candidates first. A nil budget fits no
// rung, so extend(k, have, nil) builds the ladder through its last
// candidate. The budget is called with mu held, so it must not read
// the set.
func (ls *ladderSet) extend(k, have int, budget intermittent.BudgetFunc) (intermittent.Rung, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ld := &ls.ladders[k]
	s := ld.state.Load()
	n := int(s >> 1)
	if budget != nil {
		for i := have; i < n; i++ {
			if r := ld.rung(i); fits(r, budget) {
				return *r, true
			}
		}
	}
	if s&ladderDone != 0 {
		return intermittent.Rung{}, false
	}
	hdr, ctx := ls.header(k)
	cands := ls.candidates(k)
	next := int(ld.next)
	var hit intermittent.Rung
	found := false
	if ctx.evaluable[hdr.Partition] {
		var c dataflow.Cost
		for !found && next < len(cands) {
			r, ok := hdr.RungFor(cands[next], &c)
			next++
			if !ok {
				continue // tile does not fit VM at this count
			}
			ls.store(ld, n, len(cands), r)
			n++
			if budget != nil && fits(&r, budget) {
				hit, found = r, true
			}
		}
	} else {
		next = len(cands) // every count would fail the input checks
	}
	ld.next = uint32(next)
	s = uint32(n) << 1
	if next == len(cands) {
		s |= ladderDone
	}
	ld.state.Store(s)
	return hit, found
}

// minFeasible returns ladder k's first (smallest-NTile) rung whose tile
// energy fits the budget at its own power draw, extending the ladder
// only as far as that rung. ok is false when no candidate fits.
func (ls *ladderSet) minFeasible(k int, budget intermittent.BudgetFunc) (intermittent.Rung, bool) {
	ld := &ls.ladders[k]
	s := ld.state.Load()
	n := int(s >> 1)
	for i := 0; i < n; i++ {
		if r := ld.rung(i); fits(r, budget) {
			return *r, true
		}
	}
	if s&ladderDone != 0 {
		return intermittent.Rung{}, false
	}
	return ls.extend(k, n, budget)
}

// complete extends ladder k through its last candidate and returns its
// rung count.
func (ls *ladderSet) complete(k int) int {
	ld := &ls.ladders[k]
	s := ld.state.Load()
	if s&ladderDone == 0 {
		ls.extend(k, int(s>>1), nil)
		s = ld.state.Load()
	}
	return int(s >> 1)
}

// byNTile completes ladder k and returns the rung whose requested tile
// count is n, by binary search over the ascending rungs. ok is false
// when that count was VM-infeasible (and therefore has no rung).
func (ls *ladderSet) byNTile(k, n int) (intermittent.Rung, bool) {
	ld := &ls.ladders[k]
	cnt := ls.complete(k)
	i := sort.Search(cnt, func(i int) bool { return ld.rung(i).NTile >= n })
	if i < cnt && ld.rung(i).NTile == n {
		return *ld.rung(i), true
	}
	return intermittent.Rung{}, false
}

// planInto materializes the full Plan of ladder k at tile count n, a
// count one of its rungs carries.
func (ls *ladderSet) planInto(k, n int, dst *intermittent.Plan) {
	hdr, _ := ls.header(k)
	hdr.PlanNTileInto(n, dst)
}

// candidateLists enumerates every layer's candidate tile counts per
// partition into one backing array.
func candidateLists(layers []dnn.Layer) [][2][]int {
	lists := make([][2][]int, len(layers))
	var flat []int
	var ends [][2]int
	for _, l := range layers {
		var e [2]int
		for part := range e {
			flat = dataflow.AppendCandidateNTiles(flat, l, dataflow.Partition(part))
			e[part] = len(flat)
		}
		ends = append(ends, e)
	}
	start := 0
	for li, e := range ends {
		for part, end := range e {
			lists[li][part] = flat[start:end:end]
			start = end
		}
	}
	return lists
}

// buildLadderSet sets up the mapping space for one hardware
// fingerprint: the dataflow contexts, in the order the per-call search
// explored them (dataflows outer, partitions inner) so scans reproduce
// the old trajectory bit for bit, and one empty ladder per (layer,
// dataflow, partition). No rung is evaluated here; scans build them. The
// ladder array and rungs come from the evaluator's slab when it has
// one, and from the heap otherwise. A traced build records one
// "build-ladder" span per ladder carrying its identity and candidate
// count.
func (e *Evaluator) buildLadderSet(cand Candidate) (*ladderSet, error) {
	sc := e.sc
	rexc, err := intermittent.NormalizeRexc(sc.Rexc)
	if err != nil {
		return nil, err
	}
	e.inputsOnce.Do(func() {
		e.layers = append([]dnn.Layer(nil), sc.Workload.Layers...)
		e.ntiles = candidateLists(e.layers)
	})
	dfs := dataflowChoices(sc)
	ls := &ladderSet{
		ctxs:      make([]dfCtx, len(dfs)),
		layers:    e.layers,
		ntiles:    e.ntiles,
		elemBytes: sc.Workload.ElemBytes,
		rexc:      rexc,
		slab:      e.slab,
	}
	for i, df := range dfs {
		ctx := &ls.ctxs[i]
		ctx.df = df
		if ctx.hw, err = platformHW(sc, cand, df); err != nil {
			return nil, err
		}
		for part := range ctx.evaluable {
			ctx.evaluable[part] = dataflow.Evaluable(ls.elemBytes, df, dataflow.Partition(part), &ctx.hw)
		}
	}
	if n := 2 * len(ls.ctxs) * len(ls.layers); ls.slab != nil {
		ls.ladders = ls.slab.ladderArray(n)
	} else {
		ls.ladders = make([]lazyLadder, n)
	}
	if tr := e.trace; tr != nil {
		for k := range ls.ladders {
			hdr, _ := ls.header(k)
			tr.Start("explore", "build-ladder", obs.A("layer", hdr.Layer.Name),
				obs.A("dataflow", hdr.Dataflow.String()), obs.A("partition", hdr.Partition.String())).
				End(obs.A("candidates", len(ls.candidates(k))))
		}
	}
	return ls, nil
}

// cacheShards stripes the energy-gene map: 16 locks keep up to 16
// hardware workers missing different gene pairs at once out of each
// other's way.
const cacheShards = 16

// fingerprintHash mixes every fingerprint field into a shard index with
// an FNV-1a over the fixed-width fields plus the workload name. It is
// allocation-free and deliberately avoids hash/maphash so the module's
// floor stays at go1.22.
func fingerprintHash(fp fingerprint) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(fp.platform))
	mix(uint64(fp.arch))
	mix(uint64(fp.npe))
	mix(uint64(fp.cache))
	mix(math.Float64bits(fp.rexc))
	mix(uint64(fp.elemBytes))
	mix(uint64(fp.layers))
	for i := 0; i < len(fp.workload); i++ {
		h ^= uint64(fp.workload[i])
		h *= prime64
	}
	return h
}

// pin holds one fingerprint's ladder set for the rest of a search. Its
// Once resolves the fingerprint exactly once however many workers ask
// at the same time, and the pointer keeps the set alive even when the
// process tier evicts it or refuses to admit it mid-search.
type pin struct {
	once sync.Once
	ls   *ladderSet
	err  error
}

// subsKey identifies a candidate's energy genes — the only inputs the
// energy subsystem depends on beyond the scenario's fixed environments.
type subsKey struct {
	panel units.AreaCM2
	cap   units.Capacitance
}

// subsKeyHash mixes the two energy genes into a shard index (FNV-1a
// over the float bit patterns, like fingerprintHash).
func subsKeyHash(k subsKey) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range [2]uint64{math.Float64bits(float64(k.panel)), math.Float64bits(float64(k.cap))} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// energyGenes is what the evaluation path needs of one energy-gene
// pair: the subsystem per environment and the budget closure over their
// prepared cycle budgets.
type energyGenes struct {
	subs   []*energy.Subsystem
	budget intermittent.BudgetFunc
}

// subsShard is one mutex stripe of the energy-gene map.
type subsShard struct {
	mu sync.RWMutex
	m  map[subsKey]energyGenes
	_  [24]byte
}

// subsystemCache memoizes the per-environment energy subsystems and
// their budget closure keyed on the candidate's energy genes, striped
// across mutex shards (the outer GA revisits gene values constantly —
// elites, crossover copies — from every worker at once). The evaluation
// path only issues the subsystem's read-only closed-form queries
// (prepared cycle budgets, sim.Analytic), so one instance safely serves
// concurrent evaluations.
type subsystemCache struct {
	envs   []solar.Environment
	shards [cacheShards]subsShard
}

func newSubsystemCache(envs []solar.Environment) *subsystemCache {
	c := &subsystemCache{envs: envs}
	for i := range c.shards {
		c.shards[i].m = make(map[subsKey]energyGenes)
	}
	return c
}

// get returns the candidate's subsystems and budget closure, building
// them on a miss. Racing misses may build twice; the loser is discarded.
func (c *subsystemCache) get(cand Candidate) ([]*energy.Subsystem, intermittent.BudgetFunc, error) {
	k := subsKey{panel: cand.PanelArea, cap: cand.Cap}
	shard := &c.shards[subsKeyHash(k)&(cacheShards-1)]
	shard.mu.RLock()
	v, ok := shard.m[k]
	shard.mu.RUnlock()
	if ok {
		return v.subs, v.budget, nil
	}
	subs, err := buildSubsystems(c.envs, cand)
	if err != nil {
		return nil, nil, err
	}
	bs := make([]energy.Budgeter, len(subs))
	for i, es := range subs {
		bs[i] = es.Budgeter()
	}
	v = energyGenes{subs: subs, budget: cycleBudget(bs)}
	shard.mu.Lock()
	if raced, ok := shard.m[k]; ok {
		v = raced
	} else {
		shard.m[k] = v
	}
	shard.mu.Unlock()
	return v.subs, v.budget, nil
}
