package explore

import (
	"math"
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
// them as a memo. Each ladder carries an energy floor
// (intermittent.FloorRates.Floor), so a scan that already holds a cheaper
// rung of the same layer stops a ladder where its floor passes that
// rung's energy instead of building on.
//
// A set is safe to share across goroutines and searches. Every rung is
// computed by the same kernel in the same order whoever extends the
// ladder, so the rungs a set publishes do not depend on which scans ran
// first, and a published rung never changes. Scans read published rungs
// and decide to stop without a lock; extensions serialize on mu.
//
// The set owns one HW per dataflow context and reads the workload's
// layers and candidate tile counts from the evaluator that built it.
// Each ladder's (layer, context, partition) follows from its index, so
// a ladder stores only its rungs, its floor and one entry of its layer's
// visit order.
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

// A ladder's state word packs what scans read without the set's lock:
// bit 0 is ladderDone, set once every candidate has been evaluated; bits
// 1–31 hold the published rung count; bits 32–63 the index of the next
// candidate to evaluate. One word makes the three consistent: a scan that
// loaded it knows both which rungs it may read and where the ladder's
// unbuilt rungs begin, so it can stop on the floor there without locking.
const (
	ladderDone = 1
	nextShift  = 32
)

// rungCount returns the published rung count of state s.
func rungCount(s uint64) int { return int(uint32(s) >> 1) }

// nextCandidate returns the index of the next candidate to evaluate.
func nextCandidate(s uint64) int { return int(s >> nextShift) }

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
// the published count are immutable. floor and visit are written when
// the set is built and only read afterwards.
type lazyLadder struct {
	state atomic.Uint64 // next candidate << nextShift | rung count << 1 | ladderDone
	floor intermittent.Floor
	// visit belongs to the ladder's slot in its layer, not to the ladder:
	// slot j of a layer holds the offset, within the layer, of the j-th
	// ladder its scans visit.
	visit uint8
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

// header assembles ladder k's rung-less intermittent.Ladder: the inputs
// the rung kernel and plan materialization read.
func (ls *ladderSet) header(k int) intermittent.Ladder {
	part := dataflow.Partition(k & 1)
	ctx := &ls.ctxs[(k>>1)%len(ls.ctxs)]
	layer := &ls.layers[(k>>1)/len(ls.ctxs)]
	return intermittent.Ladder{Layer: layer, ElemBytes: ls.elemBytes, Dataflow: ctx.df,
		Partition: part, Rexc: ls.rexc, HW: &ctx.hw}
}

// candidates returns ladder k's candidate tile counts.
func (ls *ladderSet) candidates(k int) []int {
	return ls.ntiles[(k>>1)/len(ls.ctxs)][k&1]
}

// perLayer returns how many ladders each layer has.
func (ls *ladderSet) perLayer() int { return 2 * len(ls.ctxs) }

// scan returns ladder k's first (smallest-NTile) rung whose tile energy
// fits the budget at its own power draw, extending the ladder only as
// far as that rung. It gives up, with ok false, where the ladder's floor
// rises above bound: every rung from there on costs more than bound, so
// whichever of them fits first cannot beat a rung of that energy. ok is
// also false when no candidate fits. The rung-kernel calls the scan
// makes are added to *built, a caller-owned count that may be nil.
//
// The published rungs and the decision to stop before the next
// candidate are read from one load of the ladder's state, without the
// set's mu.
func (ls *ladderSet) scan(k int, budget intermittent.BudgetFunc, bound units.Energy, built *int64) (intermittent.Rung, bool) {
	ld := &ls.ladders[k]
	s := ld.state.Load()
	n := rungCount(s)
	for i := 0; i < n; i++ {
		r := ld.rung(i)
		if ld.floor.At(r.NTile) > bound {
			return intermittent.Rung{}, false
		}
		if fits(r, budget) {
			return *r, true
		}
	}
	if s&ladderDone != 0 || ld.floor.At(ls.candidates(k)[nextCandidate(s)]) > bound {
		return intermittent.Rung{}, false
	}
	return ls.extend(k, n, budget, bound, built)
}

// extend is the only way rungs are built. Under one hold of the set's
// mu it finishes a scan of ladder k whose first have rungs did not fit:
// it checks any rungs another scan published since, then evaluates the
// ladder's next candidates, publishing every rung it builds, until one
// fits the budget, and returns that rung. ok is false when the ladder
// ran out of candidates first, or when its floor rose above bound before
// one fit; a ladder stopped on its floor is not done, and a later scan
// with a higher bound resumes it at its next candidate. A nil budget
// fits no rung, so extend(k, have, nil, +Inf, …) builds the ladder
// through its last candidate. The budget is called with mu held, so it
// must not read the set. The rung-kernel calls are added to *built,
// which may be nil.
func (ls *ladderSet) extend(k, have int, budget intermittent.BudgetFunc, bound units.Energy, built *int64) (intermittent.Rung, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ld := &ls.ladders[k]
	s := ld.state.Load()
	n := rungCount(s)
	if budget != nil {
		for i := have; i < n; i++ {
			r := ld.rung(i)
			if ld.floor.At(r.NTile) > bound {
				return intermittent.Rung{}, false
			}
			if fits(r, budget) {
				return *r, true
			}
		}
	}
	if s&ladderDone != 0 {
		return intermittent.Rung{}, false
	}
	hdr := ls.header(k)
	cands := ls.candidates(k)
	start := nextCandidate(s)
	next := start
	var hit intermittent.Rung
	found := false
	var c dataflow.Cost
	for !found && next < len(cands) && !(ld.floor.At(cands[next]) > bound) {
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
	if built != nil {
		*built += int64(next - start)
	}
	s = uint64(next)<<nextShift | uint64(n)<<1
	if next == len(cands) {
		s |= ladderDone
	}
	ld.state.Store(s)
	return hit, found
}

// best returns layer li's winner: of each ladder's first rung that fits
// the budget, the one with the least Energy, and of equal energies the
// one of the lowest ladder index. ok is false when no ladder of the
// layer has a rung that fits. The rung-kernel calls its scans make are
// added to *built, which may be nil.
//
// Layers are independent, so this is a branch and bound per layer: it
// visits the layer's ladders in their floor order and bounds each scan
// by the best energy so far, so no scan builds a rung that cannot win.
// The winner does not depend on the visit order.
func (ls *ladderSet) best(li int, budget intermittent.BudgetFunc, built *int64) (int, intermittent.Rung, bool) {
	bestK := -1
	var best intermittent.Rung
	bound := units.Energy(math.Inf(1))
	per := ls.perLayer()
	base := li * per
	for j := base; j < base+per; j++ {
		k := base + int(ls.ladders[j].visit)
		r, ok := ls.scan(k, budget, bound, built)
		if ok && (bestK < 0 || r.Energy < bound || (r.Energy == bound && k < bestK)) {
			bestK, best, bound = k, r, r.Energy
		}
	}
	return bestK, best, bestK >= 0
}

// planInto materializes the full Plan of ladder k at tile count n, a
// count one of its rungs carries.
func (ls *ladderSet) planInto(k, n int, dst *intermittent.Plan) {
	hdr := ls.header(k)
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
// explored them (dataflows outer, partitions inner), and one empty
// ladder per (layer, dataflow, partition) with its energy floor and its
// layer's visit order. No rung is evaluated here; scans build them. The
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
		e.sizes = make([]intermittent.LayerSizes, len(e.layers))
		for i := range e.layers {
			e.sizes[i] = intermittent.SizesOf(&e.layers[i], sc.Workload.ElemBytes)
		}
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
	ls.setFloors(e.sizes)
	if tr := e.trace; tr != nil {
		for k := range ls.ladders {
			hdr := ls.header(k)
			tr.Start("explore", "build-ladder", obs.A("layer", hdr.Layer.Name),
				obs.A("dataflow", hdr.Dataflow.String()), obs.A("partition", hdr.Partition.String())).
				End(obs.A("candidates", len(ls.candidates(k))))
		}
	}
	return ls, nil
}

// setFloors gives every ladder its energy floor, from the floor rates
// of its dataflow context and the sizes of its layer, and every layer
// its visit order: its ladders by ascending floor at their first
// candidate, which is always 1, ties in ladder order. Scans that visit
// the likely cheapest ladder first hold a low bound early and stop the
// others sooner. A ladder whose inputs fail the cost model's checks has
// no rungs: it is done from the start, and its infinite floor puts it
// last.
func (ls *ladderSet) setFloors(sizes []intermittent.LayerSizes) {
	per := ls.perLayer()
	for ci := range ls.ctxs {
		ctx := &ls.ctxs[ci]
		var rates intermittent.FloorRates
		if ctx.evaluable[0] || ctx.evaluable[1] {
			rates = intermittent.NewFloorRates(ctx.df, &ctx.hw, ls.elemBytes, ls.rexc)
		}
		for li, cands := range ls.ntiles {
			for part, c := range cands {
				ld := &ls.ladders[li*per+2*ci+part]
				if len(c) > 0 && ctx.evaluable[part] {
					ld.floor = rates.Floor(&sizes[li], dataflow.Partition(part), c[len(c)-1])
				} else {
					ld.floor = intermittent.Floor{A: math.Inf(1)}
					ld.state.Store(uint64(len(c))<<nextShift | ladderDone)
				}
			}
		}
	}
	for li := range ls.ntiles {
		lads := ls.ladders[li*per : (li+1)*per]
		for j := range lads {
			// Insert j into the visit order of lads[:j].
			first := lads[j].floor.At(1)
			i := j
			for ; i > 0 && lads[lads[i-1].visit].floor.At(1) > first; i-- {
				lads[i].visit = lads[i-1].visit
			}
			lads[i].visit = uint8(j)
		}
	}
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
