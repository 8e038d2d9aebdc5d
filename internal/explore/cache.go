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
// for one candidate.
type dfCtx struct {
	df dataflow.Dataflow
	hw dataflow.HW
}

// ladderSet is the complete precomputed mapping space for one
// fingerprint: the dataflow contexts the inner optimizer explores and,
// per layer, one ladder per (dataflow, partition) pair. It is immutable
// after construction and therefore shared freely across goroutines.
//
// The set owns the inputs its ladders point at: one copy of the
// workload's layers and one HW per dataflow context, shared by every
// ladder instead of copied into each.
type ladderSet struct {
	ctxs   []dfCtx
	layers []dnn.Layer
	// ladders[(layer*len(ctxs) + ctxIndex)*2 + int(partition)]
	ladders []intermittent.Ladder
}

// ladderAt returns the ladder for (layer, dataflow context, partition).
func (ls *ladderSet) ladderAt(layer, ctx int, part dataflow.Partition) *intermittent.Ladder {
	return &ls.ladders[(layer*len(ls.ctxs)+ctx)*2+int(part)]
}

// buildLadderSet computes every ladder the inner search needs for one
// hardware fingerprint, in the exact order the per-call search explored
// them (dataflows outer, partitions inner) so scans reproduce the old
// trajectory bit for bit. A layer's candidate tile counts depend only on
// the layer and the partition, so they are enumerated once per pair and
// shared by every dataflow's ladder.
func buildLadderSet(sc Scenario, cand Candidate) (*ladderSet, error) {
	dfs := dataflowChoices(sc)
	ls := &ladderSet{ctxs: make([]dfCtx, 0, len(dfs))}
	for _, df := range dfs {
		hw, err := platformHW(sc, cand, df)
		if err != nil {
			return nil, err
		}
		ls.ctxs = append(ls.ctxs, dfCtx{df: df, hw: hw})
	}
	ls.layers = append([]dnn.Layer(nil), sc.Workload.Layers...)
	ls.ladders = make([]intermittent.Ladder, 2*len(ls.ctxs)*len(ls.layers))
	parts := [2]dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial}
	var ntiles [2][]int
	for li := range ls.layers {
		l := &ls.layers[li]
		for _, part := range parts {
			ntiles[part] = dataflow.AppendCandidateNTiles(ntiles[part][:0], *l, part)
		}
		for ci := range ls.ctxs {
			ctx := &ls.ctxs[ci]
			for _, part := range parts {
				ld, err := intermittent.BuildLadderShared(sc.Trace, l, sc.Workload.ElemBytes, ctx.df, part, ntiles[part], &ctx.hw, sc.Rexc)
				if err != nil {
					return nil, err
				}
				*ls.ladderAt(li, ci, part) = ld
			}
		}
	}
	return ls, nil
}

// Process-wide cumulative plan-cache counters, aggregated across every
// Evaluator so serving layers (chrysalisd /metrics) can export them.
var (
	globalCacheHits   atomic.Int64
	globalCacheMisses atomic.Int64
)

// EvalCacheCounters returns the process-wide cumulative evaluator
// plan-cache hit and miss counts. Both are monotonic, suitable for
// Prometheus counter export.
func EvalCacheCounters() (hits, misses int64) {
	return globalCacheHits.Load(), globalCacheMisses.Load()
}

// cacheShards stripes the fingerprint map. 16 shards keeps the worst
// case (every worker missing a different fingerprint at once) lock-free
// for up to 16 hardware workers while costing only 16 small maps; the
// common case never touches the stripe lock at all thanks to the
// per-worker last-lookup slots.
const cacheShards = 16

// lastSlots is how many per-worker last-lookup slots a cache carries.
// Workers index slots by worker&`(lastSlots-1)`, so up to 16 workers
// get private slots and larger pools share gracefully.
const lastSlots = 16

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

// planShard is one mutex stripe of the fingerprint map.
type planShard struct {
	mu   sync.RWMutex
	sets map[fingerprint]*ladderSet
	// Pad each shard to its own cache line so neighboring stripe locks
	// don't false-share under concurrent misses.
	_ [24]byte
}

// lastSlot is one per-worker last-lookup pointer, padded to a cache
// line: a single shared atomic.Pointer fast path ping-pongs its line
// between every core on the hit path, which is exactly the steady state
// on the MSP platform (one fingerprint, every lookup a hit).
type lastSlot struct {
	p atomic.Pointer[lastLookup]
	_ [56]byte
}

// planCache memoizes ladder sets per hardware fingerprint for one
// Evaluator. It is safe for concurrent use (search.GAConfig.Workers >
// 1): lookups take a striped read lock keyed by the fingerprint hash,
// and concurrent misses on the same fingerprint coalesce through a
// per-fingerprint single-flight group, so every set is built exactly
// once no matter how many workers miss it at once.
type planCache struct {
	shards [cacheShards]planShard
	// last short-circuits the common case of consecutive lookups with
	// the same fingerprint (on MSP the fingerprint never changes), one
	// slot per worker so the steady-state hit touches no shared line.
	last     [lastSlots]lastSlot
	hits     atomic.Int64
	misses   atomic.Int64
	warmHits atomic.Int64
	// builds counts ladder sets this cache actually constructed (not
	// served warm, not shared from another worker's in-flight build).
	builds atomic.Int64
	// warm, when non-nil, is the process-lifetime tier consulted between
	// a shard miss and a build; sets built here are published back to it.
	warm *WarmCache
	// flight coalesces this search's concurrent builds when no warm tier
	// is attached; with one attached, the tier's group is used instead so
	// deduplication spans concurrent searches too.
	flight flightGroup
}

// lastLookup is an immutable (fingerprint, ladder set) pair published
// atomically after each successful lookup.
type lastLookup struct {
	fp fingerprint
	ls *ladderSet
}

func newPlanCache() *planCache {
	pc := &planCache{}
	for i := range pc.shards {
		pc.shards[i].sets = make(map[fingerprint]*ladderSet)
	}
	return pc
}

// get returns the ladder set for the candidate's fingerprint, building
// and caching it on a miss. worker selects the caller's last-lookup
// slot; serial callers pass 0.
func (pc *planCache) get(sc Scenario, cand Candidate, worker int) (*ladderSet, error) {
	fp := fingerprintOf(sc, cand)
	slot := &pc.last[worker&(lastSlots-1)].p
	if le := slot.Load(); le != nil && le.fp == fp {
		pc.hits.Add(1)
		globalCacheHits.Add(1)
		return le.ls, nil
	}
	shard := &pc.shards[fingerprintHash(fp)&(cacheShards-1)]
	shard.mu.RLock()
	ls, ok := shard.sets[fp]
	shard.mu.RUnlock()
	if ok {
		pc.hits.Add(1)
		globalCacheHits.Add(1)
		slot.Store(&lastLookup{fp: fp, ls: ls})
		return ls, nil
	}
	// Per-search miss. Consult the warm tier first: a set another search
	// already built is adopted into this search's shard without a build.
	if w := pc.warm; w != nil {
		if ls, ok := w.lookup(fp); ok {
			pc.misses.Add(1)
			globalCacheMisses.Add(1)
			pc.warmHits.Add(1)
			pc.publish(shard, slot, fp, ls)
			return ls, nil
		}
	}
	// Build exactly once per fingerprint: the single-flight group (the
	// warm tier's when attached, so deduplication spans searches) elects
	// one builder; everyone else waits and shares its set.
	flight := &pc.flight
	if pc.warm != nil {
		flight = &pc.warm.flight
	}
	built, shared, err := flight.do(fp, func() (*ladderSet, error) {
		var sp *obs.Span
		if sc.Trace != nil {
			sp = sc.Trace.Start("explore", "ladder-build",
				obs.A("platform", sc.Platform.String()), obs.A("arch", fp.arch.String()),
				obs.A("npe", fp.npe), obs.A("layers", fp.layers))
		}
		pc.builds.Add(1)
		ls, err := buildLadderSet(sc, cand)
		if sp != nil {
			sp.End(obs.A("err", err != nil))
		}
		if err == nil && pc.warm != nil {
			pc.warm.admit(fp, ls)
		}
		return ls, err
	})
	if err != nil {
		return nil, err
	}
	// Waiters count as misses too — every lookup is a hit or a miss —
	// with the saved duplicate builds tallied on the warm tier.
	pc.misses.Add(1)
	globalCacheMisses.Add(1)
	if shared && pc.warm != nil {
		pc.warm.dedup.Add(1)
	}
	pc.publish(shard, slot, fp, built)
	return built, nil
}

// publish installs a set in the shard map (first writer wins — callers
// racing here always carry the identical single-flight result) and the
// caller's fast-path slot.
func (pc *planCache) publish(shard *planShard, slot *atomic.Pointer[lastLookup], fp fingerprint, ls *ladderSet) {
	shard.mu.Lock()
	if _, ok := shard.sets[fp]; !ok {
		shard.sets[fp] = ls
	}
	shard.mu.Unlock()
	slot.Store(&lastLookup{fp: fp, ls: ls})
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

// subsShard is one mutex stripe of the energy-gene map.
type subsShard struct {
	mu sync.RWMutex
	m  map[subsKey][]*energy.Subsystem
	_  [24]byte
}

// subsystemCache memoizes the per-environment energy subsystems keyed
// on the candidate's energy genes, striped across mutex shards like
// planCache (the outer GA revisits gene values constantly — elites,
// crossover copies — from every worker at once). The evaluation path
// only issues the subsystem's read-only closed-form queries
// (CycleBudget, sim.Analytic), so one instance safely serves concurrent
// evaluations.
type subsystemCache struct {
	envs   []solar.Environment
	shards [cacheShards]subsShard
}

func newSubsystemCache(envs []solar.Environment) *subsystemCache {
	c := &subsystemCache{envs: envs}
	for i := range c.shards {
		c.shards[i].m = make(map[subsKey][]*energy.Subsystem)
	}
	return c
}

// get returns the candidate's subsystems, building them on a miss. Like
// planCache, racing misses may build twice; the loser is discarded.
func (c *subsystemCache) get(cand Candidate) ([]*energy.Subsystem, error) {
	k := subsKey{panel: cand.PanelArea, cap: cand.Cap}
	shard := &c.shards[subsKeyHash(k)&(cacheShards-1)]
	shard.mu.RLock()
	v, ok := shard.m[k]
	shard.mu.RUnlock()
	if ok {
		return v, nil
	}
	built, err := buildSubsystems(c.envs, cand)
	if err != nil {
		return nil, err
	}
	shard.mu.Lock()
	if raced, ok := shard.m[k]; ok {
		built = raced
	} else {
		shard.m[k] = built
	}
	shard.mu.Unlock()
	return built, nil
}
