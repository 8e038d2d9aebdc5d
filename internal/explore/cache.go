package explore

import (
	"math"
	"sync"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/intermittent"
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

// subsShard is one mutex stripe of the energy-gene map.
type subsShard struct {
	mu sync.RWMutex
	m  map[subsKey][]*energy.Subsystem
	_  [24]byte
}

// subsystemCache memoizes the per-environment energy subsystems keyed
// on the candidate's energy genes, striped across mutex shards (the
// outer GA revisits gene values constantly — elites, crossover copies —
// from every worker at once). The evaluation path only issues the
// subsystem's read-only closed-form queries (CycleBudget,
// sim.Analytic), so one instance safely serves concurrent evaluations.
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

// get returns the candidate's subsystems, building them on a miss.
// Racing misses may build twice; the loser is discarded.
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
