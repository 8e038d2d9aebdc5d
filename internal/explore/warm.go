package explore

// The process-lifetime warm tier. Without it each search resolves its
// fingerprints privately and every chrysalisd job rebuilds the plan
// ladders its neighbors just built — yet ladders are budget-independent
// by construction (see intermittent.Ladder): they depend only on the
// hardware fingerprint, never on the energy genes or the search
// configuration. WarmCache keeps finished ladder sets alive across
// searches in one byte-bounded, sharded, segmented-LRU store, so a
// fleet of near-duplicate design jobs pays for each hardware point's
// mapping space once per process instead of once per job.
//
// Three properties make this safe:
//
//   - A ladderSet's published rungs never change, and scans extend its
//     ladders under the set's own lock, so one entry serves any number
//     of concurrent searches without copying.
//   - Rungs are deterministic, so a warm-served set yields exactly the
//     rungs the search would have built itself, however far earlier
//     searches extended it; warm and cold runs produce bit-identical
//     Outcomes.
//   - Entries are stamped with the process's cost-model fingerprint
//     (modelFingerprint), so a binary running a newer cost model never
//     serves ladders computed under an older one.

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/intermittent"
)

// modelFingerprint mixes the version constants of every model a ladder
// set embeds (the dataflow cost model and the intermittent planner)
// into one value. Warm-tier entries are keyed on fingerprint PLUS this
// value: bumping either version constant invalidates every cached
// ladder set instead of silently serving stale physics.
func modelFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [...]uint64{dataflow.CostModelVersion, intermittent.PlanModelVersion} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// flightCall is one in-flight ladder-set build: the leader publishes
// its result and closes done; waiters block on done and share it.
type flightCall struct {
	done chan struct{}
	ls   *ladderSet
	err  error
}

// flightGroup coalesces concurrent builds of the same fingerprint into
// exactly one: the first caller becomes the leader and runs build, any
// caller arriving while it is in flight waits for the leader's result
// instead of building a duplicate. Searches sharing a tier miss the
// same fingerprints at the same time, so without it each would build
// the identical set.
type flightGroup struct {
	mu    sync.Mutex
	calls map[fingerprint]*flightCall
}

// do returns build's result for fp, running build at most once across
// every concurrent caller. shared reports that this caller waited on
// another caller's build rather than running its own.
func (g *flightGroup) do(fp fingerprint, build func() (*ladderSet, error)) (ls *ladderSet, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[fingerprint]*flightCall)
	}
	if c, ok := g.calls[fp]; ok {
		g.mu.Unlock()
		<-c.done
		return c.ls, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[fp] = c
	g.mu.Unlock()

	c.ls, c.err = build()

	g.mu.Lock()
	delete(g.calls, fp)
	g.mu.Unlock()
	close(c.done)
	return c.ls, false, c.err
}

// warmShards stripes the warm tier: 16 locks keep concurrent searches
// missing on different fingerprints out of each other's way, and the
// byte bound is enforced per stripe (maxBytes/warmShards each) so
// eviction never takes a global lock.
const warmShards = 16

// warmEntry is one resident ladder set with its eviction bookkeeping.
type warmEntry struct {
	fp    fingerprint
	model uint64
	ls    *ladderSet
	bytes int64
	// hot marks membership in the protected segment; elem is the
	// entry's node in whichever segment list currently holds it.
	hot  bool
	elem *list.Element
}

// warmShard is one stripe: a fingerprint index over two LRU segments.
// New entries enter probation; a second touch promotes to protected,
// so one-off fingerprints from a scanning workload cannot flush the
// ladder sets the steady near-duplicate traffic actually reuses.
type warmShard struct {
	mu        sync.Mutex
	entries   map[fingerprint]*warmEntry
	probation *list.List // *warmEntry, front = most recently touched
	protected *list.List
	bytes     int64 // resident estimate across both segments
	protBytes int64
}

// protectedFrac bounds the protected segment to this share of a
// shard's byte budget; promotions past it demote the protected tail
// back to probation so probation always keeps admission room.
const protectedFrac = 0.8

// WarmCache is a process-lifetime warm-start tier for plan ladder
// sets: searches that attach one (Scenario.Warm) resolve every
// fingerprint through it, reusing any set a previous search built for
// the same hardware fingerprint under the same cost-model version and
// publishing the sets they build.
//
// The tier is byte-bounded on the estimated resident size of its
// ladder sets, evicting segmented-LRU per shard, and owns the
// per-fingerprint single-flight group, so N workers (of one search or
// of N concurrent searches) missing the same fingerprint build it
// once. It is safe for concurrent use and never affects results: warm
// and cold runs produce bit-identical Outcomes.
type WarmCache struct {
	shardCap int64
	model    uint64
	shards   [warmShards]warmShard
	flight   flightGroup

	hits        atomic.Int64
	misses      atomic.Int64
	dedup       atomic.Int64
	evictions   atomic.Int64
	expirations atomic.Int64
	bytes       atomic.Int64
	entries     atomic.Int64
}

// NewWarmCache builds a warm tier bounded to roughly maxBytes of
// estimated ladder-set memory (enforced as maxBytes/16 per shard). A
// non-positive bound returns nil — the disabled tier — so callers can
// wire a size knob through unconditionally.
func NewWarmCache(maxBytes int64) *WarmCache {
	if maxBytes <= 0 {
		return nil
	}
	c := &WarmCache{shardCap: maxBytes / warmShards, model: modelFingerprint()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries = make(map[fingerprint]*warmEntry)
		sh.probation = list.New()
		sh.protected = list.New()
	}
	return c
}

// WarmStats is a point-in-time snapshot of a warm tier's counters.
type WarmStats struct {
	// Hits and Misses count lookups, one per fingerprint per search
	// (searches pin what they resolve); Dedup counts builds avoided by
	// the single-flight group (a waiter sharing a leader's in-flight
	// build).
	Hits, Misses, Dedup int64
	// Evictions counts entries dropped by the byte bound; Expirations
	// counts entries dropped because their cost-model fingerprint no
	// longer matched the process's.
	Evictions, Expirations int64
	// Bytes and Entries describe current residency; MaxBytes is the
	// configured bound.
	Bytes, Entries, MaxBytes int64
}

// Stats snapshots the tier's counters. It is nil-safe: a disabled tier
// reports all zeros.
func (c *WarmCache) Stats() WarmStats {
	if c == nil {
		return WarmStats{}
	}
	return WarmStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Dedup:       c.dedup.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		Bytes:       c.bytes.Load(),
		Entries:     c.entries.Load(),
		MaxBytes:    c.shardCap * warmShards,
	}
}

// HitRatio returns hits/(hits+misses), 0 before any lookup. Nil-safe.
func (c *WarmCache) HitRatio() float64 {
	s := c.Stats()
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// shardFor maps a fingerprint onto its stripe.
func (c *WarmCache) shardFor(fp fingerprint) *warmShard {
	return &c.shards[fingerprintHash(fp)&(warmShards-1)]
}

// get returns the ladder set for fp: the resident one when there is
// one, otherwise the result of build, run once across every concurrent
// caller missing fp and admitted on success.
func (c *WarmCache) get(fp fingerprint, build func() (*ladderSet, error)) (*ladderSet, error) {
	if ls, ok := c.lookup(fp); ok {
		return ls, nil
	}
	ls, shared, err := c.flight.do(fp, func() (*ladderSet, error) {
		ls, err := build()
		if err == nil {
			c.admit(fp, ls)
		}
		return ls, err
	})
	if shared {
		c.dedup.Add(1)
	}
	return ls, err
}

// lookup returns the resident ladder set for fp, promoting it within
// the segmented LRU. Entries stamped with a stale model fingerprint
// are expired on contact, never served.
func (c *WarmCache) lookup(fp fingerprint) (*ladderSet, bool) {
	sh := c.shardFor(fp)
	sh.mu.Lock()
	e, ok := sh.entries[fp]
	if ok && e.model != c.model {
		c.removeLocked(sh, e)
		c.expirations.Add(1)
		ok = false
	}
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if e.hot {
		sh.protected.MoveToFront(e.elem)
	} else {
		// Second touch: promote out of probation. If the protected
		// segment overflows its share, its tail rejoins probation as the
		// most recent probationer — still resident, one touch from
		// promotion again.
		sh.probation.Remove(e.elem)
		e.hot = true
		e.elem = sh.protected.PushFront(e)
		sh.protBytes += e.bytes
		protCap := int64(float64(c.shardCap) * protectedFrac)
		for sh.protBytes > protCap && sh.protected.Len() > 1 {
			tail := sh.protected.Back().Value.(*warmEntry)
			sh.protected.Remove(tail.elem)
			tail.hot = false
			tail.elem = sh.probation.PushFront(tail)
			sh.protBytes -= tail.bytes
		}
	}
	ls := e.ls
	sh.mu.Unlock()
	c.hits.Add(1)
	return ls, true
}

// admit publishes a freshly built ladder set, evicting cold entries
// until the shard fits its byte budget again. Sets bigger than a whole
// shard budget are served to the building search but never retained —
// admitting one would immediately evict it (plus everything else).
func (c *WarmCache) admit(fp fingerprint, ls *ladderSet) {
	sz := ladderSetBytes(ls)
	if sz > c.shardCap {
		return
	}
	sh := c.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[fp]; ok {
		if e.model == c.model {
			return // another search admitted the identical set first
		}
		c.removeLocked(sh, e)
		c.expirations.Add(1)
	}
	e := &warmEntry{fp: fp, model: c.model, ls: ls, bytes: sz}
	e.elem = sh.probation.PushFront(e)
	sh.entries[fp] = e
	sh.bytes += sz
	c.bytes.Add(sz)
	c.entries.Add(1)
	for sh.bytes > c.shardCap {
		var victim *warmEntry
		if back := sh.probation.Back(); back != nil && back.Value.(*warmEntry) != e {
			victim = back.Value.(*warmEntry)
		} else if back := sh.protected.Back(); back != nil {
			victim = back.Value.(*warmEntry)
		} else {
			break // only the new entry remains; it fits by the size gate above
		}
		c.removeLocked(sh, victim)
		c.evictions.Add(1)
	}
}

// removeLocked unlinks an entry from its shard; sh.mu must be held.
func (c *WarmCache) removeLocked(sh *warmShard, e *warmEntry) {
	if e.hot {
		sh.protected.Remove(e.elem)
		sh.protBytes -= e.bytes
	} else {
		sh.probation.Remove(e.elem)
	}
	delete(sh.entries, e.fp)
	sh.bytes -= e.bytes
	c.bytes.Add(-e.bytes)
	c.entries.Add(-1)
}

// ladderSetBytes estimates a set's resident size once every ladder is
// complete: the struct spines, the layers (with their names) and HW
// contexts counted once, the candidate lists the set reads, and
// per ladder the storage its rungs can grow to — the near chunk at its
// fixed size for every ladder with a second candidate, even one shorter
// than the chunk, plus a tail rung for every candidate past it.
// Counting capacity rather than the rungs built so far keeps the tier's
// byte bound true as scans fill the sets it holds, and the layers and
// candidate lists, which every set of one evaluator shares, are counted
// per set, so the estimate is an upper bound. Rungs dominate (a
// deep workload's set can hold thousands of 32-byte rungs); the other
// terms keep shallow sets from rounding to zero.
func ladderSetBytes(ls *ladderSet) int64 {
	const (
		setSize    = int64(unsafe.Sizeof(ladderSet{}))
		ctxSize    = int64(unsafe.Sizeof(dfCtx{}))
		layerSize  = int64(unsafe.Sizeof(dnn.Layer{}))
		ladderSize = int64(unsafe.Sizeof(lazyLadder{}))
		rungSize   = int64(unsafe.Sizeof(intermittent.Rung{}))
		nearSize   = int64(unsafe.Sizeof([nearRungs]intermittent.Rung{}))
		intSize    = int64(unsafe.Sizeof(int(0)))
		listsSize  = int64(unsafe.Sizeof([2][]int{}))
	)
	sz := setSize + int64(cap(ls.ctxs))*ctxSize + int64(cap(ls.layers))*layerSize +
		int64(cap(ls.ladders))*ladderSize + int64(cap(ls.ntiles))*listsSize
	for i := range ls.layers {
		sz += int64(len(ls.layers[i].Name))
	}
	for li := range ls.ntiles {
		for _, nt := range ls.ntiles[li] {
			// The list itself, plus the near chunk and tail each of its
			// len(ctxs) ladders can grow (the head rung is inside
			// lazyLadder).
			sz += int64(len(nt)) * intSize
			if len(nt) > 1 {
				sz += int64(len(ls.ctxs)) * (nearSize + int64(max(len(nt)-1-nearRungs, 0))*rungSize)
			}
		}
	}
	return sz
}
