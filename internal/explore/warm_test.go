package explore

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"chrysalis/internal/accel"
	"chrysalis/internal/dnn"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/units"
)

// TestWarmTierConcurrentSearches hammers one shared tier with many
// concurrent full searches (the chrysalisd shape: N worker goroutines,
// each running its own Explore against the process tier) and checks
// every one of them returns the cold reference Outcome bit for bit.
// Run under -race this also exercises the tier's locking end to end.
func TestWarmTierConcurrentSearches(t *testing.T) {
	tpu := accel.TPU
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &tpu}
	cfg := smallGA(11)
	cold, err := Explore(context.Background(), sc, Full, cfg)
	if err != nil {
		t.Fatal(err)
	}

	warm := NewWarmCache(64 << 20)
	const searches = 8
	outs := make([]Outcome, searches)
	errs := make([]error, searches)
	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wsc := sc
			wsc.Warm = warm
			outs[i], errs[i] = Explore(context.Background(), wsc, Full, cfg)
		}(i)
	}
	wg.Wait()
	var warmHits int64
	for i := 0; i < searches; i++ {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		warmHits += outs[i].WarmHits
		if !sameOutput(cold, outs[i], true) {
			t.Errorf("concurrent warm search %d differs from cold reference (value %v vs %v)",
				i, outs[i].Value, cold.Value)
		}
	}
	if warmHits == 0 {
		t.Errorf("no search reported warm hits across %d concurrent runs (stats %+v)", searches, warm.Stats())
	}
	if st := warm.Stats(); st.Hits == 0 {
		t.Errorf("tier reports zero hits after %d identical searches: %+v", searches, st)
	}
}

// TestWarmCacheByteBoundAdversarial streams more distinct fingerprints
// through a deliberately tiny tier than it can hold and checks the
// byte bound holds after every single admission — an adversarial
// scanning workload must cause evictions, never growth past the cap.
func TestWarmCacheByteBoundAdversarial(t *testing.T) {
	tpu := accel.TPU
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: Accel, Objective: LatSP, Arch: &tpu}
	cand := func(i int) Candidate {
		return Candidate{
			PanelArea: 10,
			Cap:       470e-6,
			Accel:     &accel.Config{Arch: accel.TPU, NPE: 4 + i, CacheBytes: units.Bytes(256)},
		}
	}
	// Measure one representative set so the cap is sized to hold only a
	// handful of entries per shard regardless of workload geometry.
	probe, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := probe.ladderSetFor(cand(0))
	if err != nil {
		t.Fatal(err)
	}
	one := ladderSetBytes(ls)
	if one <= 0 {
		t.Fatalf("ladderSetBytes = %d, want > 0", one)
	}
	// The estimate must cover what the set holds once scans have built
	// every rung: each rung and one copy of each workload layer (with its
	// name). It is taken before the set fills, as the tier takes it.
	var held int64
	for k := range ls.ladders {
		held += int64(ls.complete(k, nil)) * int64(unsafe.Sizeof(intermittent.Rung{}))
	}
	for _, l := range sc.Workload.Layers {
		held += int64(unsafe.Sizeof(l)) + int64(len(l.Name))
	}
	if one < held {
		t.Fatalf("ladderSetBytes = %d, below the %d bytes of rungs and layers the set holds", one, held)
	}
	warm := NewWarmCache(one * 2 * warmShards) // ~2 sets per shard
	sc.Warm = warm
	const distinct = 64
	for i := 0; i < distinct; i++ {
		// Fresh evaluator per lookup: no pin absorbs the traffic, every
		// lookup reaches the warm tier.
		e, err := NewEvaluator(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ladderSetFor(cand(i % 48)); err != nil {
			t.Fatal(err)
		}
		st := warm.Stats()
		if st.Bytes > st.MaxBytes {
			t.Fatalf("after admission %d: resident %d bytes exceeds bound %d", i, st.Bytes, st.MaxBytes)
		}
		if st.Bytes < 0 || st.Entries < 0 {
			t.Fatalf("after admission %d: negative accounting %+v", i, st)
		}
	}
	st := warm.Stats()
	if st.Evictions == 0 {
		t.Errorf("48 distinct fingerprints through a ~%d-entry tier caused no evictions: %+v",
			2*warmShards, st)
	}
	if st.Entries == 0 {
		t.Errorf("tier drained to zero entries under steady admissions: %+v", st)
	}
}

// TestWarmCacheModelInvalidation checks cost-model versioning: entries
// stamped under an older model fingerprint are expired on contact and
// rebuilt, never served.
func TestWarmCacheModelInvalidation(t *testing.T) {
	tpu := accel.TPU
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: Accel, Objective: LatSP, Arch: &tpu}
	cand := Candidate{
		PanelArea: 10,
		Cap:       470e-6,
		Accel:     &accel.Config{Arch: accel.TPU, NPE: 8, CacheBytes: units.Bytes(256)},
	}
	warm := NewWarmCache(64 << 20)
	sc.Warm = warm
	prime, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prime.ladderSetFor(cand); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Entries != 1 {
		t.Fatalf("prime left %d entries, want 1", st.Entries)
	}

	// Simulate a cost-model bump: the process fingerprint moves, the
	// resident entry's stamp does not.
	warm.model++

	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ladderSetFor(cand); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Expirations != 1 {
		t.Errorf("stale entry not expired: %+v", st)
	}
	if e.WarmHits() != 0 {
		t.Errorf("stale entry served as a warm hit (WarmHits=%d)", e.WarmHits())
	}
	// The rebuild is stamped with the new model and serves the next
	// search normally.
	e2, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ladderSetFor(cand); err != nil {
		t.Fatal(err)
	}
	if e2.WarmHits() != 1 {
		t.Errorf("rebuilt entry not served warm (WarmHits=%d, stats %+v)", e2.WarmHits(), warm.Stats())
	}
}

// TestFlightGroupConcurrentSingleBuild checks the single-flight group
// that fixes the old double-build wart: any number of concurrent
// callers missing the same fingerprint run exactly one build, and
// every waiter shares the leader's pointer.
func TestFlightGroupConcurrentSingleBuild(t *testing.T) {
	var g flightGroup
	fp := fingerprint{platform: Accel, npe: 8}
	built := &ladderSet{}
	var builds int64
	var mu sync.Mutex

	const callers = 16
	start := make(chan struct{})
	results := make([]*ladderSet, callers)
	shares := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ls, shared, err := g.do(fp, func() (*ladderSet, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				time.Sleep(10 * time.Millisecond) // hold the flight open for the waiters
				return built, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], shares[i] = ls, shared
		}(i)
	}
	close(start)
	wg.Wait()
	if builds != 1 {
		t.Errorf("%d concurrent callers ran %d builds, want exactly 1", callers, builds)
	}
	leaders := 0
	for i := 0; i < callers; i++ {
		if results[i] != built {
			t.Errorf("caller %d got a different pointer", i)
		}
		if !shares[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers report leading the build, want 1", leaders)
	}
}

// TestWarmCacheOversizeNeverRetained checks the admission size gate: a
// set bigger than a whole shard budget is served to its builder but
// never admitted (retaining it would evict everything else for an
// entry that can never fit).
func TestWarmCacheOversizeNeverRetained(t *testing.T) {
	warm := NewWarmCache(warmShards) // 1-byte shards: everything is oversize
	tpu := accel.TPU
	sc := Scenario{Workload: dnn.SimpleConv(), Platform: Accel, Objective: LatSP, Arch: &tpu, Warm: warm}
	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	cand := Candidate{
		PanelArea: 10,
		Cap:       470e-6,
		Accel:     &accel.Config{Arch: accel.TPU, NPE: 8, CacheBytes: units.Bytes(256)},
	}
	if _, err := e.ladderSetFor(cand); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("oversize set retained: %+v", st)
	}
}

// TestNewWarmCacheDisabled checks the zero-bound convention: a
// non-positive budget returns the nil (disabled) tier, whose stats are
// all zero and which every caller can pass through unconditionally.
func TestNewWarmCacheDisabled(t *testing.T) {
	for _, n := range []int64{0, -1, -1 << 20} {
		if c := NewWarmCache(n); c != nil {
			t.Errorf("NewWarmCache(%d) = %p, want nil", n, c)
		}
	}
	var c *WarmCache
	if st := c.Stats(); st != (WarmStats{}) {
		t.Errorf("nil tier stats = %+v, want zero", st)
	}
	if r := c.HitRatio(); r != 0 {
		t.Errorf("nil tier hit ratio = %v, want 0", r)
	}
}

// TestModelFingerprintStable pins the fingerprint's dependence on the
// version constants: the same constants give the same value within a
// process, and the value folds in both model versions (documented by
// construction — this guards against the mixing loop degenerating).
func TestModelFingerprintStable(t *testing.T) {
	a, b := modelFingerprint(), modelFingerprint()
	if a != b {
		t.Fatalf("modelFingerprint not stable: %#x vs %#x", a, b)
	}
	if a == 0 {
		t.Fatal("modelFingerprint = 0; FNV mixing degenerated")
	}
}

// TestWarmCacheStatsString sanity-checks the stats snapshot arithmetic
// exposed to /metrics and /v1/fleet: MaxBytes reflects the configured
// bound rounded to whole shards.
func TestWarmCacheStatsString(t *testing.T) {
	c := NewWarmCache(32 << 20)
	st := c.Stats()
	want := int64(32<<20) / warmShards * warmShards
	if st.MaxBytes != want {
		t.Errorf("MaxBytes = %d, want %d", st.MaxBytes, want)
	}
	if got := fmt.Sprintf("%d", st.Entries); got != "0" {
		t.Errorf("fresh tier entries = %s, want 0", got)
	}
}
