package explore

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dnn"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/search"
	"chrysalis/internal/units"
)

// poisonedSlab returns an empty slab whose current blocks are recycled
// ones filled with garbage: every ladder claims to be done with a huge
// rung count, has a NaN floor and an out-of-range visit slot and points
// at NaN rungs, and every rung is NaN. A set carved from it matches the
// eager ladders only if carving clears the ladder array, the set build
// writes every floor and visit slot, and no scan reads a rung before its
// ladder publishes it.
func poisonedSlab() *slab {
	nan := math.NaN()
	bad := intermittent.Rung{NTile: -1, Power: units.Power(nan), TileEnergy: units.Energy(nan), Energy: units.Energy(nan)}
	lb := ladderBlocks.Get().(*ladderBlock)
	rb := rungBlocks.Get().(*rungBlock)
	for i := range rb {
		rb[i] = bad
	}
	near := &[nearRungs]intermittent.Rung{bad, bad, bad}
	for i := range lb {
		lb[i] = lazyLadder{floor: intermittent.Floor{A: nan, B: nan}, visit: 0xff, head: bad, near: near, tail: rb[:16]}
		lb[i].state.Store(^uint64(0))
	}
	return &slab{ladders: lb[:], rungs: rb[:], lblocks: []*ladderBlock{lb}, rblocks: []*rungBlock{rb}}
}

// TestEvaluatorReleaseContract pins what release promises: a search
// evaluator without a warm tier carves its sets from a slab, release
// drops the pinned sets and hands every block back, and any later scan
// panics with a message that names the release instead of reading
// storage another search may be reusing.
func TestEvaluatorReleaseContract(t *testing.T) {
	e, err := newSearchEvaluator(context.Background(), Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP})
	if err != nil {
		t.Fatal(err)
	}
	cand := accelCandidates()[1]
	if _, err := e.score(cand); err != nil {
		t.Fatal(err)
	}
	s := e.slab
	ls, err := e.ladderSetFor(cand)
	if err != nil {
		t.Fatal(err)
	}
	ls.complete(0, nil)
	if s == nil || ls.slab != s || len(s.lblocks) == 0 || len(s.rblocks) == 0 {
		t.Fatalf("search evaluator without a tier: slab %v, set carved from it: %v", s != nil, ls.slab == s)
	}
	e.release()
	if e.pins != nil || e.slab != nil || len(s.lblocks) != 0 || len(s.rblocks) != 0 {
		t.Fatalf("after release: pins %v, slab %v, %d+%d blocks kept", e.pins != nil, e.slab != nil,
			len(s.lblocks), len(s.rblocks))
	}
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		e.score(cand)
		return ""
	}()
	if !strings.Contains(msg, "released") {
		t.Fatalf("scan after release panicked with %q, want the release message", msg)
	}
}

// TestSlabSetsNeverReachWarmTier checks that storage a warm tier keeps
// is never carved from a slab: an evaluator the caller owns has no slab,
// a search evaluator has one only without a tier, and after searches on
// every platform preset every set resident in the tier is heap-backed.
func TestSlabSetsNeverReachWarmTier(t *testing.T) {
	tpu, eyeriss := accel.TPU, accel.Eyeriss
	warm := NewWarmCache(64 << 20)
	for _, sc := range []Scenario{
		{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP},
		{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &tpu},
		{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &eyeriss},
	} {
		if e, err := NewEvaluator(sc); err != nil || e.slab != nil {
			t.Fatalf("NewEvaluator: slab %v, err %v", err == nil && e.slab != nil, err)
		}
		sc.Warm = warm
		e, err := newSearchEvaluator(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if e.slab != nil {
			t.Fatal("a search evaluator with a warm tier has a slab")
		}
		e.release()
		if _, err := Explore(context.Background(), sc, Full, smallGA(3)); err != nil {
			t.Fatal(err)
		}
	}
	resident := 0
	for i := range warm.shards {
		for _, we := range warm.shards[i].entries {
			resident++
			if we.ls.slab != nil {
				t.Fatalf("warm tier holds a slab-backed set for %+v", we.fp)
			}
		}
	}
	if resident == 0 {
		t.Fatal("the searches left no set in the tier")
	}
}

// TestSlabConcurrentSearchHammer runs two searches at once, each with
// two workers, sharing the block pools: a short search runs again and
// again, releasing its slab each time, while a long search keeps
// scanning sets carved from blocks the pools hand out. Every Outcome
// must equal its serial reference. The long search waits at its first
// generation until the first short search has returned and released
// its slab, so the overlap does not depend on scheduling. Run under
// -race via `make race`.
func TestSlabConcurrentSearchHammer(t *testing.T) {
	tpu := accel.TPU
	short := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP, Arch: &tpu}
	long := Scenario{Workload: dnn.VGG16(), Platform: Accel, Objective: Lat}
	run := func(sc Scenario, gens, workers int, onQuality func(search.GenQuality)) (Outcome, error) {
		cfg := smallGA(5)
		cfg.Generations = gens
		cfg.Workers = workers
		cfg.SerialCostFloor = -1
		cfg.OnQuality = onQuality
		return Explore(context.Background(), sc, Full, cfg)
	}
	const shortGens, longGens = 4, 40
	wantShort, err := run(short, shortGens, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLong, err := run(long, longGens, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantShort.Workers, wantLong.Workers = 2, 2

	var gotLong Outcome
	var longErr error
	done := make(chan struct{})
	shortReleased := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(shortReleased) }) }
	defer release() // a failing short search must not strand the long one
	go func() {
		defer close(done)
		gotLong, longErr = run(long, longGens, 2, func(search.GenQuality) { <-shortReleased })
	}()
	overlapped := 0
	for running := true; running; {
		got, err := run(short, shortGens, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantShort) {
			t.Fatalf("short search %d differs from its serial reference (value %v vs %v)", overlapped, got.Value, wantShort.Value)
		}
		select {
		case <-done:
			running = false
		default:
			overlapped++
			release()
		}
	}
	if longErr != nil {
		t.Fatal(longErr)
	}
	if !reflect.DeepEqual(gotLong, wantLong) {
		t.Fatalf("long search differs from its serial reference (value %v vs %v)", gotLong.Value, wantLong.Value)
	}
	if overlapped == 0 {
		t.Fatal("no short search released its slab while the long one was still running")
	}
	t.Logf("%d short searches released while the long one ran", overlapped)
}
