package explore

// Search-scoped ladder storage. A search that owns its evaluator and
// attaches no warm tier drops every ladder set it built when it ends,
// and most of those sets are scanned by a single evaluation. Allocating
// their ladder arrays and rung storage on the heap made a cold search
// a stream of short-lived garbage the collector had to trace, about one
// GC cycle per design. A slab instead carves that storage from fixed-size
// blocks recycled through a sync.Pool and hands the blocks back when the
// search releases its evaluator, so the next search reuses them.
//
// Storage that outlives a search stays on the heap: sets built for a
// WarmCache (the tier owns them) and the sets of an evaluator the caller
// owns (NewEvaluator, EvaluateCandidate), which has no point at which
// its storage is known to be dead.

import (
	"sync"
	"sync/atomic"

	"chrysalis/internal/intermittent"
)

const (
	// ladderBlockLen is the ladder count of a recycled ladder block
	// (96 KiB), room for the ladder arrays of several sets of the
	// deepest catalog workload.
	ladderBlockLen = 1024
	// rungBlockLen is the rung count of a recycled rung block (128 KiB).
	rungBlockLen = 4096
	// setChunkRungs is how many rungs a slab-backed set carves from its
	// slab at a time. Its ladders' near chunks and tails are then carved
	// from that chunk under the set's own lock, so the slab's lock is
	// taken once per chunk rather than once per ladder.
	setChunkRungs = 128
)

type (
	ladderBlock [ladderBlockLen]lazyLadder
	rungBlock   [rungBlockLen]intermittent.Rung
)

var (
	ladderBlocks = sync.Pool{New: func() any { return new(ladderBlock) }}
	rungBlocks   = sync.Pool{New: func() any { return new(rungBlock) }}
)

// slab is the ladder storage of one search: it carves ladder arrays and
// rung chunks from the blocks it took and returns them all at release.
// It is safe for concurrent use by the search's workers.
type slab struct {
	mu      sync.Mutex
	ladders []lazyLadder        // uncarved rest of the current ladder block
	rungs   []intermittent.Rung // uncarved rest of the current rung block
	lblocks []*ladderBlock      // every block taken, returned by release
	rblocks []*rungBlock
}

// ladderArray returns n ladders that carry neither state nor rung
// storage over from an earlier search. Their floor and visit slot are
// left for setFloors to write, and a ladder writes its head before its
// state publishes it, so nothing else needs resetting. A request larger
// than a block gets its own allocation.
func (s *slab) ladderArray(n int) []lazyLadder {
	if n > ladderBlockLen {
		return make([]lazyLadder, n)
	}
	s.mu.Lock()
	if n > len(s.ladders) {
		b := ladderBlocks.Get().(*ladderBlock)
		s.lblocks = append(s.lblocks, b)
		s.ladders = b[:]
	}
	l := s.ladders[:n:n]
	s.ladders = s.ladders[n:]
	s.mu.Unlock()
	// A recycled block holds an earlier search's ladders.
	for i := range l {
		l[i].state, l[i].near, l[i].tail = atomic.Uint64{}, nil, nil
	}
	return l
}

// rungChunk returns storage for n rungs. It is not cleared: a ladder
// writes each rung before its state publishes it, so nothing reads what
// an earlier search left there. A request larger than a block gets its
// own allocation.
func (s *slab) rungChunk(n int) []intermittent.Rung {
	if n > rungBlockLen {
		return make([]intermittent.Rung, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.rungs) {
		b := rungBlocks.Get().(*rungBlock)
		s.rblocks = append(s.rblocks, b)
		s.rungs = b[:]
	}
	r := s.rungs[:n:n]
	s.rungs = s.rungs[n:]
	return r
}

// release hands every block back to the pool. Nothing carved from the
// slab may be used afterwards; the slab itself starts empty again.
func (s *slab) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, b := range s.lblocks {
		ladderBlocks.Put(b)
		s.lblocks[i] = nil
	}
	for i, b := range s.rblocks {
		rungBlocks.Put(b)
		s.rblocks[i] = nil
	}
	s.lblocks, s.rblocks = s.lblocks[:0], s.rblocks[:0]
	s.ladders, s.rungs = nil, nil
}
