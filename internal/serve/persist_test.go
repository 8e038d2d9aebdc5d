package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chrysalis/internal/wal"
)

// walTestOpts builds manager options with a WAL directory and NO
// workers: newManager (unlike New) takes Workers literally, so zero
// workers means submitted jobs stay queued forever — the deterministic
// way to freeze a job mid-lifecycle for crash tests.
func walTestOpts(t *testing.T, dir string) Options {
	t.Helper()
	return Options{
		Workers:    0,
		QueueDepth: 8,
		CacheSize:  8,
		MaxJobs:    128,
		WALDir:     dir,
		Logger:     testLogger(t),
	}
}

// mustSubmit normalizes and submits a request, failing the test on any
// submission error.
func mustSubmit(t *testing.T, m *manager, req DesignRequest) *job {
	t.Helper()
	js, err := normalize(req)
	if err != nil {
		t.Fatal(err)
	}
	j, reused, err := m.submit(js)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatalf("submit %v unexpectedly reused an existing job", req)
	}
	return j
}

// TestWALCrashRecovery is the durability contract test: jobs journaled
// before a simulated crash (WAL closed in place, nothing flushed or
// cleaned up) come back on restart — finished ones as servable history
// that re-seeds the result cache, queued ones re-enqueued under their
// original IDs.
func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := walTestOpts(t, dir)
	m1, err := newManager(opts)
	if err != nil {
		t.Fatal(err)
	}

	// One job runs to completion (driven by hand — there are no
	// workers), two more stay queued, as at a mid-burst crash.
	done := mustSubmit(t, m1, DesignRequest{Workload: "har", Budget: 60, Seed: 1})
	m1.run(done)
	if st := done.status(); st.State != JobDone || st.Result == nil {
		t.Fatalf("pilot job: state %s (%s)", st.State, st.Error)
	}
	q1 := mustSubmit(t, m1, DesignRequest{Workload: "har", Budget: 60, Seed: 2})
	q2 := mustSubmit(t, m1, DesignRequest{Workload: "har", Budget: 60, Seed: 3})

	// Crash: the journal detaches (file closed in place, later appends
	// lost) and the manager is abandoned without any shutdown.
	m1.journal.detach()

	m2, err := newManager(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m2.close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// The finished job is servable history with its full payload, under
	// its original ID.
	rj, ok := m2.get(done.id)
	if !ok {
		t.Fatalf("done job %s not recovered", done.id)
	}
	if st := rj.status(); st.State != JobDone || st.Result == nil {
		t.Fatalf("recovered done job: state %s result=%v", st.State, st.Result)
	}
	// ... and its result re-seeded the content-addressed cache.
	if _, ok := m2.cache.get(done.js.key); !ok {
		t.Error("recovered done result did not re-seed the cache")
	}

	// Both pending jobs are back in the queue as queued, under their
	// original IDs, counted by the recovery metric.
	if got := len(m2.queue); got != 2 {
		t.Fatalf("recovered queue depth = %d, want 2", got)
	}
	if got := m2.met.jobsRecovered.Value(); got != 2 {
		t.Errorf("jobs_recovered = %d, want 2", got)
	}
	for _, orig := range []*job{q1, q2} {
		rq, ok := m2.get(orig.id)
		if !ok {
			t.Fatalf("pending job %s not recovered", orig.id)
		}
		if st := rq.status(); st.State != JobQueued {
			t.Errorf("recovered job %s state = %s, want queued", orig.id, st.State)
		}
		// Single-flight still coalesces: resubmitting the identical
		// request attaches to the recovered job instead of queueing twice.
		js, err := normalize(orig.js.req)
		if err != nil {
			t.Fatal(err)
		}
		dup, reused, err := m2.submit(js)
		if err != nil {
			t.Fatal(err)
		}
		if !reused || dup != rq {
			t.Errorf("resubmit of %s did not coalesce onto the recovered job", orig.id)
		}
	}

	// Job IDs are never reused across restarts: a fresh submission gets
	// an ID beyond everything the journal knew of.
	fresh := mustSubmit(t, m2, DesignRequest{Workload: "har", Budget: 60, Seed: 4})
	if seq, highest := jobSeq(fresh.id), jobSeq(q2.id); seq <= highest {
		t.Errorf("fresh job ID %s does not advance past recovered %s", fresh.id, q2.id)
	}

	// Drain the recovered queue by hand and check a recovered job
	// actually re-runs to completion.
	rq1, _ := m2.get(q1.id)
	m2.run(rq1)
	if st := rq1.status(); st.State != JobDone || st.Result == nil {
		t.Errorf("recovered job %s re-run: state %s (%s)", q1.id, st.State, st.Error)
	}
}

// TestWALSnapshotCompaction drives enough journal records to cross the
// snapshotEvery threshold and checks recovery still sees every job —
// the snapshot plus the residual log reconstruct the same table.
func TestWALSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := walTestOpts(t, dir)
	opts.QueueDepth = 2 * snapshotEvery
	m1, err := newManager(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Each submission is one record; submit past the threshold so at
	// least one compaction runs mid-stream.
	n := snapshotEvery + 8
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		j := mustSubmit(t, m1, DesignRequest{Workload: "har", Budget: 60, Seed: int64(100 + i)})
		ids = append(ids, j.id)
	}
	if rec := m1.journal.records(); rec >= snapshotEvery {
		t.Fatalf("journal never compacted: %d records pending", rec)
	}
	m1.journal.detach()

	m2, err := newManager(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m2.close(ctx)
	}()
	if got := len(m2.queue); got != n {
		t.Fatalf("recovered queue depth = %d, want %d", got, n)
	}
	for _, id := range ids {
		if _, ok := m2.get(id); !ok {
			t.Errorf("job %s lost across snapshot compaction", id)
		}
	}
}

// TestLifecycleTotalsNeverLagState pins the order in which a job
// finishes: its result is cached and chrysalisd_jobs_done_total counts
// it before its done state is visible, while the WAL journal (and its
// fsync) still follows the state change. A client that polls each job
// to done and reads the total right away must find every job it has
// seen finish counted and its result cached. The poll spins on the
// job's status, so it sees the state change as soon as any client could.
func TestLifecycleTotalsNeverLagState(t *testing.T) {
	m, err := newManager(walTestOpts(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.close(context.Background()); err != nil {
			t.Error(err)
		}
	})
	const jobs = 30
	for i := 0; i < jobs; i++ {
		j := mustSubmit(t, m, DesignRequest{Workload: "har", Budget: 40, Seed: int64(100 + i)})
		go m.run(<-m.queue) // the manager has no workers of its own
		st := j.status()
		for !st.State.terminal() {
			st = j.status()
		}
		if st.State != JobDone {
			t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if got := m.met.jobsDone.Value(); got < int64(i+1) {
			t.Fatalf("after %d jobs seen done, chrysalisd_jobs_done_total = %d", i+1, got)
		}
		if _, ok := m.cache.get(j.js.key); !ok {
			t.Fatalf("job %s is done but its result is not cached", st.ID)
		}
		<-j.done
	}
}

// closeManager shuts m down at the end of the test.
func closeManager(t *testing.T, m *manager) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.close(ctx)
	})
}

// TestWALLegacySnapshotRecovers: a snapshot written in the one-frame
// layout that held the whole table in a single payload still recovers
// every job it lists, and its next_id still bounds fresh job IDs.
func TestWALLegacySnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"next_id":9,"jobs":[` +
		`{"op":"failed","id":"j-000001","req":{"workload":"har","budget":60,"seed":1},"error":"boom"},` +
		`{"op":"cancelled","id":"j-000002","req":{"workload":"har","budget":60,"seed":2},"error":"cancelled by client"},` +
		`{"op":"submit","id":"j-000003","req":{"workload":"har","budget":60,"seed":3}}]}`)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := newManager(walTestOpts(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	closeManager(t, m)
	for id, want := range map[string]struct {
		state JobState
		err   string
	}{
		"j-000001": {JobFailed, "boom"},
		"j-000002": {JobCancelled, "cancelled by client"},
		"j-000003": {JobQueued, ""},
	} {
		j, ok := m.get(id)
		if !ok {
			t.Fatalf("job %s not recovered from the legacy snapshot", id)
		}
		if st := j.status(); st.State != want.state || st.Error != want.err {
			t.Errorf("job %s: state %s error %q, want %s %q", id, st.State, st.Error, want.state, want.err)
		}
	}
	if m.journal.recSnapCorrupt {
		t.Error("legacy snapshot flagged corrupt")
	}
	if fresh := mustSubmit(t, m, DesignRequest{Workload: "har", Budget: 60, Seed: 4}); fresh.id != "j-000010" {
		t.Errorf("fresh job ID %s, want j-000010 after next_id 9", fresh.id)
	}
}

// TestWALSnapshotBeyondMaxRecord: a job table whose encoding exceeds
// wal.MaxRecord still compacts — one frame per job — and recovers.
func TestWALSnapshotBeyondMaxRecord(t *testing.T) {
	dir := t.TempDir()
	opts := walTestOpts(t, dir)
	opts.QueueDepth = 64
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil)) // the errors are 768 KiB each
	m1, err := newManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	const submitted, failed = 40, snapshotEvery - 40
	var jobs []*job
	for i := 0; i < submitted; i++ {
		jobs = append(jobs, mustSubmit(t, m1, DesignRequest{Workload: "har", Budget: 60, Seed: int64(100 + i)}))
	}
	// The 64th record crosses the threshold with 24 jobs carrying a
	// 768 KiB error each: 18 MiB of table.
	huge := errors.New(strings.Repeat("e", 768<<10))
	for _, j := range jobs[:failed] {
		m1.finish(j, JobFailed, huge)
	}
	if got := m1.journal.records(); got != 0 {
		t.Fatalf("journal holds %d records after the threshold; the table did not compact", got)
	}
	fi, err := os.Stat(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= wal.MaxRecord {
		t.Fatalf("snapshot is %d bytes, not beyond wal.MaxRecord", fi.Size())
	}
	m1.journal.detach()

	m2, err := newManager(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	closeManager(t, m2)
	if m2.journal.recSnapCorrupt {
		t.Fatal("snapshot beyond wal.MaxRecord flagged corrupt")
	}
	for i, orig := range jobs {
		j, ok := m2.get(orig.id)
		if !ok {
			t.Fatalf("job %s lost across the snapshot", orig.id)
		}
		st := j.status()
		if i < failed && (st.State != JobFailed || st.Error != huge.Error()) {
			t.Errorf("job %s: state %s with a %d-byte error, want failed with the original", orig.id, st.State, len(st.Error))
		}
		if i >= failed && st.State != JobQueued {
			t.Errorf("job %s: state %s, want queued", orig.id, st.State)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for a logger's concurrent writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) count(sub string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Count(s.b.String(), sub)
}

// TestWALFailedSnapshotWaitsAThreshold: a snapshot that fails is not
// retried on the next record — which would re-encode the whole table
// for every record from then on — but a whole threshold later.
func TestWALFailedSnapshotWaitsAThreshold(t *testing.T) {
	dir := t.TempDir()
	opts := walTestOpts(t, dir)
	opts.QueueDepth = 3 * snapshotEvery
	opts.MaxJobs = 8 // finished jobs are pruned: the threshold stays at its floor
	var logs syncBuffer
	opts.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	m, err := newManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	closeManager(t, m)
	// A directory where the snapshot is staged makes every attempt fail.
	blocker := filepath.Join(dir, "snapshot.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	records := func(n int) { // n records: a submit and a cancel per job
		for i := 0; i < n/2; i++ {
			seed++
			j := mustSubmit(t, m, DesignRequest{Workload: "har", Budget: 60, Seed: seed})
			m.cancelJob(j.id)
		}
	}
	records(snapshotEvery)
	if got := logs.count("snapshot failed"); got != 1 {
		t.Fatalf("%d failed snapshots after %d records, want 1", got, snapshotEvery)
	}
	records(snapshotEvery - 2)
	if got := logs.count("snapshot failed"); got != 1 {
		t.Fatalf("%d failed snapshots within a threshold of the first failure, want 1", got)
	}
	records(2)
	if got := logs.count("snapshot failed"); got != 2 {
		t.Fatalf("%d failed snapshots a threshold after the first failure, want 2", got)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	records(snapshotEvery)
	if got := logs.count("snapshot failed"); got != 2 {
		t.Errorf("%d failed snapshots, want 2", got)
	}
	if got := m.journal.records(); got != 0 {
		t.Errorf("journal holds %d records after a successful snapshot", got)
	}
}

// records reports log records since the last snapshot.
func (jn *journal) records() int {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.detached {
		return 0
	}
	return jn.log.Records()
}

// detach simulates a crash for tests: the WAL file is closed in place,
// all later appends are silently lost, and no cleanup runs — exactly
// the state a kill -9 leaves behind.
func (jn *journal) detach() {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.detached {
		return
	}
	jn.detached = true
	_ = jn.log.Close()
}
