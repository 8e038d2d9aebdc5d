package serve

// WAL-backed job durability. Every accepted submission and every
// terminal transition appends one JSON record to an append-only,
// checksummed log (internal/wal). Once the log holds as many records as
// the job table (and at least snapshotEvery), the table is snapshotted,
// one frame per job, and the log reset. On startup the snapshot plus
// the log replay rebuild the job table: finished jobs come back as
// servable history (done ones re-seed the result cache), jobs that were
// queued or running at the crash are re-enqueued and evaluated again.
//
// What does NOT survive a restart: flight recordings (the recorder is
// an in-memory ring of raw simulator samples, deliberately not
// serialized) and live SSE subscriptions. Both are re-derivable — a
// recovered verify job replays and re-records.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"

	"chrysalis/internal/audit"
	"chrysalis/internal/core"
	"chrysalis/internal/wal"
)

// snapshotEvery is the floor of the log-compaction threshold, in
// records; the threshold is the larger of it and the job table's size.
const snapshotEvery = 64

// walRecord journal ops.
const (
	opSubmit = "submit"
)

// walRecord is one journal entry. Terminal records (Op = done | failed
// | cancelled) are self-contained — they repeat Req so recovery never
// depends on finding the matching submit (which an intervening
// snapshot or job-table prune may have dropped).
type walRecord struct {
	Op     string         `json:"op"` // submit | done | failed | cancelled
	ID     string         `json:"id"`
	Req    *DesignRequest `json:"req,omitempty"`
	Result *core.Result   `json:"result,omitempty"`
	Verify *SimSummary    `json:"verify,omitempty"`
	Audit  *audit.Report  `json:"audit,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// walSnapshot is a snapshot's first frame; one walRecord frame per job
// follows it. Jobs is set only in a legacy snapshot, which held the
// whole table in this one frame.
type walSnapshot struct {
	NextID int64       `json:"next_id"`
	Jobs   []walRecord `json:"jobs,omitempty"`
}

// recoveredJob is one job rebuilt from the journal, ready for adopt().
type recoveredJob struct {
	id     string
	state  JobState
	req    DesignRequest
	result *core.Result
	verify *SimSummary
	audit  *audit.Report
	err    string
	seq    int64 // position in replay order, for stable re-enqueue
}

// journal serializes writes to the underlying WAL. Append errors
// degrade durability, never availability: they are logged and the
// daemon keeps serving from memory.
type journal struct {
	mu       sync.Mutex
	log      *wal.Log
	logger   *slog.Logger
	detached bool
	// since counts the records appended since the last snapshot
	// attempt, successful or not, so a failing snapshot is retried
	// only a whole threshold later.
	since int
	// buf and enc encode every record and snapshot frame into one
	// reused buffer.
	buf bytes.Buffer
	enc *json.Encoder

	// Recovery outcome of the open that produced this journal, frozen
	// for the metrics page: bytes dropped from a torn tail and whether
	// the snapshot failed its checksum.
	recTruncated   int64
	recSnapCorrupt bool
}

// openJournal opens (or creates) the WAL directory and replays it into
// recovered jobs, ordered as originally submitted. nextID is the
// highest job sequence the journal knows of — IDs must never be reused
// across restarts, or stale log records could merge into new jobs on a
// later recovery.
func openJournal(dir string, logger *slog.Logger) (jn *journal, jobs []*recoveredJob, nextID int64, err error) {
	lg, rec, err := wal.Open(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: open wal: %w", err)
	}
	if rec.TruncatedBytes > 0 {
		logger.Warn("wal: dropped torn tail", "bytes", rec.TruncatedBytes)
	}
	if rec.SnapshotCorrupt {
		logger.Warn("wal: snapshot failed checksum; replaying log only")
	}

	byID := make(map[string]*recoveredJob)
	var order []string
	var seq int64
	apply := func(r walRecord) {
		if r.ID == "" {
			return
		}
		j := byID[r.ID]
		if j == nil {
			j = &recoveredJob{id: r.ID, state: JobQueued, seq: seq}
			seq++
			byID[r.ID] = j
			order = append(order, r.ID)
		}
		if r.Req != nil {
			j.req = *r.Req
		}
		switch r.Op {
		case opSubmit:
			// state stays queued
		case string(JobDone), string(JobFailed), string(JobCancelled):
			j.state = JobState(r.Op)
			j.result = r.Result
			j.verify = r.Verify
			j.audit = r.Audit
			j.err = r.Error
		default:
			logger.Warn("wal: unknown op skipped", "op", r.Op, "job", r.ID)
		}
	}

	replay := func(what string, raws [][]byte) {
		for i, raw := range raws {
			var r walRecord
			if err := json.Unmarshal(raw, &r); err != nil {
				logger.Warn("wal: undecodable "+what+" skipped", "index", i, "error", err)
				continue
			}
			apply(r)
		}
	}
	if len(rec.Snapshot) > 0 {
		var snap walSnapshot
		if err := json.Unmarshal(rec.Snapshot[0], &snap); err != nil {
			logger.Warn("wal: undecodable snapshot ignored", "error", err)
		} else {
			nextID = snap.NextID
			for _, r := range snap.Jobs {
				apply(r)
			}
			replay("snapshot job", rec.Snapshot[1:])
		}
	}
	replay("record", rec.Records)

	out := make([]*recoveredJob, 0, len(order))
	for _, id := range order {
		out = append(out, byID[id])
		if n := jobSeq(id); n > nextID {
			nextID = n
		}
	}
	jn = &journal{
		log: lg, logger: logger,
		since:          len(rec.Records),
		recTruncated:   rec.TruncatedBytes,
		recSnapCorrupt: rec.SnapshotCorrupt,
	}
	jn.enc = json.NewEncoder(&jn.buf)
	return jn, out, nextID, nil
}

// registerWALMetrics exports the journal's durability counters: append
// and fsync volume, and the recovery outcome of the last startup. The fsync histogram is fed straight from the log's sync
// observer, so every journal fsync (terminal records, snapshots,
// shutdown) lands in it.
func (m *manager) registerWALMetrics() {
	reg, jn := m.met.reg, m.journal
	fsync := reg.Histogram("chrysalisd_wal_fsync_seconds",
		"Latency of WAL fsync calls (terminal job records, snapshots, shutdown).", nil)
	jn.log.SetSyncObserver(fsync.Observe)
	reg.CounterFunc("chrysalisd_wal_appends_total",
		"Records appended to the WAL.",
		func() int64 { return jn.log.Stats().Appends })
	reg.CounterFunc("chrysalisd_wal_appended_bytes_total",
		"Bytes appended to the WAL, framing included.",
		func() int64 { return jn.log.Stats().BytesAppended })
	reg.GaugeFunc("chrysalisd_wal_recovery_truncated_bytes",
		"Bytes dropped from a torn WAL tail at the last startup.",
		func() int64 { return jn.recTruncated })
	reg.GaugeFunc("chrysalisd_wal_recovery_snapshot_corrupt",
		"Whether the last startup found a checksum-corrupt WAL snapshot (1) or not (0).",
		func() int64 {
			if jn.recSnapCorrupt {
				return 1
			}
			return 0
		})
}

// encode encodes v as JSON into the journal's reused buffer; the bytes
// are valid until the next encode. jn.mu must be held.
func (jn *journal) encode(v any) ([]byte, error) {
	jn.buf.Reset()
	if err := jn.enc.Encode(v); err != nil {
		return nil, err
	}
	b := jn.buf.Bytes()
	return b[:len(b)-1], nil // drop Encode's newline: the bytes json.Marshal gives
}

// append writes one record and reports how many records the journal
// has appended since its last snapshot attempt. Terminal records are
// synced to disk — a job's outcome is worth an fsync at job
// granularity; submit records ride the OS page cache until the next
// sync or snapshot.
func (jn *journal) append(rec walRecord) int {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.detached {
		return 0
	}
	payload, err := jn.encode(rec)
	if err != nil {
		jn.logger.Warn("wal: marshal failed", "op", rec.Op, "job", rec.ID, "error", err)
		return jn.since
	}
	if err := jn.log.Append(payload); err != nil {
		jn.logger.Warn("wal: append failed; continuing without durability",
			"op", rec.Op, "job", rec.ID, "error", err)
		return jn.since
	}
	jn.since++
	if rec.Op != opSubmit {
		if err := jn.log.Sync(); err != nil {
			jn.logger.Warn("wal: sync failed", "error", err)
		}
	}
	return jn.since
}

// snapshot compacts the log to the job table: frame 0 holds nextID,
// then one frame per job of order, each encoded in turn into the
// journal's one buffer. The snapshot so never holds more than one job's
// encoding in memory, and wal.MaxRecord bounds a job, not the table.
// The caller holds the manager lock, which keeps jobs and order
// consistent with the log position.
func (jn *journal) snapshot(nextID int64, order []string, jobs map[string]*job) {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.detached {
		return
	}
	jn.since = 0
	err := jn.log.WriteSnapshot(func(emit func([]byte) error) error {
		frame := func(v any) error {
			payload, err := jn.encode(v)
			if err != nil {
				return err
			}
			return emit(payload)
		}
		if err := frame(walSnapshot{NextID: nextID}); err != nil {
			return err
		}
		for _, id := range order {
			if j, ok := jobs[id]; ok {
				if err := frame(j.walRecord()); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		jn.logger.Warn("wal: snapshot failed", "error", err)
	}
}

// close syncs and closes the WAL.
func (jn *journal) close() {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.detached {
		return
	}
	if err := jn.log.Sync(); err != nil {
		jn.logger.Warn("wal: final sync failed", "error", err)
	}
	if err := jn.log.Close(); err != nil {
		jn.logger.Warn("wal: close failed", "error", err)
	}
}

// jobSeq extracts the numeric sequence from a "j-%06d" job ID (0 when
// the ID does not parse).
func jobSeq(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// walRecord snapshots the job as a self-contained journal record.
func (j *job) walRecord() walRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.walRecordLocked()
}

// walRecordLocked is walRecord with j.mu already held.
func (j *job) walRecordLocked() walRecord {
	req := j.js.req
	rec := walRecord{ID: j.id, Req: &req}
	if j.state.terminal() {
		rec.Op = string(j.state)
		rec.Result = j.result
		rec.Verify = j.verify
		rec.Audit = j.audit
		rec.Error = j.err
	} else {
		rec.Op = opSubmit
	}
	return rec
}
