package wal

// Operational statistics for the log, kept dependency-free: the wal
// package counts, the daemon layer owns the metrics registry and maps
// these onto /metrics families (plus a latency histogram fed through
// SetSyncObserver).

import "time"

// Stats is a point-in-time snapshot of a Log's lifetime counters
// (since Open; replayed records do not count as appends).
type Stats struct {
	// Appends and BytesAppended count Append calls and their framed
	// on-disk bytes (header included).
	Appends       int64
	BytesAppended int64
	// Syncs and SyncNanos count fsyncs and their cumulative wall time:
	// every Sync call and the staged snapshot's fsync in WriteSnapshot.
	Syncs     int64
	SyncNanos int64
}

// Stats returns the log's current counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// SetSyncObserver installs a callback invoked with each fsync's
// duration in seconds (Sync and WriteSnapshot) — the hook a latency
// histogram hangs off. Pass nil to remove. Not safe to call
// concurrently with Sync.
func (l *Log) SetSyncObserver(fn func(seconds float64)) {
	l.mu.Lock()
	l.syncObs = fn
	l.mu.Unlock()
}

// observeSyncLocked accounts one timed fsync. Callers hold l.mu.
func (l *Log) observeSyncLocked(d time.Duration) {
	l.stats.Syncs++
	l.stats.SyncNanos += int64(d)
	if l.syncObs != nil {
		l.syncObs(d.Seconds())
	}
}
