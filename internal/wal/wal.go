// Package wal is a minimal, dependency-free write-ahead log for the
// chrysalisd job store: an append-only file of length-prefixed,
// CRC32-checksummed records plus an atomically-replaced snapshot file,
// so a daemon killed mid-write recovers every durable record and drops
// only the torn tail — never silently corrupted state.
//
// On-disk layout inside the log directory:
//
//	wal.log   append-only records: [uint32 length][uint32 CRC32(payload)][payload]
//	snapshot  one checksummed record holding the caller's compacted state
//
// Recovery semantics (Open): the snapshot, when present and intact, is
// returned as the base state; the log is then scanned record by record.
// The scan stops at the first frame that cannot be proven intact — a
// header shorter than 8 bytes, a length that overruns the file or the
// sanity bound, or a payload whose checksum mismatches — and the file
// is truncated back to the last intact boundary so later appends never
// land after garbage. Torn-tail truncation is reported, not fatal: it
// is the expected shape of a crash mid-append.
//
// Writers call Append for every state change and WriteSnapshot
// periodically to compact: the snapshot is staged in a temp file,
// fsynced and renamed into place before the log is reset, so a crash at
// any instant leaves either the old (snapshot, log) pair or the new
// one, never a mix that loses acknowledged records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	logName      = "wal.log"
	snapName     = "snapshot"
	snapTempName = "snapshot.tmp"

	// headerSize frames every record: uint32 payload length + uint32
	// CRC32 (IEEE) of the payload, both little-endian.
	headerSize = 8

	// MaxRecord bounds a single record's payload. Anything larger in a
	// header is treated as corruption, not an allocation request.
	MaxRecord = 16 << 20
)

// ErrRecordTooLarge rejects appends beyond MaxRecord.
var ErrRecordTooLarge = errors.New("wal: record exceeds size bound")

// Recovery is everything Open salvaged from the directory.
type Recovery struct {
	// Snapshot is the last intact snapshot payload (nil when none).
	Snapshot []byte
	// Records are the intact log records appended after the snapshot,
	// in append order.
	Records [][]byte
	// TruncatedBytes is how many trailing bytes of the log were dropped
	// as a torn or corrupt tail (0 on a clean open).
	TruncatedBytes int64
	// SnapshotCorrupt reports that a snapshot file existed but failed
	// its checksum; it was ignored (the log records still replay).
	SnapshotCorrupt bool
}

// Log is an open write-ahead log. Append and WriteSnapshot are safe for
// concurrent use.
type Log struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	records int // appended (or replayed) since the last snapshot
	closed  bool
	stats   Stats
	syncObs func(seconds float64)
}

// Open creates the directory if needed, recovers the snapshot and every
// intact log record, repairs a torn tail in place, and returns the log
// positioned for appending.
func Open(dir string) (*Log, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: create dir: %w", err)
	}
	var rec Recovery

	// Snapshot: a single framed record; an invalid one is ignored (with
	// the flag set) rather than fatal, so a crash during WriteSnapshot
	// can never brick recovery.
	if data, err := os.ReadFile(filepath.Join(dir, snapName)); err == nil {
		if payload, _, ok := decodeRecord(data); ok {
			rec.Snapshot = payload
		} else {
			rec.SnapshotCorrupt = true
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, Recovery{}, fmt.Errorf("wal: read snapshot: %w", err)
	}

	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: open log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, Recovery{}, fmt.Errorf("wal: read log: %w", err)
	}
	off := 0
	for {
		payload, n, ok := decodeRecord(data[off:])
		if !ok {
			break
		}
		rec.Records = append(rec.Records, payload)
		off += n
	}
	if tail := int64(len(data) - off); tail > 0 {
		// Torn or corrupt tail: drop it and repair the file so the next
		// append starts at an intact boundary.
		rec.TruncatedBytes = tail
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, Recovery{}, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return nil, Recovery{}, fmt.Errorf("wal: seek: %w", err)
	}
	return &Log{dir: dir, f: f, records: len(rec.Records)}, rec, nil
}

// decodeRecord parses one framed record from b, returning the payload,
// the frame's total length, and whether the frame is intact.
func decodeRecord(b []byte) (payload []byte, frame int, ok bool) {
	if len(b) < headerSize {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if n > MaxRecord || int(n) > len(b)-headerSize {
		return nil, 0, false
	}
	payload = b[headerSize : headerSize+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, headerSize + int(n), true
}

// encodeRecord frames a payload for the log.
func encodeRecord(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf
}

// Append writes one record. The frame is written with a single write
// call, so a crash leaves at worst one torn frame at the tail — exactly
// what recovery detects and drops.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return ErrRecordTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	frame := encodeRecord(payload)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.records++
	l.stats.Appends++
	l.stats.BytesAppended += int64(len(frame))
	return nil
}

// Records reports how many records the log holds since the last
// snapshot (including ones replayed at Open). Callers use it to decide
// when to compact.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Sync flushes the log file to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	start := time.Now()
	err := l.f.Sync()
	l.observeSyncLocked(time.Since(start))
	return err
}

// WriteSnapshot atomically replaces the snapshot with state and resets
// the log: the new snapshot is staged, fsynced and renamed before the
// log is truncated, so every acknowledged record is always recoverable
// from either the old log or the new snapshot.
func (l *Log) WriteSnapshot(state []byte) error {
	if len(state) > MaxRecord {
		return ErrRecordTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	tmp := filepath.Join(l.dir, snapTempName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: stage snapshot: %w", err)
	}
	if _, err := f.Write(encodeRecord(state)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset log: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	l.records = 0
	return nil
}

// Close releases the log file. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
