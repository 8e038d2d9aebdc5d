// Package wal is a minimal, dependency-free write-ahead log for the
// chrysalisd job store: an append-only file of length-prefixed,
// CRC32-checksummed records plus an atomically-replaced snapshot file,
// so a daemon killed mid-write recovers every durable record and drops
// only the torn tail — never silently corrupted state.
//
// On-disk layout inside the log directory. Every frame is
// [uint32 length][uint32 CRC32(payload)][payload], little-endian:
//
//	wal.log   append-only record frames
//	snapshot  the caller's compacted state as a sequence of frames: a
//	          marker frame holding snapshotMagic, one frame per
//	          caller-emitted payload, and an empty end frame
//
// A snapshot file that is one non-empty frame with no marker is the
// legacy form (the whole state in one payload, bounded by MaxRecord);
// it still reads, as a one-frame snapshot. The marker and the end frame
// make a snapshot cut at a frame boundary detectable: each frame's
// checksum covers only that frame.
//
// Recovery semantics (Open): the snapshot, when present and intact in
// every frame, is returned as the base state; the log is then scanned
// record by record. The scan stops at the first frame that cannot be
// proven intact — a header shorter than 8 bytes, a length that overruns
// the file or the sanity bound, or a payload whose checksum mismatches
// — and the file is truncated back to the last intact boundary so later
// appends never land after garbage. Torn-tail truncation is reported, not fatal: it
// is the expected shape of a crash mid-append.
//
// Writers call Append for every state change and WriteSnapshot
// periodically to compact: the snapshot's frames are streamed through a
// buffered writer into a temp file, which is fsynced and renamed into
// place before the log is reset, so a crash at any instant leaves
// either the old (snapshot, log) pair or the new one, never a mix that
// loses acknowledged records.
package wal

import (
	"bufio"
	"bytes"
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

	// MaxRecord bounds a single record's payload, a log record's or one
	// snapshot frame's. Anything larger in a header is treated as
	// corruption, not an allocation request.
	MaxRecord = 16 << 20

	// snapshotBuffer sizes the buffered writer a snapshot streams its
	// frames through.
	snapshotBuffer = 64 << 10
)

// snapshotMagic is the payload of a framed snapshot's first frame, what
// tells it from a legacy one-frame snapshot.
var snapshotMagic = []byte("chrysalis-wal-snapshot/2")

// ErrRecordTooLarge rejects appends beyond MaxRecord.
var ErrRecordTooLarge = errors.New("wal: record exceeds size bound")

// Recovery is everything Open salvaged from the directory.
type Recovery struct {
	// Snapshot holds the payloads of the last intact snapshot's frames,
	// in the order they were emitted (nil when none). A legacy snapshot
	// is one frame.
	Snapshot [][]byte
	// Records are the intact log records appended after the snapshot,
	// in append order.
	Records [][]byte
	// TruncatedBytes is how many trailing bytes of the log were dropped
	// as a torn or corrupt tail (0 on a clean open).
	TruncatedBytes int64
	// SnapshotCorrupt reports that a snapshot file existed but was not
	// intact in every frame; it was ignored (the log records still
	// replay).
	SnapshotCorrupt bool
}

// Log is an open write-ahead log. Append and WriteSnapshot are safe for
// concurrent use.
type Log struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	frame   []byte // Append's framing buffer, reused across appends
	records int    // appended (or replayed) since the last snapshot
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

	// Snapshot: an invalid one is ignored (with the flag set) rather
	// than fatal, so a damaged snapshot can never brick recovery.
	if data, err := os.ReadFile(filepath.Join(dir, snapName)); err == nil {
		if frames, ok := decodeSnapshot(data); ok {
			rec.Snapshot = frames
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

// decodeSnapshot splits a snapshot file into its payloads. It accepts
// a framed snapshot (marker frame, payload frames, empty end frame) and
// a legacy one (a single non-empty frame), and nothing else: a file
// with any frame that is not intact, bytes past the last frame, or a
// missing marker or end frame is corrupt.
func decodeSnapshot(data []byte) (payloads [][]byte, ok bool) {
	var frames [][]byte
	for off := 0; off < len(data); {
		payload, n, ok := decodeRecord(data[off:])
		if !ok {
			return nil, false
		}
		frames = append(frames, payload)
		off += n
	}
	switch last := len(frames) - 1; {
	case last == 0 && len(frames[0]) > 0 && !bytes.Equal(frames[0], snapshotMagic):
		return frames, true // legacy
	case last >= 1 && bytes.Equal(frames[0], snapshotMagic) && len(frames[last]) == 0:
		return frames[1:last:last], true
	}
	return nil, false
}

// appendFrame appends payload, framed, to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
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
	l.frame = appendFrame(l.frame[:0], payload)
	if _, err := l.f.Write(l.frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.records++
	l.stats.Appends++
	l.stats.BytesAppended += int64(len(l.frame))
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

// WriteSnapshot atomically replaces the snapshot with the payloads
// fill passes to emit, one frame each in the order emitted, and resets
// the log. The new snapshot is staged, fsynced and renamed before the
// log is truncated, so every acknowledged record is always recoverable
// from either the old log or the new snapshot.
//
// emit copies its payload into a buffered writer before it returns, so
// fill may reuse one buffer for every payload. A payload must be
// non-empty and at most MaxRecord bytes; emit rejects any other. An
// error from emit or fill abandons the snapshot and leaves the log as
// it was. The log's lock is held throughout, so fill must not call
// back into the log.
func (l *Log) WriteSnapshot(fill func(emit func(payload []byte) error) error) error {
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
	err = writeSnapshot(f, fill)
	if err == nil {
		start := time.Now()
		err = f.Sync()
		l.observeSyncLocked(time.Since(start))
		if err != nil {
			err = fmt.Errorf("wal: sync snapshot: %w", err)
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close snapshot: %w", cerr)
	}
	if err != nil {
		os.Remove(tmp)
		return err
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

// writeSnapshot streams a framed snapshot into f: the marker frame,
// fill's payloads and the end frame.
func writeSnapshot(f *os.File, fill func(emit func(payload []byte) error) error) error {
	w := bufio.NewWriterSize(f, snapshotBuffer)
	var hdr [headerSize]byte
	frame := func(payload []byte) error {
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := w.Write(hdr[:]); err != nil {
			return fmt.Errorf("wal: write snapshot: %w", err)
		}
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wal: write snapshot: %w", err)
		}
		return nil
	}
	if err := frame(snapshotMagic); err != nil {
		return err
	}
	err := fill(func(payload []byte) error {
		switch {
		case len(payload) == 0:
			return errors.New("wal: empty snapshot frame")
		case len(payload) > MaxRecord:
			return ErrRecordTooLarge
		}
		return frame(payload)
	})
	if err != nil {
		return err
	}
	if err := frame(nil); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
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
