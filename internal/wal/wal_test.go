package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes l and opens the directory again.
func reopen(t *testing.T, l *Log) (*Log, Recovery) {
	t.Helper()
	dir := l.dir
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	nl, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return nl, rec
}

// frames returns a WriteSnapshot fill that emits each payload in turn.
func frames(payloads ...string) func(emit func([]byte) error) error {
	return func(emit func([]byte) error) error {
		for _, p := range payloads {
			if err := emit([]byte(p)); err != nil {
				return err
			}
		}
		return nil
	}
}

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatalf("append %q: %v", r, err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, rec, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
	}
	want := []string{"one", "two", `{"op":"submit","id":"j-000003"}`, ""}
	appendAll(t, l, want...)

	l, rec = reopen(t, l)
	defer l.Close()
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i, w := range want {
		if string(rec.Records[i]) != w {
			t.Errorf("record %d = %q, want %q", i, rec.Records[i], w)
		}
	}
	if rec.TruncatedBytes != 0 {
		t.Errorf("clean log reported %d truncated bytes", rec.TruncatedBytes)
	}
	if got := l.Records(); got != len(want) {
		t.Errorf("Records() = %d, want %d", got, len(want))
	}
}

// TestTornTailDroppedOnly simulates a kill mid-append: the file ends
// with a partial frame. Recovery must drop exactly the torn record,
// keep every complete one, and repair the file so appends resume at an
// intact boundary.
func TestTornTailDroppedOnly(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "alpha", "beta", "gamma")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop bytes out of the last frame (payload "gamma"
	// = 8-byte header + 5 payload bytes; removing 3 leaves a torn frame).
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rec.Records) != 2 || string(rec.Records[0]) != "alpha" || string(rec.Records[1]) != "beta" {
		t.Fatalf("recovered %q, want [alpha beta]", rec.Records)
	}
	if rec.TruncatedBytes != int64(headerSize+5-3) {
		t.Errorf("truncated %d bytes, want %d", rec.TruncatedBytes, headerSize+5-3)
	}

	// The repaired log accepts appends and recovers them cleanly.
	appendAll(t, l, "delta")
	l, rec = reopen(t, l)
	defer l.Close()
	if len(rec.Records) != 3 || string(rec.Records[2]) != "delta" {
		t.Fatalf("post-repair recovery = %q, want [alpha beta delta]", rec.Records)
	}
	if rec.TruncatedBytes != 0 {
		t.Errorf("repaired log reported %d truncated bytes", rec.TruncatedBytes)
	}
}

// TestFlippedChecksumByte corrupts one payload byte of the final record
// in place (same length, wrong checksum): replay must drop only that
// record.
func TestFlippedChecksumByte(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "alpha", "beta", "gamma")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a byte inside "gamma"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rec.Records) != 2 || string(rec.Records[0]) != "alpha" || string(rec.Records[1]) != "beta" {
		t.Fatalf("recovered %q, want [alpha beta]", rec.Records)
	}
	if rec.TruncatedBytes == 0 {
		t.Error("corrupt record not reported as truncated")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64((headerSize+5)+(headerSize+4)) {
		t.Errorf("log not truncated back to intact boundary: size %d", fi.Size())
	}
}

// TestEmptyAndHeaderOnlyFiles: an empty log (created but never written,
// or truncated to zero by a crash during snapshot compaction) and a log
// holding only a partial header both recover to zero records.
func TestEmptyAndHeaderOnlyFiles(t *testing.T) {
	for name, content := range map[string][]byte{
		"empty":          {},
		"partial-header": {0x01, 0x00, 0x00},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, logName), content, 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if len(rec.Records) != 0 {
				t.Fatalf("recovered %d records from %s file", len(rec.Records), name)
			}
			if want := int64(len(content)); rec.TruncatedBytes != want {
				t.Errorf("truncated %d bytes, want %d", rec.TruncatedBytes, want)
			}
			appendAll(t, l, "first")
			l, rec = reopen(t, l)
			defer l.Close()
			if len(rec.Records) != 1 || string(rec.Records[0]) != "first" {
				t.Fatalf("post-recovery append lost: %q", rec.Records)
			}
		})
	}
}

func TestSnapshotCompactsAndSurvives(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b")
	state := []string{`{"next_id":7}`, "job-1", "job-2"}
	if err := l.WriteSnapshot(frames(state...)); err != nil {
		t.Fatal(err)
	}
	if got := l.Records(); got != 0 {
		t.Errorf("Records() after snapshot = %d, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapTempName)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("staged snapshot left behind: %v", err)
	}
	appendAll(t, l, "c")

	l, rec := reopen(t, l)
	defer l.Close()
	if len(rec.Snapshot) != len(state) {
		t.Fatalf("snapshot = %q, want %q", rec.Snapshot, state)
	}
	for i, want := range state {
		if string(rec.Snapshot[i]) != want {
			t.Errorf("snapshot frame %d = %q, want %q", i, rec.Snapshot[i], want)
		}
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "c" {
		t.Fatalf("post-snapshot records = %q, want [c]", rec.Records)
	}
}

// TestCorruptSnapshotIgnored: a snapshot that is not intact in every
// frame — a flipped byte in its last or a middle frame, a torn last
// frame, trailing garbage, a missing end frame, or a cut at any byte
// offset, frame boundaries included — is reported and skipped; the log
// still replays.
func TestCorruptSnapshotIgnored(t *testing.T) {
	good := framedSnapshot(t, `{"next_id":3}`, "job-1", "job-2")
	damaged := map[string][]byte{}
	last := bytes.Clone(good)
	last[len(last)-1] ^= 0xFF
	damaged["flipped last byte"] = last
	mid := bytes.Clone(good)
	mid[bytes.Index(mid, []byte("job-1"))+2] ^= 0x01
	damaged["flipped middle frame"] = mid
	damaged["torn last frame"] = good[:len(good)-3]
	damaged["trailing garbage"] = append(bytes.Clone(good), 0x01)
	damaged["marker only"] = encodeRecord(snapshotMagic)
	damaged["empty legacy frame"] = encodeRecord(nil)
	for cut := 0; cut < len(good); cut++ {
		damaged[fmt.Sprintf("cut at %d", cut)] = good[:cut]
	}
	for name, data := range damaged {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), encodeRecord([]byte("after")), 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l.Close()
		if !rec.SnapshotCorrupt || rec.Snapshot != nil {
			t.Errorf("%s: snapshot %q accepted (corrupt flag %v)", name, rec.Snapshot, rec.SnapshotCorrupt)
		}
		if len(rec.Records) != 1 || string(rec.Records[0]) != "after" {
			t.Errorf("%s: records = %q, want [after]", name, rec.Records)
		}
	}
}

func TestRecordTooLarge(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, MaxRecord+1)); err != ErrRecordTooLarge {
		t.Errorf("oversized append: %v, want ErrRecordTooLarge", err)
	}
}

// TestManyRecordsSurviveTearAtEveryBoundary exhaustively tears a small
// log at every byte offset and checks recovery keeps exactly the
// records whose frames fit before the tear.
func TestManyRecordsSurviveTearAtEveryBoundary(t *testing.T) {
	base := t.TempDir()
	l, _, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	var frames []int
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("record-%d", i)
		appendAll(t, l, p)
		frames = append(frames, headerSize+len(p))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(base, logName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		nl, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		nl.Close()
		wantComplete := 0
		off := 0
		for _, f := range frames {
			if off+f <= cut {
				wantComplete++
				off += f
			} else {
				break
			}
		}
		if len(rec.Records) != wantComplete {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Records), wantComplete)
		}
	}
}

// encodeRecord frames a payload for the log.
func encodeRecord(payload []byte) []byte {
	return appendFrame(make([]byte, 0, headerSize+len(payload)), payload)
}
