package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// framedSnapshot returns the bytes WriteSnapshot stores for payloads.
func framedSnapshot(t *testing.T, payloads ...string) []byte {
	t.Helper()
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteSnapshot(frames(payloads...)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(l.dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLegacySnapshotReads: a snapshot in the one-frame layout written
// before snapshots were framed reads back as a one-frame snapshot.
func TestLegacySnapshotReads(t *testing.T) {
	dir := t.TempDir()
	// {"next_id":7}: 13 bytes, CRC32-IEEE 0xfbeef068, both little-endian.
	legacy := append([]byte{0x0d, 0, 0, 0, 0x68, 0xf0, 0xee, 0xfb}, `{"next_id":7}`...)
	if err := os.WriteFile(filepath.Join(dir, snapName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.SnapshotCorrupt || len(rec.Snapshot) != 1 || string(rec.Snapshot[0]) != `{"next_id":7}` {
		t.Fatalf("legacy snapshot = %q (corrupt %v)", rec.Snapshot, rec.SnapshotCorrupt)
	}
}

// TestSnapshotBeyondMaxRecord: MaxRecord bounds each frame, not the
// snapshot, so a state larger than MaxRecord compacts when it is split
// into frames.
func TestSnapshotBeyondMaxRecord(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	half := strings.Repeat("x", MaxRecord/2+1)
	if err := l.WriteSnapshot(frames(half, half)); err != nil {
		t.Fatalf("snapshot of %d bytes in two frames: %v", 2*len(half), err)
	}
	l, rec := reopen(t, l)
	defer l.Close()
	if rec.SnapshotCorrupt || len(rec.Snapshot) != 2 || string(rec.Snapshot[0]) != half || string(rec.Snapshot[1]) != half {
		t.Fatalf("recovered %d frames (corrupt %v), want the two-frame snapshot", len(rec.Snapshot), rec.SnapshotCorrupt)
	}
}

// TestAbandonedSnapshotKeepsLog: a snapshot whose fill fails part way,
// or emits an empty frame or one beyond MaxRecord, is abandoned: no
// staged file remains, and the previous snapshot and every log record
// survive.
func TestAbandonedSnapshotKeepsLog(t *testing.T) {
	boom := errors.New("encode failed")
	for name, tc := range map[string]struct {
		fill func(emit func([]byte) error) error
		want error
	}{
		"fill error": {func(emit func([]byte) error) error {
			if err := emit([]byte("new")); err != nil {
				return err
			}
			return boom
		}, boom},
		"empty frame":     {frames("new", ""), nil},
		"oversized frame": {func(emit func([]byte) error) error { return emit(make([]byte, MaxRecord+1)) }, ErrRecordTooLarge},
	} {
		dir := t.TempDir()
		l, _, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshot(frames("old")); err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, "a", "b")
		err = l.WriteSnapshot(tc.fill)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: WriteSnapshot = %v, want %v", name, err, tc.want)
		}
		if _, err := os.Stat(filepath.Join(dir, snapTempName)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: abandoned snapshot left staged: %v", name, err)
		}
		if got := l.Records(); got != 2 {
			t.Errorf("%s: Records() = %d, want 2", name, got)
		}
		l, rec := reopen(t, l)
		l.Close()
		if len(rec.Snapshot) != 1 || string(rec.Snapshot[0]) != "old" {
			t.Errorf("%s: snapshot = %q, want [old]", name, rec.Snapshot)
		}
		if len(rec.Records) != 2 {
			t.Errorf("%s: records = %q, want [a b]", name, rec.Records)
		}
	}
}
