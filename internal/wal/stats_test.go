package wal

import "testing"

func TestStatsCounting(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var observed int
	l.SetSyncObserver(func(seconds float64) {
		if seconds < 0 {
			t.Errorf("negative sync duration %v", seconds)
		}
		observed++
	})

	payload := []byte("hello wal")
	for i := 0; i < 3; i++ {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(frames("snapshot-state")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	s := l.Stats()
	if s.Appends != 3 {
		t.Errorf("Appends = %d, want 3", s.Appends)
	}
	if want := int64(3 * (headerSize + len(payload))); s.BytesAppended != want {
		t.Errorf("BytesAppended = %d, want %d", s.BytesAppended, want)
	}
	// Two Sync calls plus the snapshot's own fsync.
	if s.Syncs != 3 || observed != 3 {
		t.Errorf("Syncs = %d, observer calls = %d, want 3 each", s.Syncs, observed)
	}
	if s.SyncNanos < 0 {
		t.Errorf("SyncNanos = %d", s.SyncNanos)
	}
}
