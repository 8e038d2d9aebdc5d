package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen hardens recovery against arbitrary log bytes: Open must not
// panic or fail, the intact prefix plus the dropped tail must account
// for every byte, and a reopen must recover the same records and
// truncate nothing more.
func FuzzOpen(f *testing.F) {
	two := append(encodeRecord([]byte("rec-1")), encodeRecord([]byte(`{"op":"submit","id":"j-000001"}`))...)
	f.Add([]byte{})
	f.Add(encodeRecord([]byte("a")))
	f.Add(two)
	f.Add(two[:len(two)-3])                     // torn payload
	f.Add(append(two, 0x05, 0x00, 0x00))        // torn header
	f.Add(append(bytes.Clone(two), two[8:]...)) // garbage after intact records
	huge := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(huge, MaxRecord+1)
	f.Add(huge)
	flipped := encodeRecord([]byte("checksummed"))
	flipped[5] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		intact := int64(0)
		for _, r := range rec.Records {
			intact += int64(headerSize + len(r))
		}
		if intact+rec.TruncatedBytes != int64(len(data)) {
			t.Fatalf("%d intact + %d truncated bytes != %d written", intact, rec.TruncatedBytes, len(data))
		}
		l2, rec2 := reopen(t, l)
		defer l2.Close()
		if rec2.TruncatedBytes != 0 {
			t.Fatalf("reopen truncated %d more bytes", rec2.TruncatedBytes)
		}
		if len(rec2.Records) != len(rec.Records) {
			t.Fatalf("reopen recovered %d records, first open %d", len(rec2.Records), len(rec.Records))
		}
		for i := range rec.Records {
			if !bytes.Equal(rec.Records[i], rec2.Records[i]) {
				t.Fatalf("record %d changed across reopen: %q vs %q", i, rec.Records[i], rec2.Records[i])
			}
		}
	})
}

// FuzzOpenSnapshot hardens snapshot recovery against arbitrary snapshot
// bytes: Open must not panic or fail, and the snapshot is either
// flagged corrupt and dropped or accepted whole — its payloads then
// re-encode to exactly the bytes on disk, legacy one-frame form or
// framed form, so no byte of an accepted snapshot goes unchecked.
func FuzzOpenSnapshot(f *testing.F) {
	framed := append(encodeRecord(snapshotMagic), encodeRecord([]byte(`{"next_id":2}`))...)
	framed = append(framed, encodeRecord([]byte(`{"op":"submit","id":"j-000002"}`))...)
	framed = append(framed, encodeRecord(nil)...)
	f.Add(framed)
	f.Add(framed[:len(framed)-3])                                    // torn end frame
	f.Add(framed[:len(framed)-headerSize])                           // cut at a frame boundary
	f.Add(append(encodeRecord(snapshotMagic), encodeRecord(nil)...)) // no payloads
	f.Add(encodeRecord([]byte(`{"next_id":7,"jobs":[]}`)))           // legacy
	f.Add(encodeRecord(snapshotMagic))
	f.Add(encodeRecord(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer l.Close()
		if rec.SnapshotCorrupt {
			if rec.Snapshot != nil {
				t.Fatalf("corrupt snapshot returned %d frames", len(rec.Snapshot))
			}
			return
		}
		if rec.Snapshot == nil {
			t.Fatal("snapshot file neither accepted nor flagged corrupt")
		}
		var want []byte
		if len(rec.Snapshot) == 1 && bytes.Equal(encodeRecord(rec.Snapshot[0]), data) {
			want = data // legacy
		} else {
			want = encodeRecord(snapshotMagic)
			for _, p := range rec.Snapshot {
				want = appendFrame(want, p)
			}
			want = appendFrame(want, nil)
		}
		if !bytes.Equal(want, data) {
			t.Fatalf("accepted snapshot re-encodes to %d bytes, file holds %d", len(want), len(data))
		}
	})
}
