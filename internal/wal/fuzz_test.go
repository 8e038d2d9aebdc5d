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
