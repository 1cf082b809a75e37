package tc

import (
	"bytes"
	"errors"
	"testing"

	"costperf/internal/fault"
)

// FuzzDecodeCommit holds the commit-record codec to its contract on
// arbitrary checksummed bodies (the payload of a logstore.KindCommit
// frame): it fails with a fault.ErrCorrupt error, or returns a record that
// encodeCommit writes back byte for byte — never a panic or a second
// encoding of the same record.
func FuzzDecodeCommit(f *testing.F) {
	body := encodeCommit
	valid := body(commitRecord{commitTS: 300, entries: []redoEntry{
		{key: []byte("key-00042"), val: []byte("some value")},
		{key: []byte("gone"), isDelete: true},
	}})
	f.Add(valid)
	f.Add(body(commitRecord{commitTS: 1}))
	f.Add(body(commitRecord{entries: []redoEntry{{}}}))
	for i := range valid {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0xff
		f.Add(flipped)
		f.Add(valid[:i]) // torn
	}
	f.Add(append(bytes.Clone(valid), 0))                                               // trailing byte
	f.Add([]byte{1, 1, 2, 1, 'k', 0})                                                  // unknown entry flag
	f.Add([]byte{0x81, 0x00, 0})                                                       // commit ts in two bytes
	f.Add([]byte{1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // key length 2^64-1
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})       // 2^64-1 entries

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := decodeCommit(raw)
		if err != nil {
			if !errors.Is(err, fault.ErrCorrupt) {
				t.Fatalf("decodeCommit failed with %v, want fault.ErrCorrupt", err)
			}
			return
		}
		if got := body(rec); !bytes.Equal(got, raw) {
			t.Fatalf("record %+v re-encodes as %x, decoded from %x", rec, got, raw)
		}
	})
}
