package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzParseRecord holds the in-place record decoder to its contract on
// arbitrary device bytes: it fails with ErrCorrupt, or returns a record
// whose re-encoding is exactly the prefix it consumed — never a panic, an
// over-read, or a second encoding of the same record.
func FuzzParseRecord(f *testing.F) {
	valid := appendRecord(nil, kv{key: []byte("key-00042"), val: []byte("some value")})
	f.Add(valid)
	f.Add(appendRecord(nil, kv{key: []byte("gone"), tombstone: true}))
	f.Add(appendRecord(nil, kv{}))
	f.Add(appendRecord(bytes.Clone(valid), kv{key: []byte("next")})) // only the first is consumed
	for i := range valid {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0xff
		f.Add(flipped)
		f.Add(valid[:i]) // torn
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0x80, 0x80})                                                       // key length never ends
	f.Add([]byte{0, 0, 0, 0, 0, 1, 'k', 0x80, 0x80, 0x80})                                         // value length never ends
	f.Add([]byte{0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0}) // key length 2^64-1
	f.Add([]byte{0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x07, 'k', 0})                             // key length 2 GiB
	padded := []byte{0, 0, 0, 0, 0, 0x80, 0x00, 0}                                                 // zero key length in two bytes, under a valid checksum
	binary.BigEndian.PutUint32(padded, crc32.ChecksumIEEE(padded[recordCRCSize:]))
	f.Add(padded)
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0}) // unknown flag

	f.Fuzz(func(t *testing.T, raw []byte) {
		e, n, err := parseRecord(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parseRecord failed with %v, want ErrCorrupt", err)
			}
			return
		}
		if n > len(raw) {
			t.Fatalf("consumed %d of %d bytes", n, len(raw))
		}
		if got := appendRecord(nil, e); !bytes.Equal(got, raw[:n]) {
			t.Fatalf("record %+v re-encodes as %x, consumed %x", e, got, raw[:n])
		}
	})
}
