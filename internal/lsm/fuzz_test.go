package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
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

// manifestBody returns encodeManifest's body, without the slot frame.
func manifestBody(seq, nextID uint64, tail int64, tables []tableMeta) []byte {
	return encodeManifest(seq, nextID, tail, tables)[manifestHeaderSize:]
}

// hostileManifests are manifest bodies that claim more than they hold:
// a table count of 2^64-1 or 2^32 over five bytes, and a table whose level
// is 2^63, which int() turns negative.
func hostileManifests() map[string][]byte {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	return map[string][]byte{
		"count 2^64-1":  uv(1, 2, 3, math.MaxUint64, 0, 0, 0, 0, 0),
		"count 2^32":    uv(1, 2, 3, 1<<32, 0, 0, 0, 0, 0),
		"level 2^63":    uv(1, 2, 3, 1, 7, 1<<63, 0, 64, 1),
		"level max":     uv(1, 2, 3, 1, 7, maxLevels, 0, 64, 1),
		"trailing byte": append(manifestBody(1, 2, 3, nil), 0),
	}
}

// TestDecodeManifestRefusesHostileInput holds decodeManifest to ErrCorrupt
// on bodies that would size a slice from an unchecked count or index the
// tree's levels with an out-of-range level.
func TestDecodeManifestRefusesHostileInput(t *testing.T) {
	for name, body := range hostileManifests() {
		t.Run(name, func(t *testing.T) {
			if _, _, _, _, err := decodeManifest(body); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeManifest = %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzDecodeManifest holds the manifest decoder to its contract on
// arbitrary slot bytes that passed the frame checksum: it fails with
// ErrCorrupt, or returns a commit point that re-encodes to exactly the
// body it read.
func FuzzDecodeManifest(f *testing.F) {
	tables := []tableMeta{
		{id: 4, level: 0, dataOff: tablesBase, dataLen: 900, entries: 30},
		{id: 3, level: 1, dataOff: tablesBase + 900, dataLen: 1 << 20, entries: 5000},
		{id: 9, level: maxLevels - 1, dataOff: 1 << 40, dataLen: 64, entries: 1},
	}
	valid := manifestBody(17, 10, tablesBase+1<<20+900, tables)
	f.Add(valid)
	f.Add(manifestBody(0, 0, 0, nil))
	for i := range valid {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0xff
		f.Add(flipped)
		f.Add(valid[:i]) // torn
	}
	for _, body := range hostileManifests() {
		f.Add(body)
	}
	f.Add([]byte{0x80, 0x00, 0, 0, 0}) // seq 0 in two bytes

	f.Fuzz(func(t *testing.T, body []byte) {
		seq, nextID, tail, tables, err := decodeManifest(body)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeManifest failed with %v, want ErrCorrupt", err)
			}
			return
		}
		if got := manifestBody(seq, nextID, tail, tables); !bytes.Equal(got, body) {
			t.Fatalf("manifest re-encodes as %x, read %x", got, body)
		}
	})
}
