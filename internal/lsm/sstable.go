package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"costperf/internal/ssd"
)

// kv is one sorted-run entry.
type kv struct {
	key       []byte
	val       []byte
	tombstone bool
}

// bloom is a simple double-hashing Bloom filter (10 bits/key, 7 probes —
// RocksDB's default flavor).
type bloom struct {
	bits []uint64
	k    int
}

func newBloom(n int) *bloom {
	if n < 1 {
		n = 1
	}
	words := (n*10 + 63) / 64
	return &bloom{bits: make([]uint64, words), k: 7}
}

// bloomHashes is the probe pair of key: 64-bit FNV-1a and a decorrelated
// second hash. A lookup computes it once and probes every table with it.
func bloomHashes(key []byte) (uint64, uint64) {
	h1 := uint64(14695981039346656037)
	for _, c := range key {
		h1 ^= uint64(c)
		h1 *= 1099511628211
	}
	// Murmur-style finalizer decorrelates the second hash from the first.
	h2 := h1
	h2 ^= h2 >> 33
	h2 *= 0xff51afd7ed558ccd
	h2 ^= h2 >> 33
	h2 *= 0xc4ceb9fe1a85ec53
	h2 ^= h2 >> 33
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

func (b *bloom) add(h1, h2 uint64) {
	n := uint64(len(b.bits) * 64)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (b *bloom) mayContain(h1, h2 uint64) bool {
	n := uint64(len(b.bits) * 64)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// sstable is an immutable sorted run. The index and bloom filter stay in
// main memory (as RocksDB keeps them cached); record data lives on the
// device and is read with one I/O per lookup.
//
// The index is flat: every key back to back in one arena, plus two uint32
// offsets per record. That is 8 B + key per record, allocated at exact
// size, with no pointers for the collector to trace.
type sstable struct {
	id       uint64
	level    int
	keys     []byte   // key arena
	keyEnd   []uint32 // key i is keys[keyEnd[i-1]:keyEnd[i]]
	recEnd   []uint32 // record i spans [recEnd[i-1], recEnd[i]) from dataOff
	filter   *bloom
	min, max []byte // slices of keys
	dataOff  int64
	dataLen  int64
}

// newSSTable allocates a table's index for n records and keyBytes of keys.
func newSSTable(id uint64, level, n, keyBytes int, dataOff int64) *sstable {
	return &sstable{
		id: id, level: level,
		keys:    make([]byte, 0, keyBytes),
		keyEnd:  make([]uint32, 0, n),
		recEnd:  make([]uint32, 0, n),
		filter:  newBloom(n),
		dataOff: dataOff,
	}
}

// addRecord indexes the next record: its key and where its framing ends.
func (t *sstable) addRecord(key []byte, recEnd int) {
	t.keys = append(t.keys, key...)
	t.keyEnd = append(t.keyEnd, uint32(len(t.keys)))
	t.recEnd = append(t.recEnd, uint32(recEnd))
	t.filter.add(bloomHashes(key))
}

// seal fixes the key range and data length once every record is indexed.
func (t *sstable) seal() {
	t.min, t.max = t.key(0), t.key(t.entries()-1)
	t.dataLen = int64(t.recEnd[t.entries()-1])
}

func (t *sstable) entries() int { return len(t.keyEnd) }

func (t *sstable) key(i int) []byte {
	lo := uint32(0)
	if i > 0 {
		lo = t.keyEnd[i-1]
	}
	return t.keys[lo:t.keyEnd[i]:t.keyEnd[i]]
}

// recStart is record i's offset from dataOff; recStart(entries()) is the
// end of the data region.
func (t *sstable) recStart(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(t.recEnd[i-1])
}

// search returns the first record with key >= key.
func (t *sstable) search(key []byte) int {
	lo, hi := 0, t.entries()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// overlaps reports whether the table's key range intersects [lo, hi].
func (t *sstable) overlaps(lo, hi []byte) bool {
	return bytes.Compare(t.min, hi) <= 0 && bytes.Compare(lo, t.max) <= 0
}

// recordCRCSize prefixes every record with a CRC32 of its body, so torn or
// bit-flipped table data is detected instead of decoded as garbage.
const recordCRCSize = 4

// minRecordSize frames an empty key and value: crc, flags, two lengths.
const minRecordSize = recordCRCSize + 3

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func recordSize(e kv) int {
	return recordCRCSize + 1 + uvarintLen(uint64(len(e.key))) + len(e.key) +
		uvarintLen(uint64(len(e.val))) + len(e.val)
}

// appendRecord frames one KV for the device onto dst:
// crc(4) | flags(1) | klen | key | vlen | val.
func appendRecord(dst []byte, e kv) []byte {
	start := len(dst)
	flags := byte(0)
	if e.tombstone {
		flags = 1
	}
	dst = append(dst, 0, 0, 0, 0, flags)
	dst = binary.AppendUvarint(dst, uint64(len(e.key)))
	dst = append(dst, e.key...)
	dst = binary.AppendUvarint(dst, uint64(len(e.val)))
	dst = append(dst, e.val...)
	binary.BigEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(dst[start+recordCRCSize:]))
	return dst
}

// parseRecord decodes one record from the front of raw in place — key and
// val alias raw — returning the entry and the framed bytes consumed. Only
// what appendRecord can produce is accepted: checksum, structure, flag or
// length-encoding failures wrap ErrCorrupt, and the caller (recovery,
// lookup, scan) must treat the data as damaged rather than truncate.
func parseRecord(raw []byte) (kv, int, error) {
	if len(raw) < minRecordSize {
		return kv{}, 0, fmt.Errorf("%w: truncated record", ErrCorrupt)
	}
	flags := raw[recordCRCSize]
	if flags > 1 {
		return kv{}, 0, fmt.Errorf("%w: unknown record flags %#x", ErrCorrupt, flags)
	}
	pos := recordCRCSize + 1
	var field [2][]byte
	for f := range field {
		n, w := binary.Uvarint(raw[pos:])
		// A length is corrupt when it does not parse, is not in its
		// shortest form, or runs past the data.
		if w <= 0 || (w > 1 && raw[pos+w-1] == 0) || n > uint64(len(raw)-pos-w) {
			return kv{}, 0, fmt.Errorf("%w: truncated record field", ErrCorrupt)
		}
		pos += w
		end := pos + int(n)
		field[f] = raw[pos:end:end]
		pos = end
	}
	if crc32.ChecksumIEEE(raw[recordCRCSize:pos]) != binary.BigEndian.Uint32(raw) {
		return kv{}, 0, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	return kv{key: field[0], val: field[1], tombstone: flags == 1}, pos, nil
}

// writeTable writes a sorted run to the device in a single large write
// starting at off, returning the table and the next free offset.
func writeTable(dev ssd.Dev, id uint64, level int, entries []kv, off int64) (*sstable, int64, error) {
	if len(entries) == 0 {
		return nil, off, fmt.Errorf("lsm: empty table")
	}
	var size, keyBytes int
	for _, e := range entries {
		size += recordSize(e)
		keyBytes += len(e.key)
	}
	if int64(size) > math.MaxUint32 {
		return nil, off, fmt.Errorf("lsm: table of %d bytes exceeds the index's 4 GiB offsets", size)
	}
	t := newSSTable(id, level, len(entries), keyBytes, off)
	data := make([]byte, 0, size)
	for _, e := range entries {
		data = appendRecord(data, e)
		t.addRecord(e.key, len(data))
	}
	t.seal()
	if err := dev.WriteAt(off, data, nil); err != nil {
		return nil, off, err
	}
	return t, off + t.dataLen, nil
}

func ilog2(n int) int {
	c := 1
	for v := 1; v < n; v <<= 1 {
		c++
	}
	return c
}
