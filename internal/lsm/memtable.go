// Package lsm implements a log-structured merge tree in the style of
// RocksDB/LevelDB — the open-source data caching system the paper pairs
// with Deuteronomy (Sections 1.3 and 6).
//
// Updates are "accepted" into an in-memory skiplist memtable without
// reading secondary storage (the LSM form of the paper's blind updates,
// Section 6.2). When the memtable fills it is written to level 0 as an
// immutable sorted-string table (SSTable) in one large device write
// (log-structuring: all writes are large writes, Section 6.1). Background
// compaction merges overlapping tables downward, keeping per-level key
// ranges disjoint from level 1 on and bounding read amplification with
// per-table bloom filters.
package lsm

import (
	"bytes"

	"costperf/internal/sim"
)

const maxSkipHeight = 12

// memEntry is a memtable record; a nil value with tombstone set records a
// deletion that must mask older versions in lower levels.
type memEntry struct {
	key       []byte
	val       []byte
	tombstone bool
	next      [maxSkipHeight]*memEntry
	height    int
}

// memtable is a single-writer skiplist (the Tree serializes writers; the
// skiplist keeps ordered iteration cheap, as in LevelDB).
type memtable struct {
	head  *memEntry
	bytes int
	count int
	rng   uint64
}

func newMemtable() *memtable {
	return &memtable{head: &memEntry{height: maxSkipHeight}, rng: 0x2545f4914f6cdd1d}
}

func (m *memtable) randomHeight() int {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	h := 1
	for v := m.rng; v&1 == 1 && h < maxSkipHeight; v >>= 1 {
		h++
	}
	return h
}

// put inserts or overwrites; tombstone records a delete.
func (m *memtable) put(key, val []byte, tombstone bool, ch *sim.Charger) {
	var prev [maxSkipHeight]*memEntry
	x := m.head
	for lvl := maxSkipHeight - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && bytes.Compare(x.next[lvl].key, key) < 0 {
			x = x.next[lvl]
			ch.Chase(1)
			ch.Compare(1)
		}
		prev[lvl] = x
	}
	if e := x.next[0]; e != nil && bytes.Equal(e.key, key) {
		m.bytes += len(val) - len(e.val)
		e.val = val
		e.tombstone = tombstone
		return
	}
	e := &memEntry{key: key, val: val, tombstone: tombstone, height: m.randomHeight()}
	for lvl := 0; lvl < e.height; lvl++ {
		e.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = e
	}
	m.bytes += len(key) + len(val) + 64
	m.count++
}

// get returns (value, tombstone, found).
func (m *memtable) get(key []byte, ch *sim.Charger) ([]byte, bool, bool) {
	x := m.head
	for lvl := maxSkipHeight - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && bytes.Compare(x.next[lvl].key, key) < 0 {
			x = x.next[lvl]
			ch.Chase(1)
			ch.Compare(1)
		}
	}
	if e := x.next[0]; e != nil && bytes.Equal(e.key, key) {
		ch.Compare(1)
		return e.val, e.tombstone, true
	}
	return nil, false, false
}

// seek returns the first entry with key >= target (nil if none).
func (m *memtable) seek(target []byte) *memEntry {
	x := m.head
	for lvl := maxSkipHeight - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && bytes.Compare(x.next[lvl].key, target) < 0 {
			x = x.next[lvl]
		}
	}
	return x.next[0]
}

// first returns the smallest entry.
func (m *memtable) first() *memEntry { return m.head.next[0] }
