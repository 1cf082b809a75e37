package lsm

import (
	"bytes"
	"sort"

	"costperf/internal/obs"
	"costperf/internal/sim"
)

// cursor is one sorted, key-unique source of a merge. Its keys are resident
// (the memtable, or a table's index), so positioning, comparing and stepping
// past a shadowed key cost no I/O; only entry may read the device.
type cursor interface {
	// key returns the key under the cursor, or false once it is exhausted.
	key() ([]byte, bool)
	// entry returns the record under the cursor.
	entry() (kv, error)
	// next steps to the following key.
	next()
}

// memCursor walks the memtable's bottom list.
type memCursor struct{ e *memEntry }

func (c *memCursor) key() ([]byte, bool) {
	if c.e == nil {
		return nil, false
	}
	return c.e.key, true
}

func (c *memCursor) entry() (kv, error) {
	return kv{key: c.e.key, val: c.e.val, tombstone: c.e.tombstone}, nil
}

func (c *memCursor) next() { c.e = c.e.next[0] }

// tableCursor walks a run of key-disjoint tables in key order: one L0
// table, or the tables of a deeper level, where the next table is entered
// only when the current one is exhausted. Records are fetched from the
// device when the merge first asks for one, `ahead` records per read, and
// decoded one at a time out of the fetched buffer.
type tableCursor struct {
	t  *Tree
	ch *sim.Charger // pays for the reads and carries the op's context
	sp *obs.Span    // marked as a miss on every fetch; may be nil

	tables []*sstable // tables[0] is the current one
	i      int        // record under the cursor in tables[0]
	ahead  int        // records per fetch; <= 0 reads to the end of the table
	buf    []byte     // records [lo, hi) of tables[0]
	lo, hi int
}

// newTableCursor returns a cursor over tables, a run sorted by key range,
// positioned on its first key >= start.
func (t *Tree) newTableCursor(tables []*sstable, start []byte, ahead int, ch *sim.Charger, sp *obs.Span) *tableCursor {
	first := sort.Search(len(tables), func(i int) bool {
		return bytes.Compare(tables[i].max, start) >= 0
	})
	c := &tableCursor{t: t, ch: ch, sp: sp, tables: tables[first:], ahead: ahead}
	if len(c.tables) > 0 {
		c.i = c.tables[0].search(start)
	}
	return c
}

func (c *tableCursor) key() ([]byte, bool) {
	if len(c.tables) == 0 {
		return nil, false
	}
	return c.tables[0].key(c.i), true
}

func (c *tableCursor) next() {
	c.i++
	if c.i == c.tables[0].entries() {
		c.tables, c.i = c.tables[1:], 0
		c.buf, c.lo, c.hi = nil, 0, 0
	}
}

func (c *tableCursor) entry() (kv, error) {
	tbl := c.tables[0]
	if c.i >= c.hi {
		hi := tbl.entries()
		if c.ahead > 0 && c.ahead < hi-c.i { // a limit may be near MaxInt
			hi = c.i + c.ahead
		}
		if c.sp != nil {
			c.sp.Miss()
		}
		buf, err := c.t.readRecords(tbl, c.i, hi, c.ch)
		if err != nil {
			return kv{}, err
		}
		c.buf, c.lo, c.hi = buf, c.i, hi
	}
	return c.t.decodeRecord(tbl, c.buf, c.lo, c.i)
}

// mergeIter is the tree's one merge: scans and compactions both pull it.
// Sources are ordered newest first. The smallest key wins, ties go to the
// newest source, and the key is stepped past in every source, so an older
// version is never fetched or decoded.
type mergeIter struct {
	srcs      []cursor
	heads     [][]byte // heads[i] is srcs[i]'s current key
	dropTombs bool     // suppress tombstones: scans, and compaction into the bottom level
	ch        *sim.Charger
}

// add appends the next-older source; an exhausted one is left out.
func (m *mergeIter) add(c cursor) {
	if k, ok := c.key(); ok {
		m.srcs = append(m.srcs, c)
		m.heads = append(m.heads, k)
	}
}

// next returns the next entry in key order, or false when every source is
// exhausted. The entry aliases its source's memory, which is never reused.
func (m *mergeIter) next() (kv, bool, error) {
	for len(m.srcs) > 0 {
		best := 0
		for i := 1; i < len(m.heads); i++ {
			if bytes.Compare(m.heads[i], m.heads[best]) < 0 {
				best = i
			}
		}
		m.ch.Compare(len(m.heads))
		e, err := m.srcs[best].entry()
		if err != nil {
			return kv{}, false, err
		}
		// Sources before best hold strictly larger keys; those after it may
		// hold an older version of the same key.
		winner := m.heads[best]
		for i := len(m.srcs) - 1; i >= best; i-- {
			if i != best && !bytes.Equal(m.heads[i], winner) {
				continue
			}
			m.srcs[i].next()
			if k, ok := m.srcs[i].key(); ok {
				m.heads[i] = k
			} else {
				m.srcs = append(m.srcs[:i], m.srcs[i+1:]...)
				m.heads = append(m.heads[:i], m.heads[i+1:]...)
			}
		}
		if e.tombstone && m.dropTombs {
			continue
		}
		return e, true, nil
	}
	return kv{}, false, nil
}
