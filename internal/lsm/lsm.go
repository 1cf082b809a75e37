package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
)

var (
	// ErrCorrupt is returned when on-device table or manifest data fails
	// checksum or structural verification. It wraps fault.ErrCorrupt so
	// Classify recognizes it across the stack.
	ErrCorrupt = fmt.Errorf("lsm: corrupt record (%w)", fault.ErrCorrupt)
	// ErrDegraded is returned by write paths after a persistent device
	// write failure latched the tree read-only.
	ErrDegraded = errors.New("lsm: tree degraded (read-only)")
)

// Config configures a Tree.
type Config struct {
	// Device is the backing flash device — a plain *ssd.Device or an
	// *ssd.Mirror for checksum-verified, self-healing storage.
	Device ssd.Dev
	// MemtableBytes triggers a flush to level 0 (default 256 KiB).
	MemtableBytes int
	// L0Tables triggers an L0 -> L1 compaction (default 4).
	L0Tables int
	// LevelBytesBase is the size budget of level 1; each deeper level gets
	// 10x more (default 1 MiB).
	LevelBytesBase int64
	// MaxLevels bounds the tree depth (default 7).
	MaxLevels int
	// Session enables execution-cost accounting (may be nil).
	Session *sim.Session
	// Retry bounds the backoff loop around device I/O; the zero value
	// takes fault.DefaultRetry.
	Retry fault.RetryPolicy
	// Obs, when non-nil, receives one tracing span per operation; table
	// reads and synchronous flushes mark the span as having touched the
	// device. Nil traces nothing at zero cost.
	Obs *obs.Tracer
}

func (c *Config) setDefaults() error {
	if c.Device == nil {
		return errors.New("lsm: nil device")
	}
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 256 << 10
	}
	if c.L0Tables == 0 {
		c.L0Tables = 4
	}
	if c.LevelBytesBase == 0 {
		c.LevelBytesBase = 1 << 20
	}
	if c.MaxLevels == 0 {
		c.MaxLevels = 7
	}
	return nil
}

// Stats counts tree events.
type Stats struct {
	Gets        metrics.Counter
	Puts        metrics.Counter
	Deletes     metrics.Counter
	Scans       metrics.Counter
	Flushes     metrics.Counter
	Compactions metrics.Counter
	BloomSkips  metrics.Counter
	TableReads  metrics.Counter
	// Retry meters fault absorption around device I/O.
	Retry metrics.RetryStats
	// Health latches the tree read-only after a persistent write failure.
	Health metrics.Health
}

// Tree is the LSM store. It is safe for concurrent use (writers serialize
// on an internal mutex; compaction runs inline on the triggering writer,
// as in a single-threaded RocksDB configuration).
type Tree struct {
	cfg         Config
	mu          sync.RWMutex
	mem         *memtable
	levels      [][]*sstable // levels[0] newest-first; deeper levels sorted by min key
	tail        int64        // next free device offset
	nextID      uint64
	manifestSeq uint64
	stats       Stats
}

// New creates an empty tree. Table data starts above the manifest slots so
// the tree is recoverable with Open after the first flush commits.
func New(cfg Config) (*Tree, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:    cfg,
		mem:    newMemtable(),
		levels: make([][]*sstable, cfg.MaxLevels),
		tail:   tablesBase,
	}
	t.attachDeviceHealth()
	return t, nil
}

// attachDeviceHealth latches the tree read-only when a self-healing device
// (ssd.Mirror) reports unrecoverable dual-leg corruption.
func (t *Tree) attachDeviceHealth() {
	if ha, ok := t.cfg.Device.(interface {
		AttachHealth(*metrics.Health)
	}); ok {
		ha.AttachHealth(&t.stats.Health)
	}
}

// Stats returns the tree's counters.
func (t *Tree) Stats() *Stats { return &t.stats }

func (t *Tree) begin() *sim.Charger {
	if t.cfg.Session == nil {
		return nil
	}
	return t.cfg.Session.Begin()
}

// beginCtx is begin with the operation's context bound to the charger, so
// cancellation propagates into table I/O and retry backoffs even when no
// Session is configured.
func (t *Tree) beginCtx(ctx context.Context) *sim.Charger {
	if t.cfg.Session == nil {
		return sim.DetachedCharger(ctx)
	}
	return t.cfg.Session.Begin().WithContext(ctx)
}

func settle(ch *sim.Charger) {
	if ch != nil {
		ch.Settle()
	}
}

// Put inserts or overwrites key -> val. Like all LSM updates it is blind:
// no secondary storage is read (paper Section 6.2).
func (t *Tree) Put(key, val []byte) error {
	return t.write(append([]byte(nil), key...), append([]byte(nil), val...), false, t.begin())
}

// PutCtx is Put bounded by ctx: a triggered memtable flush (and its retry
// backoff) aborts promptly when ctx is cancelled.
func (t *Tree) PutCtx(ctx context.Context, key, val []byte) error {
	return t.write(append([]byte(nil), key...), append([]byte(nil), val...), false, t.beginCtx(ctx))
}

// Delete removes key by writing a tombstone (also blind).
func (t *Tree) Delete(key []byte) error {
	return t.write(append([]byte(nil), key...), nil, true, t.begin())
}

// DeleteCtx is Delete bounded by ctx.
func (t *Tree) DeleteCtx(ctx context.Context, key []byte) error {
	return t.write(append([]byte(nil), key...), nil, true, t.beginCtx(ctx))
}

func (t *Tree) write(key, val []byte, tombstone bool, ch *sim.Charger) error {
	op := obs.OpPut
	if tombstone {
		op = obs.OpDelete
	}
	sp := t.cfg.Obs.Start(op)
	if t.stats.Health.Degraded() {
		sp.End(ErrDegraded)
		return ErrDegraded
	}
	if err := ch.Err(); err != nil {
		sp.End(err)
		return err // cancelled before the memtable was touched
	}
	t.mu.Lock()
	t.mem.put(key, val, tombstone, ch)
	if ch != nil {
		ch.Copy(len(key) + len(val))
	}
	var err error
	if t.mem.bytes >= t.cfg.MemtableBytes {
		sp.Miss() // this write pays for the synchronous flush I/O
		err = t.flushLocked(ch)
	}
	t.mu.Unlock()
	if tombstone {
		t.stats.Deletes.Inc()
	} else {
		t.stats.Puts.Inc()
	}
	settle(ch)
	sp.End(err)
	return err
}

// writeTableRetried writes a sorted run through the retry loop (a rewrite
// at the same offset is idempotent) and latches the tree degraded on a
// persistent write failure. The charger's context (if any) aborts the
// write and its backoff; an aborted write does not degrade the tree.
func (t *Tree) writeTableRetried(id uint64, level int, entries []kv, off int64, ch *sim.Charger) (*sstable, int64, error) {
	var tbl *sstable
	var next int64
	err := t.cfg.Retry.DoCtx(ch.Context(), &t.stats.Retry, func() error {
		var werr error
		tbl, next, werr = writeTable(t.cfg.Device, id, level, entries, off)
		return werr
	})
	if err != nil && fault.Classify(err) == fault.ClassPersistent {
		t.stats.Health.Degrade(fmt.Sprintf("table %d write: %v", id, err))
	}
	return tbl, next, err
}

// readRecords fetches records [i, j) of tbl with one device read, through
// the retry loop and under the op's charger: a cancelled context stops
// before the read is issued, and a transient fault is retried.
func (t *Tree) readRecords(tbl *sstable, i, j int, ch *sim.Charger) ([]byte, error) {
	off, n := tbl.dataOff+tbl.recStart(i), int(tbl.recStart(j)-tbl.recStart(i))
	var raw []byte
	err := t.cfg.Retry.DoCtx(ch.Context(), &t.stats.Retry, func() error {
		var rerr error
		raw, rerr = t.cfg.Device.ReadAt(off, n, ch)
		return rerr
	})
	return raw, err
}

// decodeRecord parses record i of tbl in place out of buf, which
// readRecords fetched from record lo on. The entry aliases buf: the device
// hands every read a fresh buffer and never reuses it, so callers may retain
// key and value. A record that fails its checksum, is not the length the
// index recorded, or carries another key than the index does, is corrupt.
func (t *Tree) decodeRecord(tbl *sstable, buf []byte, lo, i int) (kv, error) {
	base := tbl.recStart(lo)
	raw := buf[tbl.recStart(i)-base : tbl.recStart(i+1)-base]
	e, consumed, err := parseRecord(raw)
	switch {
	case err != nil:
	case consumed != len(raw):
		err = fmt.Errorf("%w: record length mismatch", ErrCorrupt)
	case !bytes.Equal(e.key, tbl.key(i)):
		err = fmt.Errorf("%w: record key differs from index", ErrCorrupt)
	}
	if err != nil {
		// The transfer succeeded but a record failed verification: count a
		// failed physical read, not a logical one.
		t.cfg.Device.Stats().ReclassifyRead()
		return kv{}, err
	}
	return e, nil
}

// flushLocked writes the memtable to a new L0 table (one large write),
// commits it with a manifest write, and triggers compaction as needed. The
// memtable is discarded only after its table is durably written, so a
// failed flush loses nothing.
func (t *Tree) flushLocked(ch *sim.Charger) error {
	if t.mem.count == 0 {
		return nil
	}
	if t.stats.Health.Degraded() {
		return ErrDegraded
	}
	entries := make([]kv, 0, t.mem.count)
	for e := t.mem.first(); e != nil; e = e.next[0] {
		entries = append(entries, kv{key: e.key, val: e.val, tombstone: e.tombstone})
	}
	tbl, next, err := t.writeTableRetried(t.nextID, 0, entries, t.tail, ch)
	if err != nil {
		return err
	}
	t.nextID++
	t.tail = next
	t.levels[0] = append([]*sstable{tbl}, t.levels[0]...) // newest first
	t.mem = newMemtable()
	t.stats.Flushes.Inc()
	// Durable commit point: the flushed data is recoverable once the
	// manifest referencing its table is on the device.
	if err := t.writeManifestLocked(); err != nil {
		return err
	}
	return t.maybeCompactLocked(ch)
}

// Flush forces the memtable out (exposed for tests and checkpoints).
func (t *Tree) Flush() error {
	ch := t.begin()
	t.mu.Lock()
	err := t.flushLocked(ch)
	t.mu.Unlock()
	if ch != nil {
		if err != nil {
			ch.Abandon()
		} else {
			ch.Settle()
		}
	}
	return err
}

// Get returns the value for key, searching memtable, then L0 newest-first,
// then one candidate table per deeper level.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	return t.get(key, t.begin())
}

// GetCtx is Get bounded by ctx: table reads and their retry backoffs abort
// promptly once ctx is cancelled or past deadline.
func (t *Tree) GetCtx(ctx context.Context, key []byte) ([]byte, bool, error) {
	return t.get(key, t.beginCtx(ctx))
}

func (t *Tree) get(key []byte, ch *sim.Charger) (_ []byte, _ bool, err error) {
	sp := t.cfg.Obs.Start(obs.OpGet)
	if err := ch.Err(); err != nil {
		sp.End(err)
		return nil, false, err
	}
	t.mu.RLock()
	defer func() {
		t.mu.RUnlock()
		t.stats.Gets.Inc()
		settle(ch)
		sp.End(err)
	}()
	if v, tomb, found := t.mem.get(key, ch); found {
		return v, !tomb, nil
	}
	h1, h2 := bloomHashes(key)
	for _, tbl := range t.levels[0] {
		e, found, err := t.tableGet(tbl, key, h1, h2, ch, &sp)
		if err != nil {
			return nil, false, err
		}
		if found {
			return e.val, !e.tombstone, nil
		}
	}
	for lvl := 1; lvl < len(t.levels); lvl++ {
		tables := t.levels[lvl]
		i := sort.Search(len(tables), func(i int) bool {
			return bytes.Compare(key, tables[i].max) <= 0
		})
		if i >= len(tables) || bytes.Compare(key, tables[i].min) < 0 {
			continue
		}
		e, found, err := t.tableGet(tables[i], key, h1, h2, ch, &sp)
		if err != nil {
			return nil, false, err
		}
		if found {
			return e.val, !e.tombstone, nil
		}
	}
	return nil, false, nil
}

// tableGet looks key up in one table: bloom probe with the lookup's hash
// pair, binary search of the resident index, then one device read for the
// record.
func (t *Tree) tableGet(tbl *sstable, key []byte, h1, h2 uint64, ch *sim.Charger, sp *obs.Span) (kv, bool, error) {
	if ch != nil {
		ch.Hash()
	}
	if !tbl.filter.mayContain(h1, h2) {
		t.stats.BloomSkips.Inc()
		return kv{}, false, nil
	}
	t.stats.TableReads.Inc()
	sp.Miss() // bloom filter passed: this lookup reads the table on device
	i := tbl.search(key)
	if ch != nil {
		ch.Compare(ilog2(tbl.entries()))
	}
	if i >= tbl.entries() || !bytes.Equal(tbl.key(i), key) {
		return kv{}, false, nil
	}
	raw, err := t.readRecords(tbl, i, i+1, ch)
	if err != nil {
		return kv{}, false, err
	}
	e, err := t.decodeRecord(tbl, raw, i, i)
	return e, err == nil, err
}

// levelBytes sums a level's data bytes.
func levelBytes(tables []*sstable) int64 {
	var n int64
	for _, t := range tables {
		n += t.dataLen
	}
	return n
}

// maybeCompactLocked runs leveled compaction until every level is within
// budget.
func (t *Tree) maybeCompactLocked(ch *sim.Charger) error {
	for {
		if len(t.levels[0]) > t.cfg.L0Tables {
			if err := t.compactLocked(0, ch); err != nil {
				return err
			}
			continue
		}
		done := true
		budget := t.cfg.LevelBytesBase
		for lvl := 1; lvl < len(t.levels)-1; lvl++ {
			if levelBytes(t.levels[lvl]) > budget {
				if err := t.compactLocked(lvl, ch); err != nil {
					return err
				}
				done = false
				break
			}
			budget *= 10
		}
		if done {
			return nil
		}
	}
}

// compactLocked merges level lvl into lvl+1: all tables of L0 (they
// overlap), or the largest table of deeper levels, plus every overlapping
// table below. The compaction is staged: the live table set is not touched
// until every replacement table is durably written, so a failed (or
// crashed) compaction leaves the tree — in memory and on device — exactly
// as it was.
func (t *Tree) compactLocked(lvl int, ch *sim.Charger) error {
	// Select inputs without mutating the live table set.
	var ups []*sstable
	upIdx := -1
	if lvl == 0 {
		ups = append(ups, t.levels[0]...)
	} else {
		// Pick the largest table to push down.
		for i, tb := range t.levels[lvl] {
			if upIdx < 0 || tb.dataLen > t.levels[lvl][upIdx].dataLen {
				upIdx = i
			}
		}
		ups = []*sstable{t.levels[lvl][upIdx]}
	}
	lo, hi := ups[0].min, ups[0].max
	for _, tb := range ups {
		if bytes.Compare(tb.min, lo) < 0 {
			lo = tb.min
		}
		if bytes.Compare(tb.max, hi) > 0 {
			hi = tb.max
		}
	}
	next := lvl + 1
	var downs, keep []*sstable
	for _, tb := range t.levels[next] {
		if tb.overlaps(lo, hi) {
			downs = append(downs, tb)
		} else {
			keep = append(keep, tb)
		}
	}

	// Merge newest first: ups are newer than downs; within L0 ups are
	// already newest-first; a deeper "up" level has a single table. Each
	// table is read whole, in one large I/O, when its first record is due.
	// The reads are charged to no operation; ch pays for the comparisons.
	it := mergeIter{dropTombs: next == len(t.levels)-1, ch: ch}
	for i := range ups {
		it.add(t.newTableCursor(ups[i:i+1], nil, 0, nil, nil))
	}
	it.add(t.newTableCursor(downs, nil, 0, nil, nil))

	// Write merged runs as tables capped near the memtable size, as they
	// fill. Allocation state advances in locals and commits only if every
	// write succeeds.
	var newTables []*sstable
	newTail, nextID := t.tail, t.nextID
	var run []kv
	var runBytes int
	writeRun := func() error {
		tbl, nt, err := t.writeTableRetried(nextID, next, run, newTail, ch)
		if err != nil {
			return err
		}
		nextID++
		newTail = nt
		newTables = append(newTables, tbl)
		run, runBytes = run[:0], 0
		return nil
	}
	for {
		e, ok, err := it.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		run = append(run, e)
		if runBytes += len(e.key) + len(e.val) + 8; runBytes >= t.cfg.MemtableBytes {
			if err := writeRun(); err != nil {
				return err
			}
		}
	}
	if len(run) > 0 {
		if err := writeRun(); err != nil {
			return err
		}
	}

	// All replacement tables are durable: commit the new table set.
	t.tail, t.nextID = newTail, nextID
	if lvl == 0 {
		t.levels[0] = nil
	} else {
		t.levels[lvl] = append(t.levels[lvl][:upIdx], t.levels[lvl][upIdx+1:]...)
	}
	keep = append(keep, newTables...)
	sort.Slice(keep, func(i, j int) bool { return bytes.Compare(keep[i].min, keep[j].min) < 0 })
	t.levels[next] = keep
	t.stats.Compactions.Inc()

	// Durable commit point before reclaiming inputs: once the manifest no
	// longer references the old tables, trimming them cannot orphan data.
	if err := t.writeManifestLocked(); err != nil {
		return err
	}
	for _, tb := range append(ups, downs...) {
		if err := t.cfg.Device.Trim(tb.dataOff, tb.dataLen); err != nil {
			// Post-commit cleanup failure leaks space, not data.
			return fmt.Errorf("lsm: trim table %d: %w", tb.id, err)
		}
		t.cfg.Device.Stats().GCReclaimed.Add(tb.dataLen)
	}
	return nil
}

// Scan visits live keys >= start in order, merging the memtable with all
// tables, until fn returns false or limit pairs are visited (limit <= 0
// means unlimited). It holds a shared lock for a consistent snapshot.
func (t *Tree) Scan(start []byte, limit int, fn func(k, v []byte) bool) error {
	return t.scan(start, limit, fn, t.begin())
}

// ScanCtx is Scan bounded by ctx: the context aborts table reads between
// levels, so a cancelled scan stops issuing large sequential I/Os.
func (t *Tree) ScanCtx(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	return t.scan(start, limit, fn, t.beginCtx(ctx))
}

func (t *Tree) scan(start []byte, limit int, fn func(k, v []byte) bool, ch *sim.Charger) (err error) {
	sp := t.cfg.Obs.Start(obs.OpScan)
	if err := ch.Err(); err != nil {
		sp.End(err)
		return err
	}
	t.mu.RLock()
	defer func() {
		t.mu.RUnlock()
		t.stats.Scans.Inc()
		settle(ch)
		sp.End(err)
	}()

	// Sources newest first: memtable, each L0 table, one cursor per deeper
	// level. A bounded scan reads ahead limit records per fetch, because no
	// source can contribute more rows than that; an unlimited one reads each
	// table whole when its turn comes.
	it := mergeIter{dropTombs: true, ch: ch}
	it.add(&memCursor{e: t.mem.seek(start)})
	for i := range t.levels[0] {
		it.add(t.newTableCursor(t.levels[0][i:i+1], start, limit, ch, &sp))
	}
	for _, tables := range t.levels[1:] {
		if len(tables) > 0 {
			it.add(t.newTableCursor(tables, start, limit, ch, &sp))
		}
	}
	for visited := 0; limit <= 0 || visited < limit; visited++ {
		e, ok, err := it.next()
		if err != nil || !ok {
			return err
		}
		if !fn(e.key, e.val) {
			return nil
		}
	}
	return nil
}

// TableCount returns the number of SSTables per level (for tests and
// experiment output).
func (t *Tree) TableCount() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int, len(t.levels))
	for i, lvl := range t.levels {
		out[i] = len(lvl)
	}
	return out
}

// MemtableBytes reports the current memtable size.
func (t *Tree) MemtableBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mem.bytes
}

// DiskBytes returns the total data bytes of all live SSTables — the
// numerator of space amplification (live on-device bytes vs live data).
func (t *Tree) DiskBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for _, lvl := range t.levels {
		n += levelBytes(lvl)
	}
	return n
}
