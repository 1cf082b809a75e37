// Package btree implements a classic data-caching B-tree of the kind the
// paper's introduction describes: fixed-size pages live on secondary
// storage in a page-slot file, a latched buffer pool caches them in main
// memory with LRU replacement, and every dirty-page write-back writes a
// full fixed-size block.
//
// It serves two roles in the reproduction:
//
//   - the "traditional caching system" baseline whose ~ln 2 ≈ 69% page
//     utilization underlies the paper's average-page-size model
//     (Section 4.1), and
//   - the fixed-block-store contrast for the write-reduction experiment
//     (Section 6.1: variable-size log-structured pages write ~30% less).
//
// Concurrency: operations serialize on a tree-level lock (classic latch
// crabbing is not reproduced); the paper's analysis uses this engine only
// for storage-shape measurements, not concurrency experiments.
package btree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
)

// PageSize is the fixed on-device page size (paper: 4K pages).
const PageSize = 4096

const (
	pageLeaf     = 1
	pageInterior = 2
	nilPage      = 0
	metaPage     = 0 // slot 0 holds {root, nextID}
)

// Common errors.
var (
	ErrTooLarge = errors.New("btree: record too large for a page")
	ErrClosed   = errors.New("btree: closed")
)

type pageID uint32

// page is the in-memory (deserialized) image of a fixed-size page.
type page struct {
	id       pageID
	leaf     bool
	keys     [][]byte
	vals     [][]byte // leaf payloads
	children []pageID // interior children (len(keys)+1)
	next     pageID   // leaf sibling chain for scans
	dirty    bool
	lastUse  int64 // LRU tick
}

// contentBytes is the page's logical payload size (the utilization
// numerator).
func (p *page) contentBytes() int {
	n := 0
	for i := range p.keys {
		n += len(p.keys[i])
		if p.leaf {
			n += len(p.vals[i])
		} else {
			n += 4
		}
	}
	return n
}

// serializedBytes estimates the on-page encoding size.
func (p *page) serializedBytes() int {
	n := 16 // header
	for i := range p.keys {
		n += 4 + len(p.keys[i])
		if p.leaf {
			n += 4 + len(p.vals[i])
		} else {
			n += 4
		}
	}
	if !p.leaf {
		n += 4
	}
	return n
}

// Stats counts tree events.
type Stats struct {
	Splits     metrics.Counter
	PoolMisses metrics.Counter
	// Health latches degraded (read-only) when the backing device reports
	// unrecoverable corruption (an ssd.Mirror quarantining a page).
	Health metrics.Health
}

// Config configures a Tree.
type Config struct {
	// Device is the backing page-slot device — a plain *ssd.Device or an
	// *ssd.Mirror for checksum-verified, self-healing storage.
	Device ssd.Dev
	// PoolPages is the buffer-pool capacity in pages (default 1024).
	PoolPages int
	// Session enables execution-cost accounting (may be nil).
	Session *sim.Session
	// Obs, when non-nil, receives one tracing span per operation, a miss
	// when the operation reached the device: a pool-miss read or an
	// eviction write-back on its charger. Nil traces nothing at zero cost.
	Obs *obs.Tracer
}

// Tree is a classic buffer-pool B-tree.
type Tree struct {
	cfg    Config
	mu     sync.Mutex
	pool   map[pageID]*page
	root   pageID
	nextID pageID
	tick   int64
	closed bool
	stats  Stats
}

// New creates an empty tree on the device.
func New(cfg Config) (*Tree, error) {
	if cfg.Device == nil {
		return nil, errors.New("btree: nil device")
	}
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 1024
	}
	if cfg.PoolPages < 3 {
		return nil, fmt.Errorf("btree: pool of %d pages too small", cfg.PoolPages)
	}
	t := &Tree{cfg: cfg, pool: map[pageID]*page{}, nextID: 1}
	// A self-healing device (ssd.Mirror) escalates unrecoverable dual-leg
	// corruption by latching the tree's health read-only.
	if ha, ok := cfg.Device.(interface {
		AttachHealth(*metrics.Health)
	}); ok {
		ha.AttachHealth(&t.stats.Health)
	}
	root := t.allocLocked(true)
	t.root = root.id
	return t, nil
}

// Stats returns the tree's counters.
func (t *Tree) Stats() *Stats { return &t.stats }

func (t *Tree) allocLocked(leaf bool) *page {
	p := &page{id: t.nextID, leaf: leaf, dirty: true}
	t.nextID++
	t.pool[p.id] = p
	return p
}

// fetch returns the page, reading it from the device on a pool miss.
func (t *Tree) fetch(id pageID, ch *sim.Charger) (*page, error) {
	t.tick++
	if p, ok := t.pool[id]; ok {
		p.lastUse = t.tick
		ch.Chase(1)
		return p, nil
	}
	t.stats.PoolMisses.Inc()
	raw, err := t.cfg.Device.ReadAt(int64(id)*PageSize, PageSize, ch)
	if err != nil {
		return nil, err
	}
	p, err := deserialize(id, raw)
	if err != nil {
		// The transfer succeeded but the page image is garbage: count a
		// failed physical read, not a logical one.
		t.cfg.Device.Stats().ReclassifyRead()
		return nil, err
	}
	ch.Add(ch.Profile().PageDeserialize)
	p.lastUse = t.tick
	t.pool[id] = p
	return p, t.enforcePoolLocked(ch)
}

// enforcePoolLocked evicts LRU clean-or-written-back pages until the pool
// is within capacity.
func (t *Tree) enforcePoolLocked(ch *sim.Charger) error {
	for len(t.pool) > t.cfg.PoolPages {
		var victim *page
		for _, p := range t.pool {
			if p.id == t.root {
				continue // keep the root resident
			}
			if victim == nil || p.lastUse < victim.lastUse {
				victim = p
			}
		}
		if victim == nil {
			return nil
		}
		if victim.dirty {
			if err := t.writeBackLocked(victim, ch); err != nil {
				return err
			}
		}
		delete(t.pool, victim.id)
		t.cfg.Device.Stats().Evictions.Inc()
	}
	return nil
}

// writeBackLocked writes a full fixed-size block (the classic-store write
// pattern the paper contrasts with log-structuring).
func (t *Tree) writeBackLocked(p *page, ch *sim.Charger) error {
	raw, err := serialize(p)
	if err != nil {
		return err
	}
	if err := t.cfg.Device.WriteAt(int64(p.id)*PageSize, raw, ch); err != nil {
		return err
	}
	p.dirty = false
	return nil
}

// Get returns the value for key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	return t.GetCtx(context.TODO(), key)
}

// GetCtx is Get bounded by ctx: pool-miss page reads abort promptly once
// ctx is cancelled or past deadline.
func (t *Tree) GetCtx(ctx context.Context, key []byte) (_ []byte, _ bool, err error) {
	sp := t.cfg.Obs.Begin(obs.OpGet, t.cfg.Session, ctx)
	defer func() { sp.End(err) }()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, false, ErrClosed
	}
	ch := sp.IO() // the descent may fetch a page from the device
	p, err := t.descend(key, ch)
	if err != nil {
		return nil, false, err
	}
	i := sort.Search(len(p.keys), func(i int) bool { return bytes.Compare(p.keys[i], key) >= 0 })
	ch.Compare(4)
	if i < len(p.keys) && bytes.Equal(p.keys[i], key) {
		v := p.vals[i]
		ch.Copy(len(v))
		return v, true, nil
	}
	return nil, false, nil
}

// descend walks to the leaf owning key.
func (t *Tree) descend(key []byte, ch *sim.Charger) (*page, error) {
	p, err := t.fetch(t.root, ch)
	if err != nil {
		return nil, err
	}
	for !p.leaf {
		i := sort.Search(len(p.keys), func(i int) bool { return bytes.Compare(key, p.keys[i]) < 0 })
		ch.Compare(4)
		p, err = t.fetch(p.children[i], ch)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Insert upserts key -> val.
func (t *Tree) Insert(key, val []byte) error {
	return t.InsertCtx(context.TODO(), key, val)
}

// InsertCtx is Insert bounded by ctx.
func (t *Tree) InsertCtx(ctx context.Context, key, val []byte) (err error) {
	sp := t.cfg.Obs.Begin(obs.OpPut, t.cfg.Session, ctx)
	defer func() { sp.End(err) }()
	if len(key)+len(val)+24 > PageSize/2 {
		return ErrTooLarge
	}
	key = append([]byte(nil), key...)
	val = append([]byte(nil), val...)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	ch := sp.IO() // the descent may fetch a page and write back an evicted one
	sep, right, err := t.insertRec(t.root, key, val, ch)
	if err != nil {
		return err
	}
	if right != nilPage {
		// Root split: new root.
		old := t.root
		nr := t.allocLocked(false)
		nr.keys = [][]byte{sep}
		nr.children = []pageID{old, right}
		t.root = nr.id
	}
	ch.Copy(len(key) + len(val))
	return nil
}

// insertRec inserts under page id; on split it returns (separator, new
// right sibling id).
func (t *Tree) insertRec(id pageID, key, val []byte, ch *sim.Charger) ([]byte, pageID, error) {
	p, err := t.fetch(id, ch)
	if err != nil {
		return nil, nilPage, err
	}
	if p.leaf {
		i := sort.Search(len(p.keys), func(i int) bool { return bytes.Compare(p.keys[i], key) >= 0 })
		ch.Compare(4)
		if i < len(p.keys) && bytes.Equal(p.keys[i], key) {
			p.vals[i] = val
		} else {
			p.keys = append(p.keys, nil)
			copy(p.keys[i+1:], p.keys[i:])
			p.keys[i] = key
			p.vals = append(p.vals, nil)
			copy(p.vals[i+1:], p.vals[i:])
			p.vals[i] = val
		}
		p.dirty = true
		return t.maybeSplitLocked(p)
	}
	i := sort.Search(len(p.keys), func(i int) bool { return bytes.Compare(key, p.keys[i]) < 0 })
	ch.Compare(4)
	sep, right, err := t.insertRec(p.children[i], key, val, ch)
	if err != nil {
		return nil, nilPage, err
	}
	if right == nilPage {
		return nil, nilPage, nil
	}
	p.keys = append(p.keys, nil)
	copy(p.keys[i+1:], p.keys[i:])
	p.keys[i] = sep
	p.children = append(p.children, nilPage)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
	p.dirty = true
	return t.maybeSplitLocked(p)
}

// maybeSplitLocked performs the classic half split when the page's
// serialized size exceeds the fixed block — this is what produces the
// ~ln 2 steady-state utilization.
func (t *Tree) maybeSplitLocked(p *page) ([]byte, pageID, error) {
	if p.serializedBytes() <= PageSize {
		return nil, nilPage, nil
	}
	if len(p.keys) < 2 {
		return nil, nilPage, ErrTooLarge
	}
	t.stats.Splits.Inc()
	m := len(p.keys) / 2
	if p.leaf {
		r := t.allocLocked(true)
		r.keys = append([][]byte(nil), p.keys[m:]...)
		r.vals = append([][]byte(nil), p.vals[m:]...)
		r.next = p.next
		p.keys = p.keys[:m]
		p.vals = p.vals[:m]
		p.next = r.id
		p.dirty = true
		return r.keys[0], r.id, t.enforcePoolLocked(nil)
	}
	sep := p.keys[m]
	r := t.allocLocked(false)
	r.keys = append([][]byte(nil), p.keys[m+1:]...)
	r.children = append([]pageID(nil), p.children[m+1:]...)
	p.keys = p.keys[:m]
	p.children = p.children[:m+1]
	p.dirty = true
	return sep, r.id, t.enforcePoolLocked(nil)
}

// Delete removes key (idempotent). Pages are not merged (classic lazy
// deletion).
func (t *Tree) Delete(key []byte) error {
	return t.DeleteCtx(context.TODO(), key)
}

// DeleteCtx is Delete bounded by ctx.
func (t *Tree) DeleteCtx(ctx context.Context, key []byte) (err error) {
	sp := t.cfg.Obs.Begin(obs.OpDelete, t.cfg.Session, ctx)
	defer func() { sp.End(err) }()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	p, err := t.descend(key, sp.IO())
	if err != nil {
		return err
	}
	i := sort.Search(len(p.keys), func(i int) bool { return bytes.Compare(p.keys[i], key) >= 0 })
	if i < len(p.keys) && bytes.Equal(p.keys[i], key) {
		p.keys = append(p.keys[:i], p.keys[i+1:]...)
		p.vals = append(p.vals[:i], p.vals[i+1:]...)
		p.dirty = true
	}
	return nil
}

// Scan visits keys >= start in order via the leaf sibling chain.
func (t *Tree) Scan(start []byte, limit int, fn func(k, v []byte) bool) error {
	return t.ScanCtx(context.TODO(), start, limit, fn)
}

// ScanCtx is Scan bounded by ctx: the context is checked at every sibling
// hop, so a cancelled scan stops fetching pages.
func (t *Tree) ScanCtx(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) (err error) {
	sp := t.cfg.Obs.Begin(obs.OpScan, t.cfg.Session, ctx)
	defer func() { sp.End(err) }()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	ch := sp.IO()
	p, err := t.descend(start, ch)
	if err != nil {
		return err
	}
	visited := 0
	i := sort.Search(len(p.keys), func(i int) bool { return bytes.Compare(p.keys[i], start) >= 0 })
	for {
		for ; i < len(p.keys); i++ {
			if limit > 0 && visited >= limit {
				return nil
			}
			if !fn(p.keys[i], p.vals[i]) {
				return nil
			}
			visited++
		}
		if p.next == nilPage || (limit > 0 && visited >= limit) {
			return nil
		}
		if err := ch.Err(); err != nil {
			return err
		}
		p, err = t.fetch(p.next, ch)
		if err != nil {
			return err
		}
		i = 0
	}
}

// FlushAll writes back every dirty page plus the meta page, making the
// tree recoverable via Open.
func (t *Tree) FlushAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	for _, p := range t.pool {
		if p.dirty {
			if err := t.writeBackLocked(p, nil); err != nil {
				return err
			}
		}
	}
	var meta [PageSize]byte
	meta[0] = 0xB7
	binary.BigEndian.PutUint32(meta[1:], uint32(t.root))
	binary.BigEndian.PutUint32(meta[5:], uint32(t.nextID))
	return t.cfg.Device.WriteAt(metaPage, meta[:], nil)
}

// Open recovers a tree previously persisted with FlushAll.
func Open(cfg Config) (*Tree, error) {
	if cfg.Device == nil {
		return nil, errors.New("btree: nil device")
	}
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 1024
	}
	raw, err := cfg.Device.ReadAt(metaPage, PageSize, nil)
	if err != nil {
		return nil, err
	}
	if raw[0] != 0xB7 {
		return nil, errors.New("btree: no meta page on device")
	}
	t := &Tree{cfg: cfg, pool: map[pageID]*page{}}
	t.root = pageID(binary.BigEndian.Uint32(raw[1:]))
	t.nextID = pageID(binary.BigEndian.Uint32(raw[5:]))
	return t, nil
}

// Utilization returns average content bytes per leaf page relative to the
// fixed page size. Under random inserts this converges toward ln 2 ≈ 0.69
// (paper Section 4.1).
func (t *Tree) Utilization() (float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var used, pages int64
	if err := t.walkLeaves(func(p *page) {
		if len(p.keys) > 0 {
			used += int64(p.serializedBytes())
			pages++
		}
	}); err != nil {
		return 0, err
	}
	if pages == 0 {
		return 0, nil
	}
	return float64(used) / float64(pages) / PageSize, nil
}

// AveragePageBytes returns the mean content size of leaf pages.
func (t *Tree) AveragePageBytes() (float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var used, pages int64
	if err := t.walkLeaves(func(p *page) {
		if len(p.keys) > 0 {
			used += int64(p.contentBytes())
			pages++
		}
	}); err != nil {
		return 0, err
	}
	if pages == 0 {
		return 0, nil
	}
	return float64(used) / float64(pages), nil
}

// walkLeaves visits all leaves via the sibling chain from the leftmost.
func (t *Tree) walkLeaves(fn func(*page)) error {
	p, err := t.fetch(t.root, nil)
	if err != nil {
		return err
	}
	for !p.leaf {
		p, err = t.fetch(p.children[0], nil)
		if err != nil {
			return err
		}
	}
	for {
		fn(p)
		if p.next == nilPage {
			return nil
		}
		p, err = t.fetch(p.next, nil)
		if err != nil {
			return err
		}
	}
}

// Close flushes and closes the tree.
func (t *Tree) Close() error {
	if err := t.FlushAll(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return nil
}

// serialize encodes a page into a fixed-size block.
func serialize(p *page) ([]byte, error) {
	buf := make([]byte, PageSize)
	if p.leaf {
		buf[0] = pageLeaf
	} else {
		buf[0] = pageInterior
	}
	binary.BigEndian.PutUint32(buf[1:], uint32(len(p.keys)))
	binary.BigEndian.PutUint32(buf[5:], uint32(p.next))
	off := 16
	put := func(b []byte) error {
		if off+4+len(b) > PageSize {
			return ErrTooLarge
		}
		binary.BigEndian.PutUint32(buf[off:], uint32(len(b)))
		off += 4
		copy(buf[off:], b)
		off += len(b)
		return nil
	}
	for i := range p.keys {
		if err := put(p.keys[i]); err != nil {
			return nil, err
		}
		if p.leaf {
			if err := put(p.vals[i]); err != nil {
				return nil, err
			}
		}
	}
	if !p.leaf {
		for _, c := range p.children {
			if off+4 > PageSize {
				return nil, ErrTooLarge
			}
			binary.BigEndian.PutUint32(buf[off:], uint32(c))
			off += 4
		}
	}
	return buf, nil
}

// deserialize decodes a fixed-size block.
func deserialize(id pageID, raw []byte) (*page, error) {
	if len(raw) != PageSize || (raw[0] != pageLeaf && raw[0] != pageInterior) {
		return nil, fmt.Errorf("btree: corrupt page %d", id)
	}
	p := &page{id: id, leaf: raw[0] == pageLeaf}
	n := int(binary.BigEndian.Uint32(raw[1:]))
	p.next = pageID(binary.BigEndian.Uint32(raw[5:]))
	off := 16
	get := func() ([]byte, error) {
		if off+4 > PageSize {
			return nil, fmt.Errorf("btree: truncated page %d", id)
		}
		l := int(binary.BigEndian.Uint32(raw[off:]))
		off += 4
		if off+l > PageSize {
			return nil, fmt.Errorf("btree: truncated page %d", id)
		}
		b := make([]byte, l)
		copy(b, raw[off:off+l])
		off += l
		return b, nil
	}
	for i := 0; i < n; i++ {
		k, err := get()
		if err != nil {
			return nil, err
		}
		p.keys = append(p.keys, k)
		if p.leaf {
			v, err := get()
			if err != nil {
				return nil, err
			}
			p.vals = append(p.vals, v)
		}
	}
	if !p.leaf {
		for i := 0; i <= n; i++ {
			if off+4 > PageSize {
				return nil, fmt.Errorf("btree: truncated page %d", id)
			}
			p.children = append(p.children, pageID(binary.BigEndian.Uint32(raw[off:])))
			off += 4
		}
	}
	return p, nil
}
