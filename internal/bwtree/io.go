package bwtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"costperf/internal/fault"
	"costperf/internal/llama/logstore"
	"costperf/internal/llama/mapping"
	"costperf/internal/sim"
)

// storeRead reads a log record, retrying transient device faults under the
// tree's retry policy. Corrupt and persistent errors surface immediately;
// the charger's context (if any) aborts both the I/O and the backoff.
func (t *Tree) storeRead(addr logstore.Address, ch *sim.Charger) (logstore.Record, error) {
	var rec logstore.Record
	err := fault.DefaultRetry().DoCtx(ch.Context(), &t.stats.Retry, func() error {
		var rerr error
		rec, rerr = t.cfg.Store.Read(addr, ch)
		return rerr
	})
	return rec, err
}

// storeAppend appends a log record with degraded-state semantics: once a
// persistent storage failure is seen the tree latches read-only and all
// further flush work fails fast with ErrDegraded instead of risking a
// half-written durable state.
func (t *Tree) storeAppend(pid uint64, kind logstore.Kind, payload []byte, ch *sim.Charger) (logstore.Address, error) {
	if t.stats.Health.Degraded() {
		return logstore.Address{}, ErrDegraded
	}
	addr, err := t.cfg.Store.Append(pid, kind, payload, ch)
	if err != nil && fault.Classify(err) == fault.ClassPersistent {
		t.stats.Health.Degrade(fmt.Sprintf("append page %d: %v", pid, err))
	}
	return addr, err
}

// On-log payload subtypes (first payload byte).
const (
	payloadLeafBase  = 1
	payloadIndexBase = 2
	payloadDeltas    = 3
	payloadMeta      = 4
)

// metaPID tags the checkpoint metadata record in the log (mapping PID 0 is
// reserved, so it cannot collide with a real page).
const metaPID = 0

// Delta ops inside a flushed delta batch.
const (
	deltaOpInsert = 1
	deltaOpDelete = 2
)

// ErrNoCheckpoint is returned by Open when the log contains no checkpoint
// metadata record.
var ErrNoCheckpoint = errors.New("bwtree: no checkpoint in log")

// corrupt reports a refused page image as fault.ErrCorrupt's class.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("bwtree: %s: %w", fmt.Sprintf(format, args...), fault.ErrCorrupt)
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putBytes(buf *bytes.Buffer, b []byte) {
	putUvarint(buf, uint64(len(b)))
	buf.Write(b)
}

type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = corrupt("truncated payload")
		return 0
	}
	// Only putUvarint's minimal encoding re-encodes byte-identical.
	if n != (bits.Len64(v|1)+6)/7 {
		r.err = corrupt("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// upTo reads a value of at most limit. An entry count bounded by the bytes
// left (an entry takes at least one) bounds the slices sized from it.
func (r *reader) upTo(limit uint64) uint64 {
	v := r.uvarint()
	if r.err == nil && v > limit {
		r.err = corrupt("value %d exceeds %d", v, limit)
		return 0
	}
	return v
}

// count reads an entry count; flag reads a 0/1 presence byte.
func (r *reader) count() uint64 { return r.upTo(uint64(len(r.b))) }
func (r *reader) flag() bool    { return r.upTo(1) == 1 }

// done reports the reader's error, refusing trailing bytes.
func (r *reader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = corrupt("%d trailing payload bytes", len(r.b))
	}
	return r.err
}

// payload starts a reader after p's subtype byte, which must be want.
func payload(p []byte, want byte) *reader {
	if len(p) == 0 || p[0] != want {
		return &reader{err: corrupt("not a subtype %d payload", want)}
	}
	return &reader{b: p[1:]}
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.err = corrupt("truncated payload")
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[:n])
	r.b = r.b[n:]
	return out
}

func putAddr(buf *bytes.Buffer, a logstore.Address) {
	putUvarint(buf, uint64(a.Off))
	putUvarint(buf, uint64(a.Len))
}

func (r *reader) addr() logstore.Address {
	off := r.upTo(math.MaxInt64)
	l := r.upTo(math.MaxInt32)
	return logstore.Address{Off: int64(off), Len: int32(l)}
}

// encodeLeafBase serializes a consolidated leaf: only the bytes the page
// actually holds are written (variable-size pages, paper Figure 5).
func encodeLeafBase(b *leafBase) []byte {
	var buf bytes.Buffer
	buf.WriteByte(payloadLeafBase)
	if b.highKey == nil {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(1)
		putBytes(&buf, b.highKey)
	}
	putUvarint(&buf, uint64(b.right))
	putUvarint(&buf, uint64(len(b.keys)))
	for i := range b.keys {
		putBytes(&buf, b.keys[i])
		putBytes(&buf, b.vals[i])
	}
	return buf.Bytes()
}

func decodeLeafBase(p []byte) (*leafBase, error) {
	r := payload(p, payloadLeafBase)
	b := &leafBase{}
	if r.flag() {
		b.highKey = r.bytes()
	}
	b.right = mapping.PID(r.uvarint())
	n := r.count()
	b.keys = make([][]byte, 0, n)
	b.vals = make([][]byte, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		b.keys = append(b.keys, r.bytes())
		b.vals = append(b.vals, r.bytes())
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return b, nil
}

func encodeIndexBase(b *indexBase, level int) []byte {
	var buf bytes.Buffer
	buf.WriteByte(payloadIndexBase)
	putUvarint(&buf, uint64(level))
	if b.highKey == nil {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(1)
		putBytes(&buf, b.highKey)
	}
	putUvarint(&buf, uint64(b.right))
	putUvarint(&buf, uint64(len(b.keys)))
	for i := range b.keys {
		putBytes(&buf, b.keys[i])
	}
	for _, c := range b.children {
		putUvarint(&buf, uint64(c))
	}
	return buf.Bytes()
}

func decodeIndexBase(p []byte) (*indexBase, int, error) {
	r := payload(p, payloadIndexBase)
	level := int(r.uvarint())
	b := &indexBase{}
	if r.flag() {
		b.highKey = r.bytes()
	}
	b.right = mapping.PID(r.uvarint())
	n := r.count()
	b.keys = make([][]byte, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		b.keys = append(b.keys, r.bytes())
	}
	b.children = make([]mapping.PID, 0, n+1)
	for i := uint64(0); i <= n && r.err == nil; i++ {
		b.children = append(b.children, mapping.PID(r.uvarint()))
	}
	if err := r.done(); err != nil {
		return nil, 0, err
	}
	return b, level, nil
}

// flatDelta is one entry of a flushed delta batch.
type flatDelta struct {
	op       byte
	key, val []byte
}

// encodeDeltaBatch serializes the unflushed deltas (newest first) with a
// pointer to the previous durable state — the paper's incremental flush
// (Figure 5: "need only store delta updates when the base page has
// previously been stored").
func encodeDeltaBatch(deltas []flatDelta, prev logstore.Address) []byte {
	var buf bytes.Buffer
	buf.WriteByte(payloadDeltas)
	putAddr(&buf, prev)
	putUvarint(&buf, uint64(len(deltas)))
	for _, d := range deltas {
		buf.WriteByte(d.op)
		putBytes(&buf, d.key)
		if d.op == deltaOpInsert {
			putBytes(&buf, d.val)
		}
	}
	return buf.Bytes()
}

func decodeDeltaBatch(p []byte) ([]flatDelta, logstore.Address, error) {
	r := payload(p, payloadDeltas)
	prev := r.addr()
	n := r.count()
	out := make([]flatDelta, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		d := flatDelta{op: byte(r.upTo(deltaOpDelete))}
		if r.err == nil && d.op != deltaOpInsert && d.op != deltaOpDelete {
			return nil, prev, corrupt("bad delta op %d", d.op)
		}
		d.key = r.bytes()
		if d.op == deltaOpInsert {
			d.val = r.bytes()
		}
		out = append(out, d)
	}
	if err := r.done(); err != nil {
		return nil, prev, err
	}
	return out, prev, nil
}

// readDurableState reconstructs a page's consolidated content from the log
// by following the record chain from addr back to the base, applying delta
// batches newest-wins. It also returns the page's level (0 for leaves) and
// the chain addresses (newest first).
func (t *Tree) readDurableState(addr logstore.Address, ch *sim.Charger) (node, int, []logstore.Address, error) {
	var chain []logstore.Address
	var batches [][]flatDelta // newest first
	cur := addr
	for hop := 0; ; hop++ {
		if hop > 1024 {
			return nil, 0, nil, corrupt("durable chain too long")
		}
		if cur.IsNil() {
			return nil, 0, nil, corrupt("durable chain ends without base")
		}
		rec, err := t.storeRead(cur, ch)
		if err != nil {
			return nil, 0, nil, err
		}
		chain = append(chain, cur)
		if len(rec.Payload) == 0 {
			return nil, 0, nil, corrupt("empty payload")
		}
		switch rec.Payload[0] {
		case payloadDeltas:
			ds, prev, err := decodeDeltaBatch(rec.Payload)
			if err != nil {
				return nil, 0, nil, err
			}
			batches = append(batches, ds)
			cur = prev
		case payloadLeafBase:
			base, err := decodeLeafBase(rec.Payload)
			if err != nil {
				return nil, 0, nil, err
			}
			return applyBatches(base, batches), 0, chain, nil
		case payloadIndexBase:
			idx, level, err := decodeIndexBase(rec.Payload)
			if err != nil {
				return nil, 0, nil, err
			}
			if len(batches) > 0 {
				return nil, 0, nil, corrupt("delta batches over index page")
			}
			return idx, level, chain, nil
		default:
			return nil, 0, nil, corrupt("unknown payload subtype %d", rec.Payload[0])
		}
	}
}

// applyBatches folds flushed delta batches (newest first) into a base.
func applyBatches(base *leafBase, batches [][]flatDelta) *leafBase {
	if len(batches) == 0 {
		return base
	}
	type entry struct {
		val     []byte
		deleted bool
	}
	seen := map[string]*entry{}
	for _, batch := range batches { // newest batch first; within a batch newest first
		for _, d := range batch {
			if _, ok := seen[string(d.key)]; ok {
				continue
			}
			seen[string(d.key)] = &entry{val: d.val, deleted: d.op == deltaOpDelete}
		}
	}
	keys := make([][]byte, 0, len(base.keys)+len(seen))
	vals := make([][]byte, 0, len(base.keys)+len(seen))
	for i := range base.keys {
		k := base.keys[i]
		if e, ok := seen[string(k)]; ok {
			if !e.deleted {
				keys = append(keys, k)
				vals = append(vals, e.val)
			}
			delete(seen, string(k))
			continue
		}
		keys = append(keys, k)
		vals = append(vals, base.vals[i])
	}
	extra := make([]string, 0, len(seen))
	for k, e := range seen {
		if !e.deleted {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, ks := range extra {
		k := []byte(ks)
		i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], k) >= 0 })
		keys = append(keys, nil)
		vals = append(vals, nil)
		copy(keys[i+1:], keys[i:])
		copy(vals[i+1:], vals[i:])
		keys[i] = k
		vals[i] = seen[ks].val
	}
	return &leafBase{keys: keys, vals: vals, highKey: base.highKey, right: base.right}
}

// loadPage brings an evicted page back into main memory: it reads the
// durable state from the log store (an SS operation) and splices it under
// any in-memory deltas that accumulated above the diskRef (blind updates).
func (t *Tree) loadPage(pid mapping.PID, ref *diskRef, ch *sim.Charger) error {
	if t.cfg.Store == nil {
		return ErrNoStore
	}
	state, _, _, err := t.readDurableState(ref.addr, ch)
	if err != nil {
		return err
	}
	base, ok := state.(*leafBase)
	if !ok {
		return fmt.Errorf("bwtree: loaded page %d is not a leaf", pid)
	}
	for {
		hdr := t.header(pid, ch)
		// Verify the chain still bottoms out in the same diskRef.
		if bot, ok := chainBottom(hdr.head).(*diskRef); !ok || bot != ref {
			return nil // another loader (or writer) already resolved it
		}
		nh := *hdr
		nh.head = spliceBottom(hdr.head, base)
		nh.memBytes = hdr.memBytes + base.memSize()
		if t.install(pid, hdr, &nh) {
			t.stats.PageLoads.Inc()
			return nil
		}
	}
}

// spliceBottom rebuilds a delta chain with a new terminal node.
func spliceBottom(head node, bottom node) node {
	var deltas []node
	n := head
	for {
		switch v := n.(type) {
		case *insertDelta:
			deltas = append(deltas, v)
			n = v.next
		case *deleteDelta:
			deltas = append(deltas, v)
			n = v.next
		default:
			out := bottom
			for i := len(deltas) - 1; i >= 0; i-- {
				switch d := deltas[i].(type) {
				case *insertDelta:
					out = &insertDelta{key: d.key, val: d.val, next: out}
				case *deleteDelta:
					out = &deleteDelta{key: d.key, next: out}
				}
			}
			return out
		}
	}
}

// collectUnflushed gathers the newest n deltas of a chain as flat records
// (newest first).
func collectUnflushed(head node, n int) []flatDelta {
	out := make([]flatDelta, 0, n)
	cur := head
	for len(out) < n {
		switch v := cur.(type) {
		case *insertDelta:
			out = append(out, flatDelta{op: deltaOpInsert, key: v.key, val: v.val})
			cur = v.next
		case *deleteDelta:
			out = append(out, flatDelta{op: deltaOpDelete, key: v.key})
			cur = v.next
		default:
			return out
		}
	}
	return out
}

// FlushPage makes the page's current state durable. Clean or
// delta-flushable pages write only their unflushed deltas (incremental
// flush); consolidated/dirty pages write a full variable-size base.
func (t *Tree) FlushPage(pid mapping.PID) error {
	if t.cfg.Store == nil {
		return ErrNoStore
	}
	ch := t.cfg.Session.Begin()
	defer abandonMaint(t, ch)
	for {
		hdr := t.header(pid, ch)
		if hdr.unflushed == 0 && !hdr.dirtyBase && !hdr.addr.IsNil() {
			return nil // already durable
		}
		if !hdr.isLeaf {
			idx, ok := hdr.head.(*indexBase)
			if !ok {
				return fmt.Errorf("bwtree: index page %d not resident", pid)
			}
			addr, err := t.storeAppend(uint64(pid), logstore.KindBase, encodeIndexBase(idx, hdr.level), ch)
			if err != nil {
				return err
			}
			nh := *hdr
			old := nh.diskChain
			nh.addr = addr
			nh.diskChain = []logstore.Address{addr}
			nh.unflushed = 0
			nh.dirtyBase = false
			if t.install(pid, hdr, &nh) {
				for _, a := range old {
					t.cfg.Store.Invalidate(a)
				}
				t.stats.PageFlushes.Inc()
				return nil
			}
			continue
		}
		// Incremental delta flush: base unchanged since last flush.
		if !hdr.dirtyBase && !hdr.addr.IsNil() {
			deltas := collectUnflushed(hdr.head, hdr.unflushed)
			payload := encodeDeltaBatch(deltas, hdr.addr)
			addr, err := t.storeAppend(uint64(pid), logstore.KindDelta, payload, ch)
			if err != nil {
				return err
			}
			nh := *hdr
			nh.addr = addr
			nh.diskChain = append([]logstore.Address{addr}, hdr.diskChain...)
			nh.unflushed = 0
			if t.install(pid, hdr, &nh) {
				t.stats.DeltaFlushes.Inc()
				return nil
			}
			continue
		}
		// Full base flush: consolidate in memory first if needed.
		base, ok := hdr.head.(*leafBase)
		if !ok {
			if err := t.consolidate(pid, t.cfg.Session.Begin()); err != nil && !errors.Is(err, errRetryConsolidate) {
				return err
			}
			continue
		}
		addr, err := t.storeAppend(uint64(pid), logstore.KindBase, encodeLeafBase(base), ch)
		if err != nil {
			return err
		}
		nh := *hdr
		old := nh.diskChain
		nh.addr = addr
		nh.diskChain = []logstore.Address{addr}
		nh.unflushed = 0
		nh.dirtyBase = false
		if t.install(pid, hdr, &nh) {
			for _, a := range old {
				t.cfg.Store.Invalidate(a)
			}
			t.stats.PageFlushes.Inc()
			return nil
		}
	}
}

// EvictPage drops a leaf's base page from main memory, flushing first if
// needed. When retainDeltas is true, in-memory deltas above the base are
// kept as a record cache (paper Section 6.3: "keep delta updates in main
// memory even when evicting a base page"); otherwise the whole in-memory
// state is dropped.
func (t *Tree) EvictPage(pid mapping.PID, retainDeltas bool) error {
	if t.cfg.Store == nil {
		return ErrNoStore
	}
	for {
		hdr := t.header(pid, nil)
		if !hdr.isLeaf {
			return fmt.Errorf("bwtree: refusing to evict index page %d", pid)
		}
		if _, already := chainBottom(hdr.head).(*diskRef); already && (!retainDeltas && hdr.chainLen == 0 || retainDeltas) {
			return nil // nothing resident to evict
		}
		if hdr.unflushed > 0 || hdr.dirtyBase || hdr.addr.IsNil() {
			if err := t.FlushPage(pid); err != nil {
				return err
			}
			continue
		}
		ref := &diskRef{addr: hdr.addr}
		nh := *hdr
		if retainDeltas {
			nh.head = spliceBottom(hdr.head, ref)
			nh.memBytes = hdr.memBytes - baseSize(hdr.head)
		} else {
			nh.head = ref
			nh.chainLen = 0
			nh.memBytes = headerBytes
		}
		if t.install(pid, hdr, &nh) {
			t.stats.PageEvictions.Inc()
			return nil
		}
	}
}

// baseSize returns the in-memory size of the chain's terminal base page
// (0 if the bottom is already a diskRef).
func baseSize(head node) int {
	switch b := chainBottom(head).(type) {
	case *leafBase:
		return b.memSize()
	case *indexBase:
		return b.memSize()
	default:
		return 0
	}
}

// FlushAll makes every page durable and appends checkpoint metadata, then
// flushes the log's write buffer. After FlushAll, Open can rebuild the
// tree from the device.
func (t *Tree) FlushAll() error {
	if t.cfg.Store == nil {
		return ErrNoStore
	}
	var err error
	t.table.Range(func(pid mapping.PID, _ *pageHeader) bool {
		if e := t.FlushPage(pid); e != nil {
			err = e
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteByte(payloadMeta)
	putUvarint(&buf, uint64(t.root))
	putUvarint(&buf, uint64(t.table.MaxPID()))
	addr, err := t.storeAppend(metaPID, logstore.KindBase, buf.Bytes(), nil)
	if err != nil {
		return err
	}
	t.metaMu.Lock()
	old := t.metaAddr
	t.metaAddr = addr
	t.metaMu.Unlock()
	if !old.IsNil() {
		t.cfg.Store.Invalidate(old)
	}
	return t.cfg.Store.Flush(nil)
}

// Open rebuilds a tree from a previously checkpointed log store. Index
// pages are loaded eagerly (the paper's assumption: index pages stay
// cached); leaf pages start evicted and load on first access.
func Open(cfg Config) (*Tree, error) {
	cfg.setDefaults()
	if cfg.Store == nil {
		return nil, ErrNoStore
	}
	latest := map[uint64]logstore.Address{}
	var checkpointed map[uint64]logstore.Address
	var root mapping.PID
	var maxPID mapping.PID
	sawMeta := false
	var metaAddr logstore.Address
	err := cfg.Store.Scan(func(rec logstore.Record, addr logstore.Address) bool {
		if rec.PID == metaPID {
			if len(rec.Payload) > 0 && rec.Payload[0] == payloadMeta {
				r := &reader{b: rec.Payload[1:]}
				root = mapping.PID(r.uvarint())
				maxPID = mapping.PID(r.uvarint())
				if r.err == nil {
					sawMeta = true
					metaAddr = addr
					// Snapshot the mapping as of this checkpoint. Records
					// after the last meta belong to a FlushAll that never
					// committed (torn by a crash mid-flush): trusting them
					// can resurrect a parent page that references children
					// whose records were lost in the tear. Recovery must be
					// checkpoint-consistent, so only records at or before
					// the last durable meta are used.
					checkpointed = make(map[uint64]logstore.Address, len(latest))
					for pid, a := range latest {
						checkpointed[pid] = a
					}
				}
			}
			return true
		}
		latest[rec.PID] = addr
		return true
	})
	if err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, ErrNoCheckpoint
	}
	t := &Tree{cfg: cfg, table: mapping.New[pageHeader](0), root: root}
	// Track the live checkpoint record so GC relocates rather than drops it.
	t.metaAddr = metaAddr
	for pidRaw, addr := range checkpointed {
		pid := mapping.PID(pidRaw)
		if pid > maxPID {
			maxPID = pid
		}
		state, level, chain, err := t.readDurableState(addr, nil)
		if err != nil {
			return nil, fmt.Errorf("bwtree: recovering page %d: %w", pid, err)
		}
		switch s := state.(type) {
		case *indexBase:
			h := &pageHeader{
				head: s, highKey: s.highKey, right: s.right,
				addr: addr, diskChain: chain, memBytes: s.memSize(), isLeaf: false, level: level,
			}
			t.table.Store(pid, h)
			t.mem.Add(int64(h.memBytes))
		case *leafBase:
			h := &pageHeader{
				head: &diskRef{addr: addr}, highKey: s.highKey, right: s.right,
				addr: addr, diskChain: chain, memBytes: headerBytes, isLeaf: true,
			}
			t.table.Store(pid, h)
			t.mem.Add(int64(h.memBytes))
		}
	}
	// Reserve recovered PIDs so future allocations do not collide.
	if cur := t.table.MaxPID(); cur < maxPID {
		t.table.Store(maxPID, nil)
	}
	if t.table.Get(root) == nil {
		return nil, fmt.Errorf("bwtree: root page %d missing from log", root)
	}
	return t, nil
}

// RelocateForGC is the log-store GC callback: it reports whether the
// record at oldAddr is part of some page's durable state and, if so,
// preserves the page's data before the segment is trimmed. Single-record
// pages are re-appended as-is; multi-record chains are rewritten as a
// fresh consolidated base (invalidating the rest of the old chain).
func (t *Tree) RelocateForGC(rec logstore.Record, oldAddr logstore.Address) bool {
	if rec.PID == metaPID {
		// Checkpoint metadata: relocate only the latest checkpoint record.
		t.metaMu.Lock()
		latest := t.metaAddr
		t.metaMu.Unlock()
		if latest != oldAddr {
			return false // superseded checkpoint
		}
		na, err := t.storeAppend(metaPID, logstore.KindBase, rec.Payload, nil)
		if err != nil {
			return false
		}
		t.metaMu.Lock()
		t.metaAddr = na
		t.metaMu.Unlock()
		return true
	}
	pid := mapping.PID(rec.PID)
	if t.table.Get(pid) == nil {
		return false
	}
	for {
		hdr := t.header(pid, nil)
		live := false
		for _, a := range hdr.diskChain {
			if a == oldAddr {
				live = true
				break
			}
		}
		if !live {
			return false
		}
		if len(hdr.diskChain) == 1 && hdr.addr == oldAddr {
			// Sole record: relocate verbatim.
			na, err := t.storeAppend(rec.PID, rec.Kind, rec.Payload, nil)
			if err != nil {
				return false
			}
			nh := *hdr
			nh.addr = na
			nh.diskChain = []logstore.Address{na}
			if _, ok := chainBottom(hdr.head).(*diskRef); ok {
				nh.head = spliceBottom(hdr.head, &diskRef{addr: na})
			}
			if t.install(pid, hdr, &nh) {
				return true
			}
			continue
		}
		// Multi-record chain: rewrite the page's full state as a fresh
		// base, invalidating the rest of the old chain.
		if err := t.rewriteDurable(pid); err != nil {
			return false
		}
		return false // old record replaced, not relocated verbatim
	}
}

// rewriteDurable re-appends a page's complete durable state as a single
// fresh base record and invalidates the old multi-record chain, preserving
// the page's residency (an evicted page stays evicted).
func (t *Tree) rewriteDurable(pid mapping.PID) error {
	for {
		hdr := t.header(pid, nil)
		if hdr.addr.IsNil() {
			return nil
		}
		if !hdr.isLeaf {
			idx, ok := hdr.head.(*indexBase)
			if !ok {
				return fmt.Errorf("bwtree: index page %d not resident", pid)
			}
			na, err := t.storeAppend(uint64(pid), logstore.KindBase, encodeIndexBase(idx, hdr.level), nil)
			if err != nil {
				return err
			}
			nh := *hdr
			old := hdr.diskChain
			nh.addr = na
			nh.diskChain = []logstore.Address{na}
			if t.install(pid, hdr, &nh) {
				for _, a := range old {
					t.cfg.Store.Invalidate(a)
				}
				return nil
			}
			continue
		}
		// Leaf: reconstruct the durable state (not the in-memory state —
		// unflushed in-memory deltas stay unflushed).
		state, _, _, err := t.readDurableState(hdr.addr, nil)
		if err != nil {
			return err
		}
		base, ok := state.(*leafBase)
		if !ok {
			return fmt.Errorf("bwtree: page %d durable state is not a leaf", pid)
		}
		na, err := t.storeAppend(uint64(pid), logstore.KindBase, encodeLeafBase(base), nil)
		if err != nil {
			return err
		}
		nh := *hdr
		old := hdr.diskChain
		nh.addr = na
		nh.diskChain = []logstore.Address{na}
		if _, isRef := chainBottom(hdr.head).(*diskRef); isRef {
			nh.head = spliceBottom(hdr.head, &diskRef{addr: na})
		}
		if t.install(pid, hdr, &nh) {
			for _, a := range old {
				t.cfg.Store.Invalidate(a)
			}
			return nil
		}
	}
}
