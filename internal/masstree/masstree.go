// Package masstree implements a MassTree (Mao, Kohler, Morris, EuroSys
// 2012) — the main-memory key-value store the paper compares the Bw-tree
// against (Section 5).
//
// Structure follows the original: a trie of B+tree layers, where each
// layer indexes one 8-byte slice of the key. Keys that share their first
// 8·h bytes meet in layer h; border (leaf) nodes store key suffixes inline
// and spawn a deeper layer only when two keys share a full slice but
// differ later. Entries within a layer are ordered by (keyslice,
// slice-length), which equals byte-lexicographic order of the original
// keys.
//
// Simplifications relative to the C++ original, documented in DESIGN.md:
// concurrency uses a readers-writer lock per tree instead of optimistic
// node versioning (reads still proceed concurrently), and border nodes are
// Go slices rather than permutation-encoded arrays. Neither changes the
// cost-model quantities measured from this implementation: the memory
// expansion M_x (pointer-rich trie nodes, fixed fanout, inline suffixes)
// and the execution advantage P_x (no mapping-table indirection, no delta
// chains) are structural.
package masstree

import (
	"bytes"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/sim"
)

// fanout is the maximum entries per node (the original uses 15).
const fanout = 15

// slicedKey is one 8-byte slice of a key plus the number of key bytes it
// represents (0..8). Ordering by (slice, length) equals lexicographic
// ordering of the underlying bytes because short slices are zero-padded.
type slicedKey struct {
	slice  uint64
	length uint8
}

func (a slicedKey) less(b slicedKey) bool {
	if a.slice != b.slice {
		return a.slice < b.slice
	}
	return a.length < b.length
}

func (a slicedKey) equal(b slicedKey) bool {
	return a.slice == b.slice && a.length == b.length
}

// cut splits a key into its first slice and the remainder.
func cut(key []byte) (slicedKey, []byte) {
	var buf [8]byte
	n := copy(buf[:], key)
	return slicedKey{slice: binary.BigEndian.Uint64(buf[:]), length: uint8(n)}, key[min(n, len(key)):]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// entry is one border-node slot: either a value (with the key's remaining
// suffix stored inline) or a link to the next trie layer.
type entry struct {
	key    slicedKey
	suffix []byte // remaining key bytes beyond this slice (value entries)
	val    []byte
	link   *layer // non-nil for layer links; val/suffix unused then
}

// border is a leaf node of a layer's B+tree.
type border struct {
	entries []entry
}

// interior is an internal node: children[i] covers keys < keys[i].
type interior struct {
	keys     []slicedKey
	children []node
}

type node interface{ isNode() }

func (*border) isNode()   {}
func (*interior) isNode() {}

// layer is one trie layer: a B+tree over slicedKeys.
type layer struct {
	root node
}

func newLayer() *layer { return &layer{root: &border{}} }

// Memory accounting approximations (bytes). The original masstree
// allocates fixed-width nodes — 15 slots of keyslice + permutation +
// pointer regardless of fill — so node overhead is charged at full width;
// per-entry overhead covers the suffix/value slice headers.
const (
	entryOverhead  = 48             // per-entry slice headers + value box
	borderOverhead = 64 + fanout*40 // fixed-width border node
	layerOverhead  = 48
)

// Stats counts tree events.
type Stats struct {
	Layers metrics.Counter
	Splits metrics.Counter
}

// Tree is a MassTree. All methods are safe for concurrent use; reads take
// a shared lock and proceed concurrently.
type Tree struct {
	mu      sync.RWMutex
	top     *layer
	session *sim.Session
	obs     *obs.Tracer
	stats   Stats
	mem     atomic.Int64
	count   atomic.Int64
}

// New creates an empty tree. session enables execution-cost accounting
// (may be nil).
func New(session *sim.Session) *Tree {
	t := &Tree{top: newLayer(), session: session}
	t.mem.Store(layerOverhead + borderOverhead)
	return t
}

// Stats returns the tree's counters.
func (t *Tree) Stats() *Stats { return &t.stats }

// SetObs installs a tracer receiving one span per operation (see
// internal/obs). MassTree is a pure main-memory structure, so its spans
// are always hits — they anchor the measured MM op latency (the paper's
// 1/ROPS) that SS-touching stores are compared against. Nil disables.
func (t *Tree) SetObs(tr *obs.Tracer) { t.obs = tr }

// Len returns the number of live keys.
func (t *Tree) Len() int { return int(t.count.Load()) }

// FootprintBytes returns the approximate main-memory footprint — the M_x
// numerator of paper Section 5.1.
func (t *Tree) FootprintBytes() int64 { return t.mem.Load() }

// Get returns the value stored for key.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	sp := t.obs.Start(obs.OpGet)
	defer sp.End(nil)
	ch := t.session.Begin()
	t.mu.RLock()
	val, ok := t.top.get(key, ch)
	t.mu.RUnlock()
	if ok {
		ch.Copy(len(val))
	}
	ch.Settle()
	return val, ok
}

func (l *layer) get(key []byte, ch *sim.Charger) ([]byte, bool) {
	sk, rest := cut(key)
	b := l.descend(sk, ch)
	i := b.search(sk, ch)
	if i < 0 {
		return nil, false
	}
	e := &b.entries[i]
	if e.link != nil {
		ch.Chase(1)
		return e.link.get(rest, ch)
	}
	ch.Compare(1)
	if !bytes.Equal(e.suffix, rest) {
		return nil, false
	}
	return e.val, true
}

// descend walks the layer's B+tree to the border responsible for sk.
func (l *layer) descend(sk slicedKey, ch *sim.Charger) *border {
	n := l.root
	for {
		switch v := n.(type) {
		case *border:
			return v
		case *interior:
			i := sort.Search(len(v.keys), func(i int) bool { return sk.less(v.keys[i]) })
			// Cache-crafted node: fixed-fanout uint64 keyslice search within
			// prefetched cache lines (the masstree design point).
			ch.Compare(1)
			ch.Chase(1)
			n = v.children[i]
		}
	}
}

// search returns the index of the entry matching sk, or -1.
func (b *border) search(sk slicedKey, ch *sim.Charger) int {
	i := sort.Search(len(b.entries), func(i int) bool { return !b.entries[i].key.less(sk) })
	ch.Compare(2)
	if i < len(b.entries) && b.entries[i].key.equal(sk) {
		return i
	}
	return -1
}

// Put inserts or overwrites key -> val.
func (t *Tree) Put(key, val []byte) {
	sp := t.obs.Start(obs.OpPut)
	defer sp.End(nil)
	key = append([]byte(nil), key...)
	val = append([]byte(nil), val...)
	ch := t.session.Begin()
	t.mu.Lock()
	added, memDelta := t.top.put(key, val, ch, &t.stats)
	t.mu.Unlock()
	t.mem.Add(int64(memDelta))
	if added {
		t.count.Add(1)
	}
	ch.Copy(len(key) + len(val))
	ch.Settle()
}

// put returns (newKey, memoryDelta).
func (l *layer) put(key, val []byte, ch *sim.Charger, st *Stats) (bool, int) {
	sk, rest := cut(key)
	b := l.descend(sk, ch)
	i := b.search(sk, ch)
	if i >= 0 {
		e := &b.entries[i]
		if e.link != nil {
			ch.Chase(1)
			return e.link.put(rest, val, ch, st)
		}
		if bytes.Equal(e.suffix, rest) {
			delta := len(val) - len(e.val)
			e.val = val
			return false, delta
		}
		// Two keys share this full slice but differ in their suffixes:
		// create the next trie layer and push both down (the masstree
		// layer-creation rule).
		nl := newLayer()
		st.Layers.Inc()
		_, d1 := nl.put(e.suffix, e.val, ch, st)
		_, d2 := nl.put(rest, val, ch, st)
		freed := len(e.suffix) + len(e.val)
		e.suffix, e.val, e.link = nil, nil, nl
		return true, layerOverhead + borderOverhead + d1 + d2 - freed
	}
	// New entry in this layer.
	ne := entry{key: sk, suffix: append([]byte(nil), rest...), val: val}
	delta := entryOverhead + len(ne.suffix) + len(val)
	delta += l.insert(ne, ch, st)
	return true, delta
}

// insert adds an entry to the layer's B+tree, splitting as needed.
// It returns the extra memory consumed by structural growth.
func (l *layer) insert(ne entry, ch *sim.Charger, st *Stats) int {
	grown := 0
	split, sepKey, right := insertRec(l.root, ne, ch, st, &grown)
	if split {
		l.root = &interior{keys: []slicedKey{sepKey}, children: []node{l.root, right}}
		grown += borderOverhead
	}
	return grown
}

// insertRec inserts into the subtree rooted at n. If the node splits it
// returns (true, separator, rightSibling).
func insertRec(n node, ne entry, ch *sim.Charger, st *Stats, grown *int) (bool, slicedKey, node) {
	switch v := n.(type) {
	case *border:
		i := sort.Search(len(v.entries), func(i int) bool { return !v.entries[i].key.less(ne.key) })
		ch.Compare(4)
		v.entries = append(v.entries, entry{})
		copy(v.entries[i+1:], v.entries[i:])
		v.entries[i] = ne
		if len(v.entries) <= fanout {
			return false, slicedKey{}, nil
		}
		st.Splits.Inc()
		m := len(v.entries) / 2
		right := &border{entries: append([]entry(nil), v.entries[m:]...)}
		v.entries = v.entries[:m]
		*grown += borderOverhead
		return true, right.entries[0].key, right
	case *interior:
		i := sort.Search(len(v.keys), func(i int) bool { return ne.key.less(v.keys[i]) })
		ch.Compare(4)
		ch.Chase(1)
		split, sep, right := insertRec(v.children[i], ne, ch, st, grown)
		if !split {
			return false, slicedKey{}, nil
		}
		v.keys = append(v.keys, slicedKey{})
		copy(v.keys[i+1:], v.keys[i:])
		v.keys[i] = sep
		v.children = append(v.children, nil)
		copy(v.children[i+2:], v.children[i+1:])
		v.children[i+1] = right
		if len(v.keys) <= fanout {
			return false, slicedKey{}, nil
		}
		st.Splits.Inc()
		m := len(v.keys) / 2
		sepUp := v.keys[m]
		ri := &interior{
			keys:     append([]slicedKey(nil), v.keys[m+1:]...),
			children: append([]node(nil), v.children[m+1:]...),
		}
		v.keys = v.keys[:m]
		v.children = v.children[:m+1]
		*grown += borderOverhead
		return true, sepUp, ri
	}
	return false, slicedKey{}, nil
}

// Delete removes key, returning whether it was present. Border nodes are
// not rebalanced (lazy deletion, as in the original's common case); empty
// sub-layers are unlinked when their last key disappears.
func (t *Tree) Delete(key []byte) bool {
	sp := t.obs.Start(obs.OpDelete)
	defer sp.End(nil)
	ch := t.session.Begin()
	t.mu.Lock()
	removed, memDelta := t.top.del(key, ch)
	t.mu.Unlock()
	t.mem.Add(int64(memDelta))
	if removed {
		t.count.Add(-1)
	}
	ch.Settle()
	return removed
}

func (l *layer) del(key []byte, ch *sim.Charger) (bool, int) {
	sk, rest := cut(key)
	b := l.descend(sk, ch)
	i := b.search(sk, ch)
	if i < 0 {
		return false, 0
	}
	e := &b.entries[i]
	if e.link != nil {
		ch.Chase(1)
		removed, delta := e.link.del(rest, ch)
		if removed && e.link.empty() {
			delta -= layerOverhead + borderOverhead
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			delta -= entryOverhead
		}
		return removed, delta
	}
	ch.Compare(1)
	if !bytes.Equal(e.suffix, rest) {
		return false, 0
	}
	freed := entryOverhead + len(e.suffix) + len(e.val)
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
	return true, -freed
}

func (l *layer) empty() bool {
	b, ok := l.root.(*border)
	return ok && len(b.entries) == 0
}
