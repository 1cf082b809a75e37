package bwtree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"costperf/internal/llama/logstore"
	"costperf/internal/llama/mapping"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/sim"
)

// Common errors.
var (
	ErrClosed  = errors.New("bwtree: closed")
	ErrNoStore = errors.New("bwtree: no log store configured")
	// ErrDegraded is returned by flush/evict paths after a persistent
	// storage failure latched the tree read-only (see Stats.Health).
	ErrDegraded = errors.New("bwtree: tree degraded (read-only)")
)

// Config configures a Tree.
type Config struct {
	// Store is the log-structured secondary storage. Nil runs the tree as
	// a pure main-memory structure (flush/evict unavailable).
	Store *logstore.Store
	// Session provides execution-cost accounting; nil disables it.
	Session *sim.Session
	// MaxPageBytes triggers a split when a consolidated leaf exceeds it.
	// Default 4096 (paper Section 4.1: 4K max pages).
	MaxPageBytes int
	// ConsolidateAfter is the delta-chain length that triggers
	// consolidation. Default 8.
	ConsolidateAfter int
	// Obs, when non-nil, receives one tracing span per public operation
	// (page-load misses marked; see internal/obs). Nil traces nothing at
	// zero cost.
	Obs *obs.Tracer
}

func (c *Config) setDefaults() {
	if c.MaxPageBytes == 0 {
		c.MaxPageBytes = 4096
	}
	if c.ConsolidateAfter == 0 {
		c.ConsolidateAfter = 8
	}
}

// Stats counts tree-level events.
type Stats struct {
	Consolidations metrics.Counter
	Splits         metrics.Counter
	PageLoads      metrics.Counter // read-misses served from the log store
	PageEvictions  metrics.Counter
	PageFlushes    metrics.Counter
	DeltaFlushes   metrics.Counter
	// Retry meters the transient-fault retry budget spent on page I/O.
	Retry metrics.RetryStats
	// Health latches degraded (read-only) after a persistent flush failure.
	Health metrics.Health
}

// Tree is a latch-free Bw-tree. All methods are safe for concurrent use.
type Tree struct {
	cfg    Config
	table  *mapping.Table[pageHeader]
	root   mapping.PID
	stats  Stats
	mem    atomic.Int64 // approximate main-memory footprint in bytes
	closed atomic.Bool

	metaMu   sync.Mutex
	metaAddr logstore.Address // latest checkpoint metadata record
}

// New creates an empty tree.
func New(cfg Config) (*Tree, error) {
	cfg.setDefaults()
	t := &Tree{cfg: cfg, table: mapping.New[pageHeader](0)}
	rootPID, err := t.table.Allocate()
	if err != nil {
		return nil, err
	}
	t.root = rootPID
	base := &leafBase{}
	hdr := &pageHeader{head: base, memBytes: base.memSize(), isLeaf: true}
	t.table.Store(rootPID, hdr)
	t.mem.Store(int64(hdr.memBytes))
	return t, nil
}

// Stats returns the tree's counters.
func (t *Tree) Stats() *Stats { return &t.stats }

// FootprintBytes returns the approximate main-memory footprint of the tree
// (pages plus deltas currently cached). This is the quantity compared
// against MassTree's footprint to measure M_x (paper Section 5.1).
func (t *Tree) FootprintBytes() int64 { return t.mem.Load() }

// RootPID exposes the root page id (for experiments and debugging).
func (t *Tree) RootPID() mapping.PID { return t.root }

func (t *Tree) now() float64 {
	if t.cfg.Session == nil {
		return 0
	}
	return t.cfg.Session.Clock().Now()
}

// header returns the current mapping entry for pid.
func (t *Tree) header(pid mapping.PID, ch *sim.Charger) *pageHeader {
	ch.Chase(2) // mapping-table slot, then the header it points at
	h := t.table.Get(pid)
	if h == nil {
		panic(fmt.Sprintf("bwtree: dangling PID %d", pid))
	}
	return h
}

// install CASes a new header, adjusting the footprint gauge.
func (t *Tree) install(pid mapping.PID, old, next *pageHeader) bool {
	if t.table.CompareAndSwap(pid, old, next) {
		t.mem.Add(int64(next.memBytes - old.memBytes))
		return true
	}
	return false
}

// covers reports whether the page's key range includes key.
func (h *pageHeader) covers(key []byte) bool {
	return h.highKey == nil || bytes.Compare(key, h.highKey) < 0
}

// descend walks from the root to the leaf page responsible for key,
// following B-link side pointers at every level. It returns the leaf PID,
// its current header, and the PID of the index page it was reached from
// (NilPID when the root is the leaf).
func (t *Tree) descend(key []byte, ch *sim.Charger) (mapping.PID, *pageHeader, mapping.PID, error) {
	pid := t.root
	parent := mapping.NilPID
	for depth := 0; ; depth++ {
		if depth > 128 {
			return 0, nil, 0, errors.New("bwtree: descent too deep (corrupt structure)")
		}
		hdr := t.header(pid, ch)
		// B-link: if the key is beyond this page's range, go right. This
		// handles splits whose parent update has not completed.
		if !hdr.covers(key) {
			ch.Compare(1)
			pid = hdr.right
			continue
		}
		if hdr.isLeaf {
			return pid, hdr, parent, nil
		}
		idx, ok := hdr.head.(*indexBase)
		if !ok {
			return 0, nil, 0, fmt.Errorf("bwtree: index page %d has non-index head %T", pid, hdr.head)
		}
		i := sort.Search(len(idx.keys), func(i int) bool {
			return bytes.Compare(key, idx.keys[i]) < 0
		})
		ch.Compare(log2ceil(len(idx.keys)))
		parent = pid
		pid = idx.children[i]
	}
}

func log2ceil(n int) int {
	c := 0
	for v := 1; v < n; v <<= 1 {
		c++
	}
	if c == 0 {
		c = 1
	}
	return c
}

// needLoad signals that the chain bottoms out in an unloaded diskRef and
// the delta chain did not decide the lookup.
type needLoad struct{ ref *diskRef }

func (e *needLoad) Error() string { return "bwtree: page not in memory" }

// chainSearch looks up key in a leaf chain, walking deltas first.
func (t *Tree) chainSearch(hdr *pageHeader, key []byte, ch *sim.Charger) ([]byte, bool, error) {
	n := hdr.head
	for {
		switch v := n.(type) {
		case *insertDelta:
			ch.Compare(1)
			ch.Chase(1)
			if bytes.Equal(v.key, key) {
				return v.val, true, nil
			}
			n = v.next
		case *deleteDelta:
			ch.Compare(1)
			ch.Chase(1)
			if bytes.Equal(v.key, key) {
				return nil, false, nil
			}
			n = v.next
		case *leafBase:
			i := sort.Search(len(v.keys), func(i int) bool {
				return bytes.Compare(v.keys[i], key) >= 0
			})
			ch.Compare(log2ceil(len(v.keys)))
			if i < len(v.keys) && bytes.Equal(v.keys[i], key) {
				return v.vals[i], true, nil
			}
			return nil, false, nil
		case *diskRef:
			return nil, false, &needLoad{ref: v}
		default:
			return nil, false, fmt.Errorf("bwtree: unexpected chain node %T", n)
		}
	}
}

// Get returns the value for key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	return t.get(key, t.cfg.Session.Begin())
}

// GetCtx is Get bounded by ctx: page loads from the log store (and their
// retry backoffs) abort promptly once ctx is cancelled or past deadline.
func (t *Tree) GetCtx(ctx context.Context, key []byte) ([]byte, bool, error) {
	return t.get(key, t.cfg.Session.Begin().WithContext(ctx))
}

func (t *Tree) get(key []byte, ch *sim.Charger) ([]byte, bool, error) {
	sp := t.cfg.Obs.Start(obs.OpGet)
	if t.closed.Load() {
		ch.Abandon()
		sp.End(ErrClosed)
		return nil, false, ErrClosed
	}
	for {
		if err := ch.Err(); err != nil {
			ch.Abandon()
			sp.End(err)
			return nil, false, err
		}
		leaf, hdr, _, err := t.descend(key, ch)
		if err != nil {
			ch.Abandon()
			sp.End(err)
			return nil, false, err
		}
		t.touch(leaf, hdr)
		val, found, serr := t.chainSearch(hdr, key, ch)
		if serr == nil {
			if found {
				ch.Copy(len(val))
			}
			ch.Settle()
			sp.End(nil)
			return val, found, nil
		}
		var nl *needLoad
		if errors.As(serr, &nl) {
			sp.Miss() // the delta chain bottomed out in a flushed page
			if err := t.loadPage(leaf, nl.ref, ch); err != nil {
				ch.Abandon()
				sp.End(err)
				return nil, false, err
			}
			continue // retry with the loaded page
		}
		ch.Abandon()
		sp.End(serr)
		return nil, false, serr
	}
}

// touch records an access time for eviction policies. It is best-effort:
// a failed CAS (concurrent writer) is simply skipped — last-access times
// are advisory.
func (t *Tree) touch(pid mapping.PID, hdr *pageHeader) {
	if t.cfg.Session == nil {
		return
	}
	now := t.now()
	if now <= hdr.lastAccess {
		return
	}
	nh := *hdr
	nh.lastAccess = now
	t.install(pid, hdr, &nh)
}

// LastAccess returns the virtual-time of the page's last access.
func (t *Tree) LastAccess(pid mapping.PID) float64 {
	return t.header(pid, nil).lastAccess
}

// Close marks the tree closed.
func (t *Tree) Close() error {
	t.closed.Store(true)
	return nil
}
