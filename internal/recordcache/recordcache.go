// Package recordcache implements record-granularity caches (paper Section
// 6.3). A record is typically a small fraction of its page — often under
// 10% — so caching records instead of pages shifts the breakeven interval
// T_i of Equation 6 by the same factor, widening the access-frequency
// range where main-memory operations are the cheaper choice.
//
// Ring is the read cache of Deuteronomy's transaction component (Figure
// 6): a log-structured cache. Records read from the data component are
// appended to a fixed-size ring; when the ring wraps, the oldest records
// are dropped. A hash index finds live records.
package recordcache

import (
	"container/list"
	"errors"
	"sync"

	"costperf/internal/metrics"
)

// Stats counts cache events.
type Stats struct {
	Evictions metrics.Counter
}

// Ring is a log-structured read cache: appends go to a rolling byte
// budget; the oldest entries fall off as new ones arrive. Safe for
// concurrent use.
type Ring struct {
	mu     sync.Mutex
	budget int64
	used   int64
	order  *list.List // front = oldest
	index  map[string]*list.Element
	stats  Stats
}

type ringEntry struct {
	key string
	val []byte
}

// NewRing creates a ring with the given byte budget.
func NewRing(budgetBytes int64) (*Ring, error) {
	if budgetBytes <= 0 {
		return nil, errors.New("recordcache: non-positive budget")
	}
	return &Ring{
		budget: budgetBytes,
		order:  list.New(),
		index:  make(map[string]*list.Element),
	}, nil
}

// Stats returns the cache's counters.
func (r *Ring) Stats() *Stats { return &r.stats }

// Add appends a record. An existing record for the key is superseded (the
// log-structured behaviour: the newest version wins; the stale one ages
// out with the ring).
func (r *Ring) Add(key, val []byte) {
	sz := int64(len(key) + len(val) + 64)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.index[string(key)]; ok {
		e := old.Value.(*ringEntry)
		r.used -= int64(len(e.key) + len(e.val) + 64)
		r.order.Remove(old)
	}
	el := r.order.PushBack(&ringEntry{key: string(key), val: append([]byte(nil), val...)})
	r.index[string(key)] = el
	r.used += sz
	for r.used > r.budget && r.order.Len() > 1 {
		front := r.order.Front()
		e := front.Value.(*ringEntry)
		r.order.Remove(front)
		delete(r.index, e.key)
		r.used -= int64(len(e.key) + len(e.val) + 64)
		r.stats.Evictions.Inc()
	}
}

// Get returns the cached record. Unlike an LRU, a hit does not promote
// the record (log-structured caches are FIFO by arrival).
func (r *Ring) Get(key []byte) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.index[string(key)]
	if !ok {
		return nil, false
	}
	return el.Value.(*ringEntry).val, true
}

// Invalidate removes a record (e.g. after an update elsewhere).
func (r *Ring) Invalidate(key []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.index[string(key)]; ok {
		e := el.Value.(*ringEntry)
		r.order.Remove(el)
		delete(r.index, e.key)
		r.used -= int64(len(e.key) + len(e.val) + 64)
	}
}

// Len returns the number of cached records.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order.Len()
}

// UsedBytes returns the current byte usage.
func (r *Ring) UsedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}
