package bwtree

import (
	"bytes"
	"context"
	"errors"
	"sort"

	"costperf/internal/llama/mapping"
	"costperf/internal/obs"
	"costperf/internal/sim"
)

// Scan visits key/value pairs in ascending key order starting at start
// (inclusive), calling fn for each until fn returns false or limit pairs
// have been visited (limit <= 0 means unlimited). The visited view of each
// page is a consistent snapshot (delta chain applied); across pages the
// scan is weakly consistent, like Bw-tree scans generally.
func (t *Tree) Scan(start []byte, limit int, fn func(key, val []byte) bool) error {
	return t.ScanCtx(context.TODO(), start, limit, fn)
}

// ScanCtx is Scan bounded by ctx: the context is checked between pages, so
// a cancelled long scan stops loading evicted pages promptly.
func (t *Tree) ScanCtx(ctx context.Context, start []byte, limit int, fn func(key, val []byte) bool) (err error) {
	sp := t.cfg.Obs.Begin(obs.OpScan, t.cfg.Session, ctx)
	defer func() { sp.End(err) }()
	if t.closed.Load() {
		return ErrClosed
	}
	ch := sp.IO() // any page on the way may have to be loaded

	visited := 0
	cur := start
	for {
		if err := ch.Err(); err != nil {
			return err
		}
		leaf, hdr, _, err := t.descend(cur, ch)
		if err != nil {
			return err
		}
		keys, vals, highKey, err := t.pageView(leaf, hdr, ch)
		if err != nil {
			return err
		}
		i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], cur) >= 0 })
		ch.Compare(log2ceil(len(keys)))
		for ; i < len(keys); i++ {
			if limit > 0 && visited >= limit {
				return nil
			}
			if !fn(keys[i], vals[i]) {
				return nil
			}
			visited++
		}
		if limit > 0 && visited >= limit {
			return nil
		}
		if highKey == nil {
			return nil // rightmost page
		}
		cur = highKey // continue at the next page's key range
	}
}

// pageView materializes the consolidated view of a leaf (loading it from
// the log store if evicted) without installing anything, and returns the
// page's exclusive upper bound for scan continuation.
func (t *Tree) pageView(pid mapping.PID, hdr *pageHeader, ch *sim.Charger) ([][]byte, [][]byte, []byte, error) {
	for {
		ov, bottom := collectDeltas(hdr.head, ch)
		base, ok := bottom.(*leafBase)
		if !ok {
			ref, isRef := bottom.(*diskRef)
			if !isRef {
				return nil, nil, nil, errors.New("bwtree: malformed leaf chain")
			}
			if err := t.loadPage(pid, ref, ch); err != nil {
				return nil, nil, nil, err
			}
			hdr = t.header(pid, ch)
			continue
		}
		keys, vals := applyOverlay(base, ov, hdr.highKey, ch)
		return keys, vals, hdr.highKey, nil
	}
}

// Len counts the live keys in the tree by scanning — O(n), intended for
// tests and experiments.
func (t *Tree) Len() (int, error) {
	n := 0
	err := t.Scan(nil, 0, func(_, _ []byte) bool {
		n++
		return true
	})
	return n, err
}

// Utilization returns the average fill of consolidated leaf pages relative
// to MaxPageBytes — the quantity behind the paper's page-size model
// (Section 4.1: B-tree ~70%, Bw-tree ~100% of variable-size pages).
func (t *Tree) Utilization() float64 {
	var used, pages int64
	t.table.Range(func(_ mapping.PID, hdr *pageHeader) bool {
		if hdr == nil || !hdr.isLeaf {
			return true
		}
		if base, ok := chainBottom(hdr.head).(*leafBase); ok && len(base.keys) > 0 {
			used += int64(base.contentBytes())
			pages++
		}
		return true
	})
	if pages == 0 {
		return 0
	}
	return float64(used) / float64(pages) / float64(t.cfg.MaxPageBytes)
}

// AveragePageBytes returns the mean logical content size of leaf pages —
// the paper's P_s (≈2.7 KB for 4K max pages in their system).
func (t *Tree) AveragePageBytes() float64 {
	var used, pages int64
	t.table.Range(func(_ mapping.PID, hdr *pageHeader) bool {
		if hdr == nil || !hdr.isLeaf {
			return true
		}
		if base, ok := chainBottom(hdr.head).(*leafBase); ok && len(base.keys) > 0 {
			used += int64(base.contentBytes())
			pages++
		}
		return true
	})
	if pages == 0 {
		return 0
	}
	return float64(used) / float64(pages)
}

// Pages returns the PIDs of all leaf pages (for experiment harnesses that
// drive eviction policies).
func (t *Tree) Pages() []mapping.PID {
	var out []mapping.PID
	t.table.Range(func(pid mapping.PID, hdr *pageHeader) bool {
		if hdr != nil && hdr.isLeaf {
			out = append(out, pid)
		}
		return true
	})
	return out
}

// PageResident reports whether the leaf's base page is in main memory.
func (t *Tree) PageResident(pid mapping.PID) bool {
	hdr := t.header(pid, nil)
	_, isRef := chainBottom(hdr.head).(*diskRef)
	return !isRef
}
