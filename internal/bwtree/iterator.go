package bwtree

import (
	"bytes"
	"sort"
)

// Iterator is a pull-based cursor over the tree in ascending key order.
// It materializes one page view at a time (the consolidated snapshot of
// that page's delta chain) and steps through it; moving past a page's
// range follows the B-link side structure via a fresh descent, so
// iteration is weakly consistent across pages exactly like Scan.
//
// An Iterator is used by a single goroutine. Key and Value return slices
// owned by the underlying page snapshot; copy them to retain beyond the
// next call to Next.
type Iterator struct {
	t    *Tree
	keys [][]byte
	vals [][]byte
	high []byte // current page's exclusive upper bound (nil = rightmost)
	i    int
	err  error
	done bool
}

// NewIterator returns an iterator positioned before the first key >=
// start (nil starts at the beginning). Call Next to advance to the first
// entry.
func (t *Tree) NewIterator(start []byte) *Iterator {
	if t.closed.Load() {
		return &Iterator{t: t, err: ErrClosed, done: true}
	}
	it := &Iterator{t: t}
	it.seekPage(start)
	if it.err == nil {
		// Position before the first qualifying entry.
		it.i = sort.Search(len(it.keys), func(i int) bool {
			return bytes.Compare(it.keys[i], start) >= 0
		}) - 1
	}
	return it
}

// seekPage loads the page view owning key.
func (it *Iterator) seekPage(key []byte) {
	ch := it.t.cfg.Session.Begin()
	defer ch.Settle()
	leaf, hdr, _, err := it.t.descend(key, ch)
	if err != nil {
		it.err = err
		it.done = true
		return
	}
	keys, vals, high, err := it.t.pageView(leaf, hdr, ch)
	if err != nil {
		it.err = err
		it.done = true
		return
	}
	it.keys, it.vals, it.high = keys, vals, high
}

// Next advances to the next entry, returning false at the end of the tree
// or on error (check Err).
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	it.i++
	for it.i >= len(it.keys) {
		if it.high == nil {
			it.done = true
			return false
		}
		// Step into the next page's range.
		cont := it.high
		it.seekPage(cont)
		if it.err != nil {
			return false
		}
		it.i = sort.Search(len(it.keys), func(i int) bool {
			return bytes.Compare(it.keys[i], cont) >= 0
		})
	}
	return true
}

// Key returns the current entry's key (valid after a true Next).
func (it *Iterator) Key() []byte { return it.keys[it.i] }

// Value returns the current entry's value (valid after a true Next).
func (it *Iterator) Value() []byte { return it.vals[it.i] }

// Err returns the error that terminated iteration, if any.
func (it *Iterator) Err() error { return it.err }
