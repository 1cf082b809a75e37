package tc

import (
	"bytes"
	"sort"

	"costperf/internal/obs"
)

// Scanner is the optional range-scan capability of a data component.
// The Bw-tree implements it.
type Scanner interface {
	Scan(start []byte, limit int, fn func(key, val []byte) bool) error
}

// Scan visits key/value pairs visible at the transaction's snapshot in
// ascending key order from start, until fn returns false or limit pairs
// have been visited (limit <= 0 means unlimited). It requires the data
// component to implement Scanner.
//
// The scan merges three sources, newest first: the transaction's own
// writes, the MVCC version store filtered to the snapshot, and the data
// component. Visibility follows Read's rule: a key with a version visible
// to the snapshot takes it, and any other key takes the DC's value.
func (t *Tx) Scan(start []byte, limit int, fn func(key, val []byte) bool) (err error) {
	if t.done {
		return ErrTxDone
	}
	sp := t.tc.cfg.Obs.Start(obs.OpScan)
	defer func() { sp.End(err) }()
	sc, ok := t.tc.cfg.DC.(Scanner)
	if !ok {
		return ErrNoScan
	}
	// Collect the overlay: own writes + visible versions, with own writes
	// winning.
	type overlayEntry struct {
		val     []byte
		deleted bool
	}
	overlay := map[string]overlayEntry{}
	t.tc.mu.Lock()
	for k, kv := range t.tc.mvcc {
		if bytes.Compare([]byte(k), start) < 0 {
			continue
		}
		if v, ok := kv.visible(t.beginTS); ok {
			overlay[k] = overlayEntry{val: v.val, deleted: v.isDelete}
		}
	}
	t.tc.mu.Unlock()
	for k, w := range t.writes {
		if bytes.Compare([]byte(k), start) < 0 {
			continue
		}
		overlay[k] = overlayEntry{val: w.val, deleted: w.isDelete}
	}

	// Sorted overlay keys for the merge.
	keys := make([]string, 0, len(overlay))
	for k := range overlay {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	visited := 0
	emit := func(k, v []byte) bool {
		if limit > 0 && visited >= limit {
			return false
		}
		if !fn(k, v) {
			return false
		}
		visited++
		return !(limit > 0 && visited >= limit)
	}
	oi := 0
	cont := true
	err = sc.Scan(start, 0, func(dk, dv []byte) bool {
		// Emit overlay keys strictly before the DC key.
		for oi < len(keys) && keys[oi] < string(dk) {
			e := overlay[keys[oi]]
			if !e.deleted {
				if !emit([]byte(keys[oi]), e.val) {
					cont = false
					return false
				}
			}
			oi++
		}
		// Same key: the overlay wins.
		if oi < len(keys) && keys[oi] == string(dk) {
			e := overlay[keys[oi]]
			oi++
			if e.deleted {
				return true
			}
			if !emit(dk, e.val) {
				cont = false
				return false
			}
			return true
		}
		if !emit(dk, dv) {
			cont = false
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	// Drain overlay keys beyond the DC's last key.
	for cont && oi < len(keys) {
		e := overlay[keys[oi]]
		if !e.deleted {
			if !emit([]byte(keys[oi]), e.val) {
				break
			}
		}
		oi++
	}
	return nil
}
