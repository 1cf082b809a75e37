package masstree

import (
	"bytes"
	"context"
	"sort"

	"costperf/internal/obs"
	"costperf/internal/sim"
)

// Scan visits key/value pairs in ascending byte order starting at start
// (inclusive), calling fn until it returns false or limit pairs have been
// visited (limit <= 0 means unlimited). The scan holds a shared lock, so
// it observes a consistent snapshot.
func (t *Tree) Scan(start []byte, limit int, fn func(key, val []byte) bool) {
	sp := t.obs.Begin(obs.OpScan, t.session, context.TODO())
	defer sp.End(nil)
	t.mu.RLock()
	visited := 0
	t.top.scan(nil, start, limit, &visited, fn, sp.Charger())
	t.mu.RUnlock()
}

// scan walks the layer in order. prefix is the key bytes consumed by outer
// layers; start is the remaining lower bound within this layer (nil = from
// the beginning).
func (l *layer) scan(prefix, start []byte, limit int, visited *int, fn func(k, v []byte) bool, ch *sim.Charger) bool {
	var startSK slicedKey
	if len(start) > 0 {
		startSK, _ = cut(start)
	}
	return scanNode(l.root, prefix, start, startSK, limit, visited, fn, ch)
}

func scanNode(n node, prefix, start []byte, startSK slicedKey, limit int, visited *int, fn func(k, v []byte) bool, ch *sim.Charger) bool {
	switch v := n.(type) {
	case *interior:
		i := 0
		if len(start) > 0 {
			i = sort.Search(len(v.keys), func(i int) bool { return startSK.less(v.keys[i]) })
			ch.Compare(4)
		}
		for ; i < len(v.children); i++ {
			ch.Chase(1)
			if !scanNode(v.children[i], prefix, start, startSK, limit, visited, fn, ch) {
				return false
			}
		}
		return true
	case *border:
		for i := range v.entries {
			e := &v.entries[i]
			if len(start) > 0 && e.key.less(startSK) {
				continue // strictly before the bound's slice
			}
			sliceBytes := sliceToBytes(e.key)
			if e.link != nil {
				// Keys below share prefix+sliceBytes. Propagate the
				// remaining bound only when the bound lies inside this
				// exact slice.
				var sub []byte
				if len(start) > 0 && e.key.equal(startSK) {
					_, sub = cut(start)
				}
				if !e.link.scan(append(append([]byte(nil), prefix...), sliceBytes...), sub, limit, visited, fn, ch) {
					return false
				}
				continue
			}
			full := make([]byte, 0, len(prefix)+len(sliceBytes)+len(e.suffix))
			full = append(full, prefix...)
			full = append(full, sliceBytes...)
			full = append(full, e.suffix...)
			if len(start) > 0 && e.key.equal(startSK) && bytes.Compare(fullSuffix(e), start) < 0 {
				continue // same slice but below the bound
			}
			if limit > 0 && *visited >= limit {
				return false
			}
			if !fn(full, e.val) {
				return false
			}
			*visited++
			if limit > 0 && *visited >= limit {
				return false
			}
		}
		return true
	}
	return true
}

// fullSuffix reconstructs the key bytes from this layer downward for an
// in-slice bound comparison.
func fullSuffix(e *entry) []byte {
	sb := sliceToBytes(e.key)
	out := make([]byte, 0, len(sb)+len(e.suffix))
	out = append(out, sb...)
	out = append(out, e.suffix...)
	return out
}

// sliceToBytes converts a slicedKey back to its original bytes.
func sliceToBytes(sk slicedKey) []byte {
	var buf [8]byte
	buf[0] = byte(sk.slice >> 56)
	buf[1] = byte(sk.slice >> 48)
	buf[2] = byte(sk.slice >> 40)
	buf[3] = byte(sk.slice >> 32)
	buf[4] = byte(sk.slice >> 24)
	buf[5] = byte(sk.slice >> 16)
	buf[6] = byte(sk.slice >> 8)
	buf[7] = byte(sk.slice)
	return buf[:sk.length]
}
