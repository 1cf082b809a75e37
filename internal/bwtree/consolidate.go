package bwtree

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"costperf/internal/llama/logstore"
	"costperf/internal/llama/mapping"
	"costperf/internal/sim"
)

// errRetryConsolidate signals a benign CAS race during consolidation; the
// state it wanted to replace is gone and the work is unnecessary.
var errRetryConsolidate = errors.New("bwtree: consolidation raced")

// overlay is the net effect of a delta chain: newest-wins per key.
type overlay struct {
	keys    [][]byte
	vals    [][]byte // nil value slot means deleted
	deleted []bool
}

// collectDeltas walks the chain and produces a newest-wins overlay plus
// the chain's terminal node.
func collectDeltas(head node, ch *sim.Charger) (map[string]*struct {
	val     []byte
	deleted bool
}, node) {
	seen := make(map[string]*struct {
		val     []byte
		deleted bool
	})
	n := head
	for {
		switch v := n.(type) {
		case *insertDelta:
			ch.Chase(1)
			if _, ok := seen[string(v.key)]; !ok {
				seen[string(v.key)] = &struct {
					val     []byte
					deleted bool
				}{val: v.val}
			}
			n = v.next
		case *deleteDelta:
			ch.Chase(1)
			if _, ok := seen[string(v.key)]; !ok {
				seen[string(v.key)] = &struct {
					val     []byte
					deleted bool
				}{deleted: true}
			}
			n = v.next
		default:
			return seen, n
		}
	}
}

// applyOverlay merges a base page with a delta overlay into fresh sorted
// key/value slices. Keys outside [nil, highKey) are dropped (they belong
// to a right sibling after a split).
func applyOverlay(base *leafBase, ov map[string]*struct {
	val     []byte
	deleted bool
}, highKey []byte, ch *sim.Charger) ([][]byte, [][]byte) {
	keys := make([][]byte, 0, len(base.keys)+len(ov))
	vals := make([][]byte, 0, len(base.keys)+len(ov))
	inRange := func(k []byte) bool {
		return highKey == nil || bytes.Compare(k, highKey) < 0
	}
	for i := range base.keys {
		k := base.keys[i]
		if !inRange(k) {
			continue
		}
		if e, ok := ov[string(k)]; ok {
			if !e.deleted {
				keys = append(keys, k)
				vals = append(vals, e.val)
			}
			delete(ov, string(k))
			continue
		}
		keys = append(keys, k)
		vals = append(vals, base.vals[i])
	}
	// Remaining overlay entries are new keys.
	extra := make([]string, 0, len(ov))
	for k, e := range ov {
		if !e.deleted && inRange([]byte(k)) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		merged := make([][]byte, 0, len(keys)+len(extra))
		mergedV := make([][]byte, 0, len(keys)+len(extra))
		i := 0
		for _, ks := range extra {
			k := []byte(ks)
			for i < len(keys) && bytes.Compare(keys[i], k) < 0 {
				merged = append(merged, keys[i])
				mergedV = append(mergedV, vals[i])
				i++
			}
			merged = append(merged, k)
			mergedV = append(mergedV, ov[ks].val)
		}
		merged = append(merged, keys[i:]...)
		mergedV = append(mergedV, vals[i:]...)
		keys, vals = merged, mergedV
	}
	ch.Compare(len(keys))
	return keys, vals
}

// consolidate rebuilds pid's leaf as a single base page, splitting it if
// the result exceeds MaxPageBytes. It retries internal CAS races a few
// times and returns errRetryConsolidate if the page keeps changing (the
// next writer will consolidate).
func (t *Tree) consolidate(pid mapping.PID, ch *sim.Charger) error {
	for attempt := 0; attempt < 4; attempt++ {
		hdr := t.header(pid, ch)
		if !hdr.isLeaf {
			return nil
		}
		if hdr.chainLen == 0 {
			if base, ok := hdr.head.(*leafBase); ok && base.memSize() > t.cfg.MaxPageBytes && len(base.keys) > 1 {
				if err := t.split(pid, hdr, base, ch); err != nil {
					if errors.Is(err, errRetryConsolidate) {
						continue
					}
					return err
				}
			}
			abandonMaint(t, ch)
			return nil
		}
		ov, bottom := collectDeltas(hdr.head, ch)
		base, ok := bottom.(*leafBase)
		if !ok {
			// Base is on secondary storage: load it first, then retry.
			ref := bottom.(*diskRef)
			if err := t.loadPage(pid, ref, ch); err != nil {
				return err
			}
			continue
		}
		keys, vals := applyOverlay(base, ov, hdr.highKey, ch)
		nb := &leafBase{keys: keys, vals: vals, highKey: hdr.highKey, right: hdr.right}
		nh := &pageHeader{
			head:       nb,
			highKey:    hdr.highKey,
			right:      hdr.right,
			addr:       hdr.addr,
			diskChain:  hdr.diskChain,
			dirtyBase:  true,
			memBytes:   nb.memSize(),
			lastAccess: hdr.lastAccess,
			isLeaf:     true,
		}
		if !t.install(pid, hdr, nh) {
			continue
		}
		t.stats.Consolidations.Inc()
		if nb.memSize() > t.cfg.MaxPageBytes && len(nb.keys) > 1 {
			if err := t.split(pid, nh, nb, ch); err != nil && !errors.Is(err, errRetryConsolidate) {
				return err
			}
		}
		abandonMaint(t, ch)
		return nil
	}
	abandonMaint(t, ch)
	return errRetryConsolidate
}

// abandonMaint settles maintenance cost as background SS-class work is not
// an operation; we fold it into the tracker as extra cost on the class the
// charger reached.
func abandonMaint(t *Tree, ch *sim.Charger) {
	if ch == nil {
		return
	}
	t.cfg.Session.Tracker().AddCost(ch.Class(), ch.Cost())
	ch.Abandon()
}

// split divides a consolidated leaf in two (B-link style): the left half
// keeps the PID, the right half gets a new PID reachable through the
// left's side pointer, and the parent gains an index entry. Readers never
// block: until the parent is updated they reach the right half through the
// side pointer.
func (t *Tree) split(pid mapping.PID, hdr *pageHeader, base *leafBase, ch *sim.Charger) error {
	mid := splitPoint(base)
	sep := base.keys[mid]
	rightPID, err := t.table.Allocate()
	if err != nil {
		return err
	}
	rb := &leafBase{
		keys:    append([][]byte(nil), base.keys[mid:]...),
		vals:    append([][]byte(nil), base.vals[mid:]...),
		highKey: hdr.highKey,
		right:   hdr.right,
	}
	rh := &pageHeader{
		head: rb, highKey: hdr.highKey, right: hdr.right,
		dirtyBase: true, memBytes: rb.memSize(), lastAccess: hdr.lastAccess, isLeaf: true,
	}
	t.table.Store(rightPID, rh)

	lb := &leafBase{
		keys:    append([][]byte(nil), base.keys[:mid]...),
		vals:    append([][]byte(nil), base.vals[:mid]...),
		highKey: sep,
		right:   rightPID,
	}
	lh := &pageHeader{
		head: lb, highKey: sep, right: rightPID,
		addr: hdr.addr, dirtyBase: true, memBytes: lb.memSize(), lastAccess: hdr.lastAccess, isLeaf: true,
	}
	if !t.install(pid, hdr, lh) {
		t.table.Free(rightPID)
		return errRetryConsolidate
	}
	t.mem.Add(int64(rh.memBytes))
	t.stats.Splits.Inc()
	return t.insertIndexEntry(0, lb.keys[0], sep, rightPID, ch)
}

// splitPoint picks the index where the page's bytes divide roughly in half.
func splitPoint(base *leafBase) int {
	total := 0
	for i := range base.keys {
		total += bytesKV(base.keys[i], base.vals[i])
	}
	acc := 0
	for i := range base.keys {
		acc += bytesKV(base.keys[i], base.vals[i])
		if acc >= total/2 && i+1 < len(base.keys) {
			return i + 1
		}
	}
	return len(base.keys) / 2
}

// insertIndexEntry completes a split: it installs (sep -> rightPID) into
// the index page one level above the split page whose key range covers
// sep, growing the tree at the root if necessary. routeKey is any key
// inside the left half's range; it routes the descent to the correct
// subtree. childLevel is the split page's level (leaf = 0).
func (t *Tree) insertIndexEntry(childLevel int, routeKey, sep []byte, rightPID mapping.PID, ch *sim.Charger) error {
	targetLevel := childLevel + 1
	for attempt := 0; ; attempt++ {
		if attempt > 1<<16 {
			return errors.New("bwtree: SMO completion live-locked")
		}
		if attempt > 0 {
			runtime.Gosched()
		}
		rhdr := t.header(t.root, ch)
		if rhdr.level < targetLevel {
			// The tree is not tall enough yet: the root itself is a page
			// with a pending split. Grow it if that split is ours;
			// otherwise wait for the owning SMO to grow it.
			done, err := t.growRoot(sep, rightPID, ch)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			continue
		}
		// Descend to the index page at targetLevel whose range covers
		// routeKey, following side pointers at every level.
		pid, hdr := t.root, rhdr
		ok := true
		for hdr.level > targetLevel {
			for !hdr.covers(routeKey) {
				pid = hdr.right
				hdr = t.header(pid, ch)
			}
			idx, isIdx := hdr.head.(*indexBase)
			if !isIdx {
				ok = false
				break
			}
			i := sort.Search(len(idx.keys), func(i int) bool {
				return bytes.Compare(routeKey, idx.keys[i]) < 0
			})
			pid = idx.children[i]
			hdr = t.header(pid, ch)
		}
		if !ok || hdr.level != targetLevel {
			continue
		}
		// B-link fixup: the entry belongs in the index page covering sep,
		// which may be to the right of the one covering routeKey.
		for !hdr.covers(sep) {
			pid = hdr.right
			hdr = t.header(pid, ch)
		}
		if hdr.level != targetLevel {
			continue
		}
		idx, isIdx := hdr.head.(*indexBase)
		if !isIdx {
			continue
		}
		i := sort.Search(len(idx.keys), func(i int) bool {
			return bytes.Compare(sep, idx.keys[i]) < 0
		})
		// Idempotence: already installed?
		if i > 0 && bytes.Equal(idx.keys[i-1], sep) {
			return nil
		}
		nk := make([][]byte, 0, len(idx.keys)+1)
		nk = append(nk, idx.keys[:i]...)
		nk = append(nk, sep)
		nk = append(nk, idx.keys[i:]...)
		nc := make([]mapping.PID, 0, len(idx.children)+1)
		nc = append(nc, idx.children[:i+1]...)
		nc = append(nc, rightPID)
		nc = append(nc, idx.children[i+1:]...)
		ni := &indexBase{keys: nk, children: nc, highKey: idx.highKey, right: idx.right}
		nh := &pageHeader{
			head: ni, highKey: hdr.highKey, right: hdr.right,
			addr: hdr.addr, diskChain: hdr.diskChain, dirtyBase: true,
			memBytes: ni.memSize(), lastAccess: hdr.lastAccess,
			isLeaf: false, level: hdr.level,
		}
		if !t.install(pid, hdr, nh) {
			continue
		}
		if ni.memSize() > t.cfg.MaxPageBytes && len(ni.keys) > 2 {
			if err := t.splitIndex(pid, ch); err != nil && !errors.Is(err, errRetryConsolidate) {
				return err
			}
		}
		return nil
	}
}

// growRoot replaces a splitting root page (leaf or index) with a new index
// root over {old content moved to a fresh PID, right sibling}. It returns
// true when the (sep, rightPID) split has been anchored.
func (t *Tree) growRoot(sep []byte, rightPID mapping.PID, ch *sim.Charger) (bool, error) {
	rootPID := t.root
	hdr := t.header(rootPID, ch)
	// Only the SMO whose split produced the root's current side link may
	// grow it; other SMOs wait for it.
	if hdr.right != rightPID || !bytes.Equal(hdr.highKey, sep) {
		return false, nil
	}
	// The moved half must be memory-resident so it can re-flush under its
	// new PID; load it if a concurrent evictor raced us.
	if ref, ok := chainBottom(hdr.head).(*diskRef); ok {
		if err := t.loadPage(rootPID, ref, ch); err != nil {
			return false, err
		}
		return false, nil // retry with the loaded state
	}
	leftPID, err := t.table.Allocate()
	if err != nil {
		return false, err
	}
	lh := *hdr // copy of the split left half, now living at leftPID
	// The moved page's durable records carry the root's PID; it must
	// re-flush under its new identity.
	oldChain := lh.diskChain
	lh.addr = logstore.Address{}
	lh.diskChain = nil
	lh.dirtyBase = true
	t.table.Store(leftPID, &lh)
	t.mem.Add(int64(lh.memBytes))

	ni := &indexBase{keys: [][]byte{sep}, children: []mapping.PID{leftPID, rightPID}}
	nh := &pageHeader{head: ni, memBytes: ni.memSize(), lastAccess: hdr.lastAccess,
		isLeaf: false, level: hdr.level + 1}
	if !t.install(rootPID, hdr, nh) {
		t.mem.Add(-int64(lh.memBytes))
		t.table.Free(leftPID)
		return false, nil // retry
	}
	// The old root-PID records no longer describe any page state.
	if t.cfg.Store != nil {
		for _, a := range oldChain {
			t.cfg.Store.Invalidate(a)
		}
	}
	return true, nil
}

// splitIndex splits an oversized index page, B-link style, and recurses
// into the parent.
func (t *Tree) splitIndex(pid mapping.PID, ch *sim.Charger) error {
	hdr := t.header(pid, ch)
	idx, ok := hdr.head.(*indexBase)
	if !ok || len(idx.keys) < 3 {
		return nil
	}
	m := len(idx.keys) / 2
	sep := idx.keys[m]
	rightPID, err := t.table.Allocate()
	if err != nil {
		return err
	}
	ri := &indexBase{
		keys:     append([][]byte(nil), idx.keys[m+1:]...),
		children: append([]mapping.PID(nil), idx.children[m+1:]...),
		highKey:  idx.highKey,
		right:    idx.right,
	}
	rh := &pageHeader{head: ri, highKey: hdr.highKey, right: hdr.right,
		memBytes: ri.memSize(), lastAccess: hdr.lastAccess, isLeaf: false, level: hdr.level}
	t.table.Store(rightPID, rh)

	li := &indexBase{
		keys:     append([][]byte(nil), idx.keys[:m]...),
		children: append([]mapping.PID(nil), idx.children[:m+1]...),
		highKey:  sep,
		right:    rightPID,
	}
	lh := &pageHeader{head: li, highKey: sep, right: rightPID,
		addr: hdr.addr, diskChain: hdr.diskChain, dirtyBase: true,
		memBytes: li.memSize(), lastAccess: hdr.lastAccess, isLeaf: false, level: hdr.level}
	if !t.install(pid, hdr, lh) {
		t.table.Free(rightPID)
		return errRetryConsolidate
	}
	t.mem.Add(int64(rh.memBytes))
	t.stats.Splits.Inc()
	return t.insertIndexEntry(hdr.level, li.keys[0], sep, rightPID, ch)
}

// Consolidate forces consolidation of the leaf owning key — exposed for
// tests and experiments.
func (t *Tree) Consolidate(key []byte) error {
	ch := t.cfg.Session.Begin()
	leaf, _, _, err := t.descend(key, ch)
	if err != nil {
		abandonMaint(t, ch)
		return err
	}
	err = t.consolidate(leaf, ch)
	if errors.Is(err, errRetryConsolidate) {
		return nil
	}
	return err
}

var _ = fmt.Sprintf // keep fmt import if unused later
