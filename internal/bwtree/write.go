package bwtree

import (
	"context"
	"errors"

	"costperf/internal/obs"
	"costperf/internal/sim"
)

// Insert upserts key -> val by prepending an insert delta to the owning
// leaf's chain with a single CAS — the Bw-tree's latch-free update.
func (t *Tree) Insert(key, val []byte) error {
	return t.write(key, val, false, false, t.cfg.Session.Begin())
}

// InsertCtx is Insert bounded by ctx.
func (t *Tree) InsertCtx(ctx context.Context, key, val []byte) error {
	return t.write(key, val, false, false, t.cfg.Session.Begin().WithContext(ctx))
}

// Delete removes key (idempotent: deleting an absent key succeeds).
func (t *Tree) Delete(key []byte) error {
	return t.write(key, nil, true, false, t.cfg.Session.Begin())
}

// DeleteCtx is Delete bounded by ctx.
func (t *Tree) DeleteCtx(ctx context.Context, key []byte) error {
	return t.write(key, nil, true, false, t.cfg.Session.Begin().WithContext(ctx))
}

// BlindWrite upserts key -> val without requiring the leaf's base page to
// be in main memory (paper Section 6.2): if the base is evicted, the delta
// is prepended above the diskRef and no read I/O occurs.
func (t *Tree) BlindWrite(key, val []byte) error {
	return t.write(key, val, false, true, t.cfg.Session.Begin())
}

// BlindWriteCtx is BlindWrite bounded by ctx.
func (t *Tree) BlindWriteCtx(ctx context.Context, key, val []byte) error {
	return t.write(key, val, false, true, t.cfg.Session.Begin().WithContext(ctx))
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (t *Tree) write(key, val []byte, isDelete, blind bool, ch *sim.Charger) (err error) {
	op := obs.OpPut
	if isDelete {
		op = obs.OpDelete
	}
	sp := t.cfg.Obs.Start(op)
	defer func() { sp.End(err) }()
	if t.closed.Load() {
		ch.Abandon()
		return ErrClosed
	}
	key = cloneBytes(key)
	val = cloneBytes(val)
	for attempt := 0; ; attempt++ {
		if attempt > 1<<16 {
			ch.Abandon()
			return errors.New("bwtree: write live-locked")
		}
		if err := ch.Err(); err != nil {
			ch.Abandon() // cancelled before the delta was installed
			return err
		}
		leaf, hdr, parent, err := t.descend(key, ch)
		if err != nil {
			ch.Abandon()
			return err
		}
		// A non-blind write of a fully evicted page is still prepended as a
		// delta (every Bw-tree update is a delta), but we count it as an MM
		// operation only if no I/O happened; nothing here reads the base.
		var delta node
		var deltaBytes int
		if isDelete {
			delta = &deleteDelta{key: key, next: hdr.head}
			deltaBytes = len(key) + sliceOverhead + nodeOverhead
		} else {
			delta = &insertDelta{key: key, val: val, next: hdr.head}
			deltaBytes = bytesKV(key, val) + nodeOverhead
		}
		nh := *hdr
		nh.head = delta
		nh.chainLen = hdr.chainLen + 1
		nh.unflushed = hdr.unflushed + 1
		nh.memBytes = hdr.memBytes + deltaBytes
		nh.lastAccess = t.now()
		ch.Copy(len(key) + len(val))
		if !t.install(leaf, hdr, &nh) {
			continue // chain changed under us; retry
		}
		ch.Settle()
		// Maintenance outside the charged operation: consolidate long
		// chains (and split oversized pages). Blind writes skip
		// consolidation when the base is not resident — that is the whole
		// point of a blind update.
		if nh.chainLen >= t.cfg.ConsolidateAfter {
			mch := t.cfg.Session.Begin()
			if _, isDisk := chainBottom(nh.head).(*diskRef); !isDisk || !blind {
				if err := t.consolidate(leaf, mch); err != nil && !errors.Is(err, errRetryConsolidate) {
					return err
				}
			}
			_ = parent
		}
		return nil
	}
}

// chainBottom returns the terminal node of a delta chain (a base page or
// a diskRef).
func chainBottom(n node) node {
	for {
		switch v := n.(type) {
		case *insertDelta:
			n = v.next
		case *deleteDelta:
			n = v.next
		default:
			return n
		}
	}
}
