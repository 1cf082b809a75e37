package engine

import (
	"context"

	"costperf/internal/btree"
	"costperf/internal/bwtree"
	"costperf/internal/lsm"
	"costperf/internal/masstree"
	"costperf/internal/metrics"
	"costperf/internal/tc"
)

// Store is the uniform concurrent front-end every engine wraps: the five
// stores of the reproduction (Bw-tree/LLAMA, B-tree, MassTree, LSM, TC)
// differ in structure and durability story, but behind this interface they
// all take a context on every operation so deadlines and cancellation
// propagate down into device waits and retry loops.
type Store interface {
	// Get returns the value for key.
	Get(ctx context.Context, key []byte) ([]byte, bool, error)
	// Put upserts key -> val.
	Put(ctx context.Context, key, val []byte) error
	// Delete removes key (idempotent).
	Delete(ctx context.Context, key []byte) error
	// Scan visits live pairs with key >= start in order until fn returns
	// false or limit pairs are visited (limit <= 0 means unlimited).
	Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error
	// Health exposes the store's own latching health indicator, or nil for
	// stores that cannot degrade (pure main-memory structures).
	Health() *metrics.Health
	// Close releases the store.
	Close() error
}

// --- Bw-tree ---

type bwStore struct{ t *bwtree.Tree }

// WrapBwTree adapts a Bw-tree (with its LLAMA log store) to Store. Puts
// use blind writes: the paper's Section 6.2 update path that avoids read
// I/O when the base page is evicted.
func WrapBwTree(t *bwtree.Tree) Store { return &bwStore{t: t} }

func (s *bwStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return s.t.GetCtx(ctx, key)
}
func (s *bwStore) Put(ctx context.Context, key, val []byte) error {
	return s.t.BlindWriteCtx(ctx, key, val)
}
func (s *bwStore) Delete(ctx context.Context, key []byte) error {
	return s.t.DeleteCtx(ctx, key)
}
func (s *bwStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	return s.t.ScanCtx(ctx, start, limit, fn)
}
func (s *bwStore) Health() *metrics.Health { return &s.t.Stats().Health }
func (s *bwStore) Close() error            { return s.t.Close() }

// --- B-tree ---

type btStore struct{ t *btree.Tree }

// WrapBTree adapts the classic buffer-pool B-tree to Store. The tree's
// health latches degraded only when its backing device reports
// unrecoverable corruption (an ssd.Mirror quarantining a page); ordinary
// persistent device failures still surface as operation errors handled by
// the engine's circuit breaker.
func WrapBTree(t *btree.Tree) Store { return &btStore{t: t} }

func (s *btStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return s.t.GetCtx(ctx, key)
}
func (s *btStore) Put(ctx context.Context, key, val []byte) error {
	return s.t.InsertCtx(ctx, key, val)
}
func (s *btStore) Delete(ctx context.Context, key []byte) error {
	return s.t.DeleteCtx(ctx, key)
}
func (s *btStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	return s.t.ScanCtx(ctx, start, limit, fn)
}
func (s *btStore) Health() *metrics.Health { return &s.t.Stats().Health }
func (s *btStore) Close() error            { return s.t.Close() }

// --- LSM ---

type lsmStore struct{ t *lsm.Tree }

// WrapLSM adapts the LSM tree to Store. Close flushes the memtable so the
// manifest commit point covers everything acknowledged.
func WrapLSM(t *lsm.Tree) Store { return &lsmStore{t: t} }

func (s *lsmStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return s.t.GetCtx(ctx, key)
}
func (s *lsmStore) Put(ctx context.Context, key, val []byte) error {
	return s.t.PutCtx(ctx, key, val)
}
func (s *lsmStore) Delete(ctx context.Context, key []byte) error {
	return s.t.DeleteCtx(ctx, key)
}
func (s *lsmStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	return s.t.ScanCtx(ctx, start, limit, fn)
}
func (s *lsmStore) Health() *metrics.Health { return &s.t.Stats().Health }
func (s *lsmStore) Close() error            { return s.t.Flush() }

// --- MassTree ---

type mtStore struct{ t *masstree.Tree }

// WrapMassTree adapts the main-memory MassTree to Store. Operations never
// touch secondary storage, so the context is checked only at entry; the
// store cannot degrade and Close is a no-op.
func WrapMassTree(t *masstree.Tree) Store { return &mtStore{t: t} }

func (s *mtStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	v, ok := s.t.Get(key)
	return v, ok, nil
}
func (s *mtStore) Put(ctx context.Context, key, val []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.t.Put(key, val)
	return nil
}
func (s *mtStore) Delete(ctx context.Context, key []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.t.Delete(key)
	return nil
}
func (s *mtStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.t.Scan(start, limit, fn)
	return nil
}
func (s *mtStore) Health() *metrics.Health { return nil }
func (s *mtStore) Close() error            { return nil }

// --- Transactional component ---

type tcStore struct{ t *tc.TC }

// WrapTC adapts the transactional component to Store: each operation runs
// as a single-key transaction (begin, op, commit). Write-write conflicts
// surface as tc.ErrConflict — the engine does not retry them, matching the
// TC's first-committer-wins semantics.
func WrapTC(t *tc.TC) Store { return &tcStore{t: t} }

func (s *tcStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	tx, err := s.t.Begin()
	if err != nil {
		return nil, false, err
	}
	defer tx.Abort()
	return tx.Read(key)
}

func (s *tcStore) Put(ctx context.Context, key, val []byte) error {
	return s.commit1(ctx, func(tx *tc.Tx) error { return tx.Write(key, val) })
}

func (s *tcStore) Delete(ctx context.Context, key []byte) error {
	return s.commit1(ctx, func(tx *tc.Tx) error { return tx.Delete(key) })
}

func (s *tcStore) commit1(ctx context.Context, op func(*tc.Tx) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tx, err := s.t.Begin()
	if err != nil {
		return err
	}
	if err := op(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (s *tcStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tx, err := s.t.Begin()
	if err != nil {
		return err
	}
	defer tx.Abort()
	return tx.Scan(start, limit, fn)
}

func (s *tcStore) Health() *metrics.Health { return s.t.Health() }
func (s *tcStore) Close() error            { return s.t.Close() }
