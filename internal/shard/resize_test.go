package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/tc"
)

// loadKeys puts n sequential keys through the router and returns the set.
func loadKeys(t *testing.T, r *Router, n int) map[string]string {
	t.Helper()
	ctx := testCtx()
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		if err := r.Put(ctx, key(i), val(i, 0)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		out[string(key(i))] = string(val(i, 0))
	}
	return out
}

// dumpRouter scatter-gathers the router's full contents.
func dumpRouter(t *testing.T, r *Router) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := r.Scan(testCtx(), nil, 0, func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func sameKV(t *testing.T, got, want map[string]string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %q = %q, want %q", label, k, got[k], v)
		}
	}
}

// TestSplitMovesBoundedKeyRange is the bounded-movement claim in unit
// form: after a split, exactly the keys hashing into the parent's range
// changed owner; every other key's placement is untouched.
func TestSplitMovesBoundedKeyRange(t *testing.T) { forEachDC(t, testSplitMovesBoundedKeyRange) }

func testSplitMovesBoundedKeyRange(t *testing.T, newDC func(int) tc.DataComponent) {
	const n, keys = 4, 400
	r := newTestRouter(t, n, withDC(newDC))
	want := loadKeys(t, r, keys)
	ctx := testCtx()

	before := r.Map()
	const srcSlot = 1
	lo, hi := before.Range(before.indexOfSlot(srcSlot))

	s, err := r.Split(SplitConfig{Shard: srcSlot})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if err := s.Run(ctx); err != nil {
		t.Fatalf("split run: %v", err)
	}
	if !s.Done() {
		t.Fatal("split not done after Run")
	}
	low, high := s.Slots()

	after := r.Map()
	if after.Epoch != 1 || len(after.Entries) != n+1 {
		t.Fatalf("post-split map epoch %d entries %d, want 1/%d", after.Epoch, len(after.Entries), n+1)
	}
	if after.HasSlot(srcSlot) {
		t.Fatal("retired parent slot still in the map")
	}
	if r.Shards() != n+1 {
		t.Fatalf("Shards() = %d, want %d", r.Shards(), n+1)
	}

	moved := 0
	for i := 0; i < keys; i++ {
		h := Hash(key(i))
		bSlot, aSlot := before.Slot(h), after.Slot(h)
		if !InRange(h, lo, hi) {
			if bSlot != aSlot {
				t.Fatalf("key %d outside the split range moved %d→%d", i, bSlot, aSlot)
			}
			continue
		}
		moved++
		wantSlot := low
		if h >= s.At() {
			wantSlot = high
		}
		if aSlot != wantSlot {
			t.Fatalf("key %d in split range routed to %d, want %d", i, aSlot, wantSlot)
		}
		// The new owner really holds it.
		v, ok, err := r.Engine(aSlot).Get(ctx, key(i))
		if err != nil || !ok || string(v) != want[string(key(i))] {
			t.Fatalf("new owner %d missing key %d: %q/%v/%v", aSlot, i, v, ok, err)
		}
	}
	if moved == 0 || moved == keys {
		t.Fatalf("moved %d of %d keys, want a bounded fraction", moved, keys)
	}

	// Children are pruned to their halves: no residue outside their range.
	for _, slot := range []int{low, high} {
		slo, shi := after.Range(after.indexOfSlot(slot))
		if err := r.Engine(slot).Scan(ctx, nil, 0, func(k, _ []byte) bool {
			if !InRange(Hash(k), slo, shi) {
				t.Errorf("slot %d holds out-of-range key %q", slot, k)
			}
			return true
		}); err != nil {
			t.Fatalf("scan child %d: %v", slot, err)
		}
	}

	// The fenced parent rejects commits forever.
	tx, err := s.SourceTC().Begin()
	if err != nil {
		t.Fatalf("begin on fenced source: %v", err)
	}
	if err := tx.Write([]byte("late"), []byte("write")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrMoved) {
		t.Fatalf("commit on fenced source = %v, want ErrMoved", err)
	}

	// Full data set intact through router reads and scatter scan.
	for i := 0; i < keys; i++ {
		v, ok, err := r.Get(ctx, key(i))
		if err != nil || !ok || string(v) != want[string(key(i))] {
			t.Fatalf("get %d after split = %q/%v/%v", i, v, ok, err)
		}
	}
	sameKV(t, dumpRouter(t, r), want, "post-split dump")
	if r.Stats().Splits.Value() != 1 || r.Stats().Fences.Value() != 1 {
		t.Fatalf("stats splits=%d fences=%d", r.Stats().Splits.Value(), r.Stats().Fences.Value())
	}
}

// TestMergeAdjacentShards merges a split's children back and checks the
// merged owner serves the union, both sources stay fenced, and
// non-adjacent merges are refused.
func TestMergeAdjacentShards(t *testing.T) { forEachDC(t, testMergeAdjacentShards) }

func testMergeAdjacentShards(t *testing.T, newDC func(int) tc.DataComponent) {
	const n, keys = 4, 300
	r := newTestRouter(t, n, withDC(newDC))
	want := loadKeys(t, r, keys)
	ctx := testCtx()

	s, err := r.Split(SplitConfig{Shard: 2})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if err := s.Run(ctx); err != nil {
		t.Fatalf("split run: %v", err)
	}
	low, high := s.Slots()

	// Write fresh values into both children so the merge carries
	// post-split history, not just the preload.
	gen1 := 0
	for i := 0; i < keys; i++ {
		slot := r.SlotOfKey(key(i))
		if slot == low || slot == high {
			if err := r.Put(ctx, key(i), val(i, 1)); err != nil {
				t.Fatalf("post-split put %d: %v", i, err)
			}
			want[string(key(i))] = string(val(i, 1))
			gen1++
		}
	}
	if gen1 == 0 {
		t.Fatal("no keys landed on the split children")
	}

	if _, err := r.Merge(MergeConfig{Left: 0, Right: 3}); !errors.Is(err, ErrNotAdjacent) {
		t.Fatalf("non-adjacent merge = %v, want ErrNotAdjacent", err)
	}
	if _, err := r.Merge(MergeConfig{Left: 99, Right: low}); !errors.Is(err, ErrNoShard) {
		t.Fatalf("merge of unknown slot = %v, want ErrNoShard", err)
	}

	m, err := r.Merge(MergeConfig{Left: low, Right: high})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatalf("merge run: %v", err)
	}

	after := r.Map()
	if after.Epoch != 2 || len(after.Entries) != n {
		t.Fatalf("post-merge map epoch %d entries %d, want 2/%d", after.Epoch, len(after.Entries), n)
	}
	if after.HasSlot(low) || after.HasSlot(high) {
		t.Fatal("retired child slot still in the map")
	}

	// Both fenced sources reject commits.
	lt, rt := m.SourceTCs()
	for i, src := range []*tc.TC{lt, rt} {
		tx, err := src.Begin()
		if err != nil {
			t.Fatalf("begin on fenced source %d: %v", i, err)
		}
		if err := tx.Write([]byte("late"), []byte("w")); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrMoved) {
			t.Fatalf("commit on fenced merge source %d = %v, want ErrMoved", i, err)
		}
	}

	for i := 0; i < keys; i++ {
		v, ok, err := r.Get(ctx, key(i))
		if err != nil || !ok || string(v) != want[string(key(i))] {
			t.Fatalf("get %d after merge = %q/%v/%v", i, v, ok, err)
		}
	}
	sameKV(t, dumpRouter(t, r), want, "post-merge dump")
	if r.Stats().Merges.Value() != 1 {
		t.Fatalf("Merges = %d, want 1", r.Stats().Merges.Value())
	}
}

// TestSplitCrashResumeAtEveryBoundary aborts a split after each phase and
// resumes it — the blind-redo contract — while concurrent writers keep
// acking writes that must all survive.
func TestSplitCrashResumeAtEveryBoundary(t *testing.T) {
	for crashAfter := PhasePrepare; crashAfter <= PhaseSeal; crashAfter++ {
		crashAfter := crashAfter
		t.Run(fmt.Sprintf("crash-after-%v", crashAfter), func(t *testing.T) {
			forEachDC(t, func(t *testing.T, newDC func(int) tc.DataComponent) {
				r := newTestRouter(t, 3, withDC(newDC))
				want := loadKeys(t, r, 150)
				ctx := testCtx()

				crashed := false
				s, err := r.Split(SplitConfig{
					Shard: 1,
					OnPhase: func(p Phase) error {
						if p == crashAfter && !crashed {
							crashed = true
							return fmt.Errorf("injected crash after %v", p)
						}
						return nil
					},
				})
				if err != nil {
					t.Fatalf("split: %v", err)
				}
				if err := s.Run(ctx); err == nil {
					t.Fatalf("run survived the injected crash after %v", crashAfter)
				}
				if s.Done() {
					t.Fatal("split claims done after crash")
				}
				// Resume: blind redo from the recorded resume point.
				if err := s.Run(ctx); err != nil {
					t.Fatalf("resume after %v crash: %v", crashAfter, err)
				}
				if !s.Done() {
					t.Fatal("split not done after resume")
				}
				if r.Shards() != 4 || r.MapEpoch() != 1 {
					t.Fatalf("post-resume shards=%d epoch=%d", r.Shards(), r.MapEpoch())
				}
				for i := 0; i < 150; i++ {
					v, ok, err := r.Get(ctx, key(i))
					if err != nil || !ok || string(v) != want[string(key(i))] {
						t.Fatalf("get %d = %q/%v/%v", i, v, ok, err)
					}
				}
				sameKV(t, dumpRouter(t, r), want, "post-resume dump")
			})
		})
	}
}

// TestMergeCrashResumeAtEveryBoundary is the merge twin, with the right
// shard's folded copy re-done idempotently on resume.
func TestMergeCrashResumeAtEveryBoundary(t *testing.T) {
	for crashAfter := PhasePrepare; crashAfter <= PhaseSeal; crashAfter++ {
		crashAfter := crashAfter
		t.Run(fmt.Sprintf("crash-after-%v", crashAfter), func(t *testing.T) {
			forEachDC(t, func(t *testing.T, newDC func(int) tc.DataComponent) {
				r := newTestRouter(t, 4, withDC(newDC))
				want := loadKeys(t, r, 150)
				ctx := testCtx()

				crashed := false
				m, err := r.Merge(MergeConfig{
					Left: 1, Right: 2,
					OnPhase: func(p Phase) error {
						if p == crashAfter && !crashed {
							crashed = true
							return fmt.Errorf("injected crash after %v", p)
						}
						return nil
					},
				})
				if err != nil {
					t.Fatalf("merge: %v", err)
				}
				if err := m.Run(ctx); err == nil {
					t.Fatalf("run survived the injected crash after %v", crashAfter)
				}
				if err := m.Run(ctx); err != nil {
					t.Fatalf("resume after %v crash: %v", crashAfter, err)
				}
				if !m.Done() {
					t.Fatal("merge not done after resume")
				}
				if r.Shards() != 3 || r.MapEpoch() != 1 {
					t.Fatalf("post-resume shards=%d epoch=%d", r.Shards(), r.MapEpoch())
				}
				for i := 0; i < 150; i++ {
					v, ok, err := r.Get(ctx, key(i))
					if err != nil || !ok || string(v) != want[string(key(i))] {
						t.Fatalf("get %d = %q/%v/%v", i, v, ok, err)
					}
				}
				sameKV(t, dumpRouter(t, r), want, "post-resume dump")
			})
		})
	}
}

// TestResizeUnderConcurrentWriters runs a split and then a merge of its
// children under continuous writer load: every acked write must be
// readable afterwards, and writers may only ever see moved-class errors.
func TestResizeUnderConcurrentWriters(t *testing.T) { forEachDC(t, testResizeUnderConcurrentWriters) }

func testResizeUnderConcurrentWriters(t *testing.T, newDC func(int) tc.DataComponent) {
	r := newTestRouter(t, 4, withDC(newDC))
	want := loadKeys(t, r, 200)
	ctx := testCtx()

	var (
		mu    sync.Mutex
		acked = map[string]string{}
		stop  atomic.Bool
		wg    sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each writer owns a disjoint key stripe (3 divides the
			// modulus, so wraparound preserves it): writer-vs-writer
			// OCC conflicts are not what this test is about.
			for i := w; !stop.Load(); i += 3 {
				k, v := key(i%198), val(i%198, 100+w)
				if err := r.Put(ctx, k, v); err != nil {
					if errorsIsMovedOrRetired(err) {
						continue // unacked; the old value stands
					}
					t.Errorf("writer %d: unexpected error %v", w, err)
					return
				}
				mu.Lock()
				acked[string(k)] = string(v)
				mu.Unlock()
			}
		}()
	}

	s, err := r.Split(SplitConfig{Shard: 2})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if err := s.Run(ctx); err != nil {
		t.Fatalf("split run: %v", err)
	}
	low, high := s.Slots()
	m, err := r.Merge(MergeConfig{Left: low, Right: high})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatalf("merge run: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	mu.Lock()
	for k, v := range acked {
		want[k] = v
	}
	mu.Unlock()
	for k, v := range want {
		got, ok, err := r.Get(ctx, []byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("acked key %q = %q/%v/%v, want %q", k, got, ok, err, v)
		}
	}
	sameKV(t, dumpRouter(t, r), want, "post-resize dump")
	if r.MapEpoch() != 2 {
		t.Fatalf("map epoch %d, want 2", r.MapEpoch())
	}
}

// TestSplitRefusals pins the guard rails.
func TestSplitRefusals(t *testing.T) {
	r := newTestRouter(t, 2, nil)
	if _, err := r.Split(SplitConfig{Shard: 9}); !errors.Is(err, ErrNoShard) {
		t.Fatalf("split unknown slot = %v, want ErrNoShard", err)
	}
	lo, _ := r.Map().Range(r.Map().indexOfSlot(1))
	if _, err := r.Split(SplitConfig{Shard: 1, At: lo}); !errors.Is(err, ErrBadMap) {
		t.Fatalf("split at range start = %v, want ErrBadMap", err)
	}
	if _, err := r.Split(SplitConfig{Shard: 0, At: lo}); !errors.Is(err, ErrBadMap) {
		t.Fatalf("split outside range = %v, want ErrBadMap", err)
	}
	if _, err := r.Split(SplitConfig{Shard: 1}); err != nil {
		t.Fatalf("first split: %v", err)
	}
	if _, err := r.Split(SplitConfig{Shard: 1}); !errors.Is(err, ErrMigrating) {
		t.Fatalf("second split of same slot = %v, want ErrMigrating", err)
	}
	if _, err := r.Migrate(MigrateConfig{Shard: 1}); !errors.Is(err, ErrMigrating) {
		t.Fatalf("migrate of splitting slot = %v, want ErrMigrating", err)
	}

	rs := newTestRouter(t, 2, func(c *Config) { c.Standby = true; c.CommitWait = time.Second })
	if _, err := rs.Split(SplitConfig{Shard: 0}); !errors.Is(err, ErrReplicatedShard) {
		t.Fatalf("split replicated shard = %v, want ErrReplicatedShard", err)
	}
	if _, err := rs.Merge(MergeConfig{Left: 0, Right: 1}); !errors.Is(err, ErrReplicatedShard) {
		t.Fatalf("merge replicated shards = %v, want ErrReplicatedShard", err)
	}
}
