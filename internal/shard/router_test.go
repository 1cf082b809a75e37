package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"costperf/internal/tc"
)

func key(i int) []byte         { return []byte(fmt.Sprintf("key%05d", i)) }
func val(i, gen int) []byte    { return []byte(fmt.Sprintf("val%05d#%d", i, gen)) }
func testCtx() context.Context { return context.Background() }

// newTestRouter builds a plain (non-replicated) router with fast cutover
// bounds suitable for tests.
func newTestRouter(t *testing.T, shards int, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{Shards: shards, CutoverWait: 2 * time.Second, Seed: 42}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// testDCs are the fleet's two data components: the main-memory MassTree
// comparator and the paper's Bw-tree data caching stack.
var testDCs = []struct {
	name  string
	newDC func(int) tc.DataComponent
}{
	{"mass", func(int) tc.DataComponent { return NewMassDC() }},
	{"bw", func(int) tc.DataComponent { return NewBwDC() }},
}

// forEachDC runs fn once per fleet data component, as a subtest.
func forEachDC(t *testing.T, fn func(t *testing.T, newDC func(int) tc.DataComponent)) {
	for _, dc := range testDCs {
		t.Run(dc.name, func(t *testing.T) { fn(t, dc.newDC) })
	}
}

// withDC is a newTestRouter mutator that sets the router's DC.
func withDC(newDC func(int) tc.DataComponent) func(*Config) {
	return func(c *Config) { c.NewDC = newDC }
}

func TestRouterRoutesAcrossAllShards(t *testing.T) {
	const n, keys = 4, 400
	r := newTestRouter(t, n, nil)
	ctx := testCtx()
	for i := 0; i < keys; i++ {
		if err := r.Put(ctx, key(i), val(i, 0)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Every key reads back through the router.
	for i := 0; i < keys; i++ {
		v, ok, err := r.Get(ctx, key(i))
		if err != nil || !ok || string(v) != string(val(i, 0)) {
			t.Fatalf("get %d = %q/%v/%v", i, v, ok, err)
		}
	}
	// The hash actually spreads: every shard holds some keys, and per-shard
	// direct reads agree with the routing function.
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		s := SlotOf(key(i), n)
		counts[s]++
		v, ok, err := r.Engine(s).Get(ctx, key(i))
		if err != nil || !ok || string(v) != string(val(i, 0)) {
			t.Fatalf("shard %d does not own key %d: %q/%v/%v", s, i, v, ok, err)
		}
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys out of %d", s, keys)
		}
	}
	// Delete routes too.
	if err := r.Delete(ctx, key(7)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok, _ := r.Get(ctx, key(7)); ok {
		t.Fatal("deleted key still readable")
	}
}

func TestRouterSingleShardDegradesAlone(t *testing.T) {
	// A fault domain is per shard: latch one shard's store read-only and
	// the other shards keep accepting writes.
	r := newTestRouter(t, 4, nil)
	ctx := testCtx()
	const bad = 2
	r.ShardHealth(bad).Degrade("test: injected latch")

	okShards, failed := 0, 0
	for i := 0; i < 200; i++ {
		err := r.Put(ctx, key(i), val(i, 1))
		if SlotOf(key(i), 4) == bad {
			if err == nil {
				t.Fatalf("write to degraded shard %d succeeded", bad)
			}
			failed++
			continue
		}
		if err != nil {
			t.Fatalf("write to healthy shard failed: %v", err)
		}
		okShards++
	}
	if failed == 0 || okShards == 0 {
		t.Fatalf("degenerate split: failed=%d ok=%d", failed, okShards)
	}
	// Reads on the degraded shard still work (read-only, not dead).
	for i := 0; i < 200; i++ {
		if SlotOf(key(i), 4) == bad {
			if _, _, err := r.Get(ctx, key(i)); err != nil {
				t.Fatalf("read on degraded shard: %v", err)
			}
		}
	}
	if r.Health().Degraded() {
		t.Fatal("router-level health latched from a single-shard fault")
	}
}

func TestRouterRejectsBadConfigAndClosedUse(t *testing.T) {
	if _, err := New(Config{Shards: 0}); err == nil {
		t.Fatal("New accepted 0 shards")
	}
	r := newTestRouter(t, 2, nil)
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := r.Migrate(MigrateConfig{Shard: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("migrate on closed router = %v, want ErrClosed", err)
	}
	if _, err := r.Migrate(MigrateConfig{Shard: 9}); err == nil {
		t.Fatal("migrate accepted an out-of-range shard")
	}
}
