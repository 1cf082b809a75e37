package shard

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"costperf/internal/llama/logstore"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/repl"
	"costperf/internal/ssd"
	"costperf/internal/tc"
)

// cutoverRun is what the three cutover handles have in common.
type cutoverRun interface {
	Run(context.Context) error
	Phase() Phase
	Done() bool
	Err() error
	Stats() *metrics.ReplStats
}

// TestCutoverPhaseContract runs one clean migrate, split and merge and
// pins the contract they share: OnPhase fires every phase exactly once,
// in order; the accessors agree afterwards; the stream shipped bytes; and
// a second Run is a no-op that fires no hook.
func TestCutoverPhaseContract(t *testing.T) {
	kinds := []struct {
		name  string
		start func(r *Router, hook func(Phase) error) (cutoverRun, error)
	}{
		{"migrate", func(r *Router, hook func(Phase) error) (cutoverRun, error) {
			return r.Migrate(MigrateConfig{Shard: 1, OnPhase: hook})
		}},
		{"split", func(r *Router, hook func(Phase) error) (cutoverRun, error) {
			return r.Split(SplitConfig{Shard: 1, OnPhase: hook})
		}},
		{"merge", func(r *Router, hook func(Phase) error) (cutoverRun, error) {
			return r.Merge(MergeConfig{Left: 1, Right: 2, OnPhase: hook})
		}},
	}
	want := []Phase{PhasePrepare, PhaseCatchup, PhaseFence, PhaseDrain, PhaseSeal, PhaseInstall}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			r := newTestRouter(t, 4, nil)
			loadKeys(t, r, 200)
			var fired []Phase
			c, err := k.start(r, func(p Phase) error { fired = append(fired, p); return nil })
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			if err := c.Run(testCtx()); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !reflect.DeepEqual(fired, want) {
				t.Fatalf("OnPhase fired %v, want %v", fired, want)
			}
			if c.Phase() != PhaseInstall || !c.Done() || c.Err() != nil {
				t.Fatalf("after run: phase %v done %v err %v", c.Phase(), c.Done(), c.Err())
			}
			if c.Stats().BytesShipped.Value() <= 0 {
				t.Fatal("cutover shipped no bytes")
			}
			if err := c.Run(testCtx()); err != nil {
				t.Fatalf("second run: %v", err)
			}
			if len(fired) != len(want) {
				t.Fatalf("second run fired hooks: %v", fired[len(want):])
			}
		})
	}
}

// TestCutoverOwnersKeepAdmissionConfig pins that an owner built by a
// cutover is built like one built at New: every live engine of an
// adaptive fleet keeps the gradient limiter through a split, a merge and
// a migration, and every live slot's cost snapshot carries its engine's
// limiter.
func TestCutoverOwnersKeepAdmissionConfig(t *testing.T) {
	r := newTestRouter(t, 4, func(c *Config) {
		c.Adaptive = true
		c.Registry = obs.NewRegistry()
	})
	loadKeys(t, r, 200)
	ctx := testCtx()
	check := func(after string) {
		t.Helper()
		for _, slot := range r.Map().Slots() {
			eng := r.Engine(slot)
			if !eng.Limiter().Adaptive() {
				t.Fatalf("after %s: shard %d limiter is static", after, slot)
			}
			snap, ok := r.ShardSnapshot(slot)
			live := eng.Limiter().Stats().Limit.Value()
			if !ok || !snap.Limited || live <= 0 || snap.Limit < live {
				t.Fatalf("after %s: shard %d snapshot limited=%v limit=%d, engine limit %d",
					after, slot, snap.Limited, snap.Limit, live)
			}
		}
	}
	check("new")

	s, err := r.Split(SplitConfig{Shard: 2})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if err := s.Run(ctx); err != nil {
		t.Fatalf("split run: %v", err)
	}
	check("split")

	low, high := s.Slots()
	m, err := r.Merge(MergeConfig{Left: low, Right: high})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatalf("merge run: %v", err)
	}
	check("merge")

	mg, err := r.Migrate(MigrateConfig{Shard: 0})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := mg.Run(ctx); err != nil {
		t.Fatalf("migrate run: %v", err)
	}
	check("migrate")
}

// TestRefusedCutoverBuildsNothing pins the constructors' order —
// validate, reserve under the router lock, only then build targets — so
// a refused Migrate, Split or Merge calls neither factory.
func TestRefusedCutoverBuildsNothing(t *testing.T) {
	var dcs, logs atomic.Int64
	r := newTestRouter(t, 3, func(c *Config) {
		c.NewDC = func(int) tc.DataComponent { dcs.Add(1); return NewMassDC() }
		c.NewLog = func(name string) ssd.Dev {
			logs.Add(1)
			return ssd.New(ssd.Config{Name: name, MaxIOPS: 1e6, LatencySec: 20e-6})
		}
	})
	refuse := func(label string, want error, start func() error) {
		t.Helper()
		d0, l0 := dcs.Load(), logs.Load()
		if err := start(); !errors.Is(err, want) {
			t.Fatalf("%s = %v, want %v", label, err, want)
		}
		if d, l := dcs.Load()-d0, logs.Load()-l0; d != 0 || l != 0 {
			t.Fatalf("refused %s built %d data components and %d logs", label, d, l)
		}
	}
	migrate := func(slot int) func() error {
		return func() error { _, err := r.Migrate(MigrateConfig{Shard: slot}); return err }
	}
	split := func(slot int) func() error {
		return func() error { _, err := r.Split(SplitConfig{Shard: slot}); return err }
	}
	merge := func(l, rr int) func() error {
		return func() error { _, err := r.Merge(MergeConfig{Left: l, Right: rr}); return err }
	}

	refuse("migrate of unknown slot", ErrNoShard, migrate(9))
	refuse("split of unknown slot", ErrNoShard, split(9))
	refuse("merge of unknown slot", ErrNoShard, merge(9, 0))

	if err := migrate(0)(); err != nil {
		t.Fatalf("first migrate: %v", err)
	}
	refuse("second migrate", ErrMigrating, migrate(0))
	refuse("split of migrating slot", ErrMigrating, split(0))
	refuse("merge of migrating slot", ErrMigrating, merge(0, 1))

	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	refuse("migrate on closed router", ErrClosed, migrate(1))
	refuse("split on closed router", ErrClosed, split(1))
	refuse("merge on closed router", ErrClosed, merge(1, 2))
}

// TestSealRefusesLogTailMismatch writes a frame the target never applied
// onto its log after the drain: the sealed owner's log reopens past the
// sealed LSN, so the seal fails with repl.ErrLogTail instead of
// installing it.
func TestSealRefusesLogTailMismatch(t *testing.T) {
	var last ssd.Dev
	r := newTestRouter(t, 2, func(c *Config) {
		c.NewLog = func(name string) ssd.Dev {
			last = ssd.New(ssd.Config{Name: name, MaxIOPS: 1e6, LatencySec: 20e-6})
			return last
		}
	})
	loadKeys(t, r, 100)
	m, err := r.Migrate(MigrateConfig{Shard: 1, OnPhase: func(p Phase) error {
		if p != PhaseDrain {
			return nil
		}
		stray, err := logstore.Open(logstore.Config{Device: last})
		if err != nil {
			return err
		}
		if _, err := stray.Append(0, logstore.KindCommit, []byte("never applied"), nil); err != nil {
			return err
		}
		return stray.Close()
	}})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := m.Run(testCtx()); !errors.Is(err, repl.ErrLogTail) {
		t.Fatalf("run = %v, want repl.ErrLogTail", err)
	}
	if m.Done() || m.Phase() != PhaseSeal {
		t.Fatalf("after refused seal: done %v phase %v", m.Done(), m.Phase())
	}
}
