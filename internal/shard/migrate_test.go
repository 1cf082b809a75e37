package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/fault"
	"costperf/internal/obs"
	"costperf/internal/tc"
)

// runWriters hammers every shard (including the moving one) from w
// goroutines until stop closes, recording acked writes. Writers own
// disjoint key slices, so "last acked value" is well defined per key.
type writerPool struct {
	mu    sync.Mutex
	acked map[string]string // key -> last acked value
	errs  map[int]int       // shard -> non-nil op errors
	stop  chan struct{}
	wg    sync.WaitGroup
}

func startWriters(r *Router, workers, keys int) *writerPool {
	p := &writerPool{acked: map[string]string{}, errs: map[int]int{}, stop: make(chan struct{})}
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			gen := 0
			for {
				select {
				case <-p.stop:
					return
				default:
				}
				gen++
				for i := w; i < keys; i += workers {
					k, v := key(i), val(i, gen*workers+w)
					err := r.Put(ctx, k, v)
					p.mu.Lock()
					if err == nil {
						p.acked[string(k)] = string(v)
					} else {
						p.errs[SlotOf(k, r.Shards())]++
					}
					p.mu.Unlock()
				}
			}
		}(w)
	}
	return p
}

func (p *writerPool) halt() {
	close(p.stop)
	p.wg.Wait()
}

// verifyAcked proves zero lost acked writes: every acked key reads back
// byte-identical through the router.
func verifyAcked(t *testing.T, r *Router, p *writerPool) {
	t.Helper()
	ctx := context.Background()
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, want := range p.acked {
		v, ok, err := r.Get(ctx, []byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("acked write lost: %q = %q/%v/%v, want %q", k, v, ok, err, want)
		}
	}
}

// verifyFenced proves the stale owner rejects commits forever.
func verifyFenced(t *testing.T, m *Migration) {
	t.Helper()
	tx, err := m.SourceTC().Begin()
	if err != nil {
		t.Fatalf("begin on fenced source: %v", err)
	}
	if err := tx.Write([]byte("zombie"), []byte("write")); err != nil {
		t.Fatalf("stage write on fenced source: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrMoved) {
		t.Fatalf("commit on fenced source = %v, want ErrMoved", err)
	}
}

func TestLiveMigrationUnderLoad(t *testing.T) { forEachDC(t, testLiveMigrationUnderLoad) }

func testLiveMigrationUnderLoad(t *testing.T, newDC func(int) tc.DataComponent) {
	const shards, keys = 4, 240
	r := newTestRouter(t, shards, withDC(newDC))
	loadRouter(t, r, keys)

	p := startWriters(r, 3, keys)
	time.Sleep(5 * time.Millisecond)

	const moving = 1
	m, err := r.Migrate(MigrateConfig{Shard: moving})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := m.Run(context.Background()); err != nil {
		t.Fatalf("migration run: %v", err)
	}
	if !m.Done() || m.Phase() != PhaseInstall {
		t.Fatalf("migration not done: phase %v", m.Phase())
	}
	time.Sleep(5 * time.Millisecond)
	p.halt()

	// No shard but the moving one may see a single error; with a clean
	// cutover even the moving shard should have none (writes park on the
	// cutover and retry transparently).
	p.mu.Lock()
	for s, n := range p.errs {
		p.mu.Unlock()
		t.Fatalf("shard %d saw %d write errors during a clean migration", s, n)
	}
	p.mu.Unlock()

	verifyAcked(t, r, p)
	verifyFenced(t, m)
	if got := r.MapEpoch(); got != 1 {
		t.Fatalf("map epoch = %d, want 1", got)
	}
	if r.Stats().Migrations.Value() != 1 || r.Stats().Fences.Value() != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
	// The new owner keeps accepting writes after the cutover.
	if err := r.Put(context.Background(), pickKeyFor(moving, shards), []byte("post-move")); err != nil {
		t.Fatalf("write after migration: %v", err)
	}
}

// pickKeyFor finds a key routed to the given shard.
func pickKeyFor(shard, n int) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("probe%06d", i))
		if SlotOf(k, n) == shard {
			return k
		}
	}
}

func TestMigrationCrashAtEveryBoundaryResumes(t *testing.T) {
	errCrash := errors.New("test: injected crash")
	for ph := PhasePrepare; ph <= PhaseSeal; ph++ {
		ph := ph
		t.Run(ph.String(), func(t *testing.T) {
			t.Parallel()
			forEachDC(t, func(t *testing.T, newDC func(int) tc.DataComponent) {
				const shards, keys = 3, 120
				r := newTestRouter(t, shards, func(c *Config) { c.CutoverWait = 200 * time.Millisecond; c.NewDC = newDC })
				loadRouter(t, r, keys)
				p := startWriters(r, 2, keys)

				var crashed atomic.Bool
				m, err := r.Migrate(MigrateConfig{
					Shard: 0,
					OnPhase: func(got Phase) error {
						if got == ph && !crashed.Swap(true) {
							return errCrash
						}
						return nil
					},
				})
				if err != nil {
					t.Fatalf("migrate: %v", err)
				}
				ctx := context.Background()
				if err := m.Run(ctx); !errors.Is(err, errCrash) {
					t.Fatalf("run with crash at %v = %v, want the crash", ph, err)
				}
				if m.Done() {
					t.Fatal("migration claims done after crashing")
				}
				if !errors.Is(m.Err(), errCrash) {
					t.Fatalf("Err() = %v", m.Err())
				}
				// Resume: the second run must complete and converge.
				if err := m.Run(ctx); err != nil {
					t.Fatalf("resume after crash at %v: %v", ph, err)
				}
				if !m.Done() {
					t.Fatal("resumed migration not done")
				}
				time.Sleep(5 * time.Millisecond)
				p.halt()
				verifyAcked(t, r, p)
				verifyFenced(t, m)
			})
		})
	}
}

func TestMigrationLinkPartitionRefusesDialAndResumes(t *testing.T) {
	const shards, keys = 2, 80
	net := fault.NewNetInjector(7)
	r := newTestRouter(t, shards, func(c *Config) { c.CutoverWait = 200 * time.Millisecond })
	loadRouter(t, r, keys)

	// Partition before the migration starts: the fresh dial must be
	// refused — chaos is not dodgeable by dialing after the partition.
	net.Partition()
	m, err := r.Migrate(MigrateConfig{Shard: 0, Net: net})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	ctx := context.Background()
	if err := m.Run(ctx); !errors.Is(err, fault.ErrPartitioned) {
		t.Fatalf("run during partition = %v, want ErrPartitioned", err)
	}
	if net.Stats().DialsRefused == 0 {
		t.Fatal("dial gate never consulted")
	}

	// Heal, run with a mid-catchup bounded partition: the shipper's
	// retries ride it out and the migration still completes.
	net.Heal()
	net.SetRates(0.05, 0.05, 0.05)
	p := startWriters(r, 2, keys)
	go func() {
		time.Sleep(2 * time.Millisecond)
		net.PartitionFor(20)
	}()
	if err := m.Run(ctx); err != nil {
		t.Fatalf("run after heal: %v", err)
	}
	p.halt()
	verifyAcked(t, r, p)
	verifyFenced(t, m)
}

func TestMigrationRefusals(t *testing.T) {
	r := newTestRouter(t, 2, nil)
	if _, err := r.Migrate(MigrateConfig{Shard: 0}); err != nil {
		t.Fatalf("first migrate: %v", err)
	}
	if _, err := r.Migrate(MigrateConfig{Shard: 0}); !errors.Is(err, ErrMigrating) {
		t.Fatalf("second migrate = %v, want ErrMigrating", err)
	}

	rs, err := New(Config{Shards: 2, Standby: true, CommitWait: time.Second, Seed: 5})
	if err != nil {
		t.Fatalf("standby router: %v", err)
	}
	defer rs.Close()
	if _, err := rs.Migrate(MigrateConfig{Shard: 1}); !errors.Is(err, ErrReplicatedShard) {
		t.Fatalf("migrate replicated shard = %v, want ErrReplicatedShard", err)
	}
}

// TestMigratedShardContinuesLogInPlace checks the promoted-standby
// property carries over: the new owner's TC appends after the shipped
// prefix instead of restarting LSNs, and its commit clock advances past
// the source's.
func TestMigratedShardContinuesLogInPlace(t *testing.T) {
	r := newTestRouter(t, 1, nil)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := r.Put(ctx, key(i), val(i, 0)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	m, err := r.Migrate(MigrateConfig{Shard: 0})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	oldDurable := m.SourceTC().DurableLSN()
	if err := r.Put(ctx, []byte("after"), []byte("move")); err != nil {
		t.Fatalf("put after move: %v", err)
	}
	newTC := r.tab.Load().owners[0].tc
	if err := newTC.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if d := newTC.DurableLSN(); d <= oldDurable {
		t.Fatalf("new owner durable LSN %d, want > %d (log continued in place)", d, oldDurable)
	}
	var _ tc.DataComponent = NewMassDC() // MassDC stays a DataComponent
}

// TestMigratedSlotReportsOneLimiter checks that a slot's tracer reports
// the live owner's admission limiter only: after a migration, the retired
// engine's limiter no longer counts toward the slot's Limit.
func TestMigratedSlotReportsOneLimiter(t *testing.T) {
	r := newTestRouter(t, 1, func(c *Config) { c.Registry = obs.NewRegistry() })
	ctx := context.Background()
	m, err := r.Migrate(MigrateConfig{Shard: 0})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := m.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := r.Engine(0).Limiter().Stats().Limit.Value()
	if got := r.LiveSnapshots()[0].Limit; got != want {
		t.Fatalf("slot Limit = %d, want the new engine's %d", got, want)
	}
}
