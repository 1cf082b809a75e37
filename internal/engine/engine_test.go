package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"costperf/internal/fault"
	"costperf/internal/masstree"
	"costperf/internal/metrics"
)

// fakeStore is a controllable Store for front-end tests.
type fakeStore struct {
	mu      sync.Mutex
	data    map[string][]byte
	putErr  error         // returned by Put when non-nil
	block   chan struct{} // when non-nil, ops wait on it (honoring ctx)
	health  metrics.Health
	hasHP   bool
	putHook func()
}

func newFakeStore() *fakeStore { return &fakeStore{data: map[string][]byte{}} }

func (f *fakeStore) wait(ctx context.Context) error {
	if f.block == nil {
		return nil
	}
	select {
	case <-f.block:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *fakeStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := f.wait(ctx); err != nil {
		return nil, false, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.data[string(key)]
	return v, ok, nil
}

func (f *fakeStore) Put(ctx context.Context, key, val []byte) error {
	if f.putHook != nil {
		f.putHook()
	}
	if err := f.wait(ctx); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.putErr != nil {
		return f.putErr
	}
	f.data[string(key)] = val
	return nil
}

func (f *fakeStore) Delete(ctx context.Context, key []byte) error {
	if err := f.wait(ctx); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.data, string(key))
	return nil
}

func (f *fakeStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	return f.wait(ctx)
}

func (f *fakeStore) Health() *metrics.Health {
	if !f.hasHP {
		return nil
	}
	return &f.health
}

func (f *fakeStore) Close() error { return nil }

func (f *fakeStore) setPutErr(err error) {
	f.mu.Lock()
	f.putErr = err
	f.mu.Unlock()
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestEngineBasicOps(t *testing.T) {
	e := newTestEngine(t, Config{Store: newFakeStore()})
	ctx := context.Background()
	if err := e.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := e.Get(ctx, []byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if err := e.Delete(ctx, []byte("k")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, _ := e.Get(ctx, []byte("k")); ok {
		t.Fatal("key survived Delete")
	}
	if got := e.Stats().Admitted.Value(); got != 4 {
		t.Fatalf("Admitted = %d, want 4", got)
	}
}

func TestEngineOverloadSheds(t *testing.T) {
	fs := newFakeStore()
	fs.block = make(chan struct{})
	e := newTestEngine(t, Config{Store: fs, MaxConcurrent: 1, MaxQueue: 1})
	ctx := context.Background()

	// Occupy the only execution slot.
	running := make(chan struct{})
	var once sync.Once
	fs.putHook = func() { once.Do(func() { close(running) }) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.Put(ctx, []byte("a"), []byte("1"))
	}()
	<-running

	// Occupy the only queue slot.
	queued := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		queued <- e.Put(ctx, []byte("b"), []byte("2"))
	}()
	waitFor(t, func() bool { return e.Stats().QueuePeak.Value() == 1 })

	// Third request: slot busy, queue full -> shed.
	if err := e.Put(ctx, []byte("c"), []byte("3")); !errors.Is(err, ErrOverload) {
		t.Fatalf("Put = %v, want ErrOverload", err)
	}
	if got := e.Stats().Shed.Value(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}

	close(fs.block)
	wg.Wait()
	if err := <-queued; err != nil {
		t.Fatalf("queued Put: %v", err)
	}
	if e.Stats().WaitMicros.Count() != 1 {
		t.Fatalf("WaitMicros count = %d, want 1 (one queued op)", e.Stats().WaitMicros.Count())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEngineDefaultTimeout(t *testing.T) {
	fs := newFakeStore()
	fs.block = make(chan struct{}) // never closed: ops hang until deadline
	e := newTestEngine(t, Config{Store: fs, DefaultTimeout: 20 * time.Millisecond})
	_, _, err := e.Get(context.Background(), []byte("k"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get = %v, want DeadlineExceeded", err)
	}
	if got := e.Stats().Timeouts.Value(); got != 1 {
		t.Fatalf("Timeouts = %d, want 1", got)
	}
}

func TestEngineCallerDeadlineWins(t *testing.T) {
	fs := newFakeStore()
	fs.block = make(chan struct{})
	e := newTestEngine(t, Config{Store: fs, DefaultTimeout: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := e.Get(ctx, []byte("k"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("caller deadline was replaced by the longer default")
	}
}

func TestEngineReadOnlyOnDegradedStore(t *testing.T) {
	fs := newFakeStore()
	fs.hasHP = true
	e := newTestEngine(t, Config{Store: fs})
	ctx := context.Background()
	if err := e.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put before degrade: %v", err)
	}
	fs.health.Degrade("device gone")
	if err := e.Put(ctx, []byte("k"), []byte("v2")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put = %v, want ErrReadOnly", err)
	}
	// Reads keep being served.
	if v, ok, err := e.Get(ctx, []byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after degrade = %q, %v, %v", v, ok, err)
	}
	if got := e.Stats().ReadOnlyRejects.Value(); got != 1 {
		t.Fatalf("ReadOnlyRejects = %d, want 1", got)
	}
}

func TestEngineBreakerTripAndRecover(t *testing.T) {
	fs := newFakeStore()
	persistent := fmt.Errorf("dev: %w", fault.ErrPersistent)
	e := newTestEngine(t, Config{Store: fs, BreakerThreshold: 3, ProbeBackoff: 20 * time.Millisecond})
	ctx := context.Background()

	fs.setPutErr(persistent)
	// First failures pass through until the threshold trips the breaker.
	for i := 0; i < 3; i++ {
		if err := e.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, fault.ErrPersistent) {
			t.Fatalf("Put %d = %v, want the store error", i, err)
		}
	}
	if e.Stats().Breaker.State() != metrics.HealthDegraded {
		t.Fatalf("breaker = %v, want open", e.Stats().Breaker.State())
	}
	// Open circuit: before the jittered backoff (>= ProbeBackoff/2) has
	// elapsed, writes fail fast without reaching the store...
	if err := e.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Put = %v, want ErrCircuitOpen", err)
	}
	// ...until the backoff elapses and a write is admitted as the probe,
	// which fails and re-opens the circuit with a doubled backoff.
	var probed bool
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		err := e.Put(ctx, []byte("k"), []byte("v"))
		if errors.Is(err, fault.ErrPersistent) {
			probed = true
			break
		}
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("Put while open = %v, want ErrCircuitOpen or the store error", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !probed {
		t.Fatal("breaker never admitted a failing probe")
	}
	if e.Stats().Breaker.State() != metrics.HealthDegraded {
		t.Fatalf("breaker after failed probe = %v, want open", e.Stats().Breaker.State())
	}

	// Fault clears: the next probe closes the circuit.
	fs.setPutErr(nil)
	var recovered bool
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if err := e.Put(ctx, []byte("k"), []byte("v")); err == nil {
			recovered = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !recovered {
		t.Fatal("breaker never admitted a successful probe")
	}
	if e.Stats().Breaker.State() != metrics.HealthHealthy {
		t.Fatalf("breaker after successful probe = %v, want closed", e.Stats().Breaker.State())
	}
	// Closed circuit: writes flow normally again.
	if err := e.Put(ctx, []byte("k2"), []byte("v2")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if e.Stats().Breaker.Probes.Value() < 2 || e.Stats().Breaker.Restores.Value() != 1 {
		t.Fatalf("probes=%d restores=%d, want >=2 probes and exactly 1 restore",
			e.Stats().Breaker.Probes.Value(), e.Stats().Breaker.Restores.Value())
	}
}

func TestEngineTransientDoesNotTrip(t *testing.T) {
	fs := newFakeStore()
	e := newTestEngine(t, Config{Store: fs, BreakerThreshold: 2})
	ctx := context.Background()
	fs.setPutErr(fmt.Errorf("dev: %w", fault.ErrTransient))
	for i := 0; i < 10; i++ {
		if err := e.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, fault.ErrTransient) {
			t.Fatalf("Put %d = %v, want transient passthrough", i, err)
		}
	}
	if e.Stats().Breaker.State() != metrics.HealthHealthy {
		t.Fatal("transient errors tripped the breaker")
	}
}

func TestEngineClosed(t *testing.T) {
	e := newTestEngine(t, Config{Store: newFakeStore()})
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := e.Get(context.Background(), []byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEngineConcurrentMixed hammers a real store through the front-end
// under -race: correctness of the counters and no deadlock under a tiny
// concurrency limit.
func TestEngineConcurrentMixed(t *testing.T) {
	e := newTestEngine(t, Config{
		Store:         WrapMassTree(masstree.New(nil)),
		MaxConcurrent: 4,
		MaxQueue:      8,
	})
	ctx := context.Background()
	const workers, opsPer = 8, 200
	var wg sync.WaitGroup
	var shed, okOps atomicCounter
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := []byte(fmt.Sprintf("w%d-k%d", w, i%17))
				var err error
				switch i % 3 {
				case 0:
					err = e.Put(ctx, key, []byte("v"))
				case 1:
					_, _, err = e.Get(ctx, key)
				default:
					err = e.Scan(ctx, key, 4, func(_, _ []byte) bool { return true })
				}
				if errors.Is(err, ErrOverload) {
					shed.inc()
				} else if err != nil {
					t.Errorf("op: %v", err)
				} else {
					okOps.inc()
				}
			}
		}(w)
	}
	wg.Wait()
	st := e.Stats()
	if st.Admitted.Value() != okOps.val() {
		t.Fatalf("Admitted = %d, completed = %d", st.Admitted.Value(), okOps.val())
	}
	if st.Shed.Value() != shed.val() {
		t.Fatalf("Shed = %d, callers saw %d", st.Shed.Value(), shed.val())
	}
	if st.QueueDepth.Value() != 0 {
		t.Fatalf("QueueDepth = %d after drain, want 0", st.QueueDepth.Value())
	}
}

type atomicCounter struct {
	mu sync.Mutex
	n  int64
}

func (c *atomicCounter) inc() { c.mu.Lock(); c.n++; c.mu.Unlock() }
func (c *atomicCounter) val() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
