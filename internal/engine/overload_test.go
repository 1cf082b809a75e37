package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/fault"
	"costperf/internal/masstree"
	"costperf/internal/metrics"
	"costperf/internal/overload"
)

// TestProbeExemptFromAdmission is the regression test for the breaker
// starvation bug: under sustained overload the admission queue used to
// shed the breaker's half-open probe, leaving the circuit latched
// probing with no verdict ever arriving. Probes now bypass admission
// (ClassProbe), so the probe lands in the store even while the queue is
// full and every ordinary request is being shed.
func TestProbeExemptFromAdmission(t *testing.T) {
	fs := newFakeStore()
	e := newTestEngine(t, Config{
		Store:            fs,
		MaxConcurrent:    1,
		MaxQueue:         1,
		BreakerThreshold: 1,
		ProbeBackoff:     time.Millisecond,
	})
	ctx := context.Background()

	// Trip the breaker with one persistent write failure.
	fs.setPutErr(fmt.Errorf("dev: %w", fault.ErrPersistent))
	if err := e.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, fault.ErrPersistent) {
		t.Fatalf("tripping Put = %v, want the store error", err)
	}
	if e.Stats().Breaker.State() != metrics.HealthDegraded {
		t.Fatalf("breaker = %v, want open", e.Stats().Breaker.State())
	}
	fs.setPutErr(nil)

	// Saturate admission: one Get runs (blocked in the store), one more
	// fills the queue. Every further ordinary request is shed.
	fs.block = make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			if _, _, err := e.Get(ctx, []byte("k")); err != nil {
				t.Errorf("saturating Get: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().QueuePeak.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("admission queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := e.Get(ctx, []byte("k")); !errors.Is(err, ErrOverload) {
		t.Fatalf("Get with a full queue = %v, want ErrOverload", err)
	}

	// The store must see the probe even though admission is saturated.
	// The probe Put also blocks on fs.block, so release the gate once the
	// probe has reached the store.
	var probeSeen atomic.Bool
	fs.putHook = func() {
		probeSeen.Store(true)
		close(fs.block)
	}
	var probed bool
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		err := e.Put(ctx, []byte("p"), []byte("v"))
		if err == nil {
			probed = true
			break
		}
		// Until the jittered backoff elapses the circuit fails writes
		// fast; a full admission queue must never surface ErrOverload for
		// what would have been the probe.
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("Put while open = %v, want ErrCircuitOpen until the probe", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !probed {
		t.Fatal("breaker never admitted its probe through the saturated queue")
	}
	if !probeSeen.Load() {
		t.Fatal("probe reported success without reaching the store")
	}
	if e.Stats().Breaker.State() != metrics.HealthHealthy {
		t.Fatalf("breaker after probe = %v, want closed", e.Stats().Breaker.State())
	}
	wg.Wait()
}

// TestGateBeforeAdmission pins the fail-fast ordering: writes rejected
// by the breaker or read-only health never consume admission capacity.
func TestGateBeforeAdmission(t *testing.T) {
	fs := newFakeStore()
	fs.hasHP = true
	fs.health.Degrade("test")
	e := newTestEngine(t, Config{Store: fs, MaxConcurrent: 1, MaxQueue: 1})
	ctx := context.Background()
	before := e.Stats().Admitted.Value()
	for i := 0; i < 5; i++ {
		if err := e.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Put on degraded store = %v, want ErrReadOnly", err)
		}
	}
	if got := e.Stats().Admitted.Value(); got != before {
		t.Fatalf("read-only rejects consumed %d admission slots", got-before)
	}
	if got := e.Stats().ReadOnlyRejects.Value(); got != 5 {
		t.Fatalf("ReadOnlyRejects = %d, want 5", got)
	}
}

// TestQueueStatsConsistentUnderRaces (satellite of the overload PR)
// hammers the admission queue with concurrent sheds, cancels, and
// successes under -race and asserts the depth gauges stay consistent:
// depth returns to zero, the peak never exceeds MaxQueue, and every
// issued op is accounted for exactly once.
func TestQueueStatsConsistentUnderRaces(t *testing.T) {
	e := newTestEngine(t, Config{
		Store:         WrapMassTree(masstree.New(nil)),
		MaxConcurrent: 2,
		MaxQueue:      4,
	})
	const workers, opsPer = 12, 150
	var wg sync.WaitGroup
	var ok, shed, aborted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("k%d", w))
			for i := 0; i < opsPer; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch i % 3 {
				case 1:
					// A deadline short enough to sometimes expire while
					// queued: the shed/cancel race the gauges must survive.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*10*time.Microsecond)
				case 2:
					ctx, cancel = context.WithCancel(ctx)
					if i%6 == 2 {
						cancel()
					}
				}
				err := e.Put(ctx, key, []byte("v"))
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverload):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					aborted.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()

	st := e.Stats()
	if got := st.QueueDepth.Value(); got != 0 {
		t.Fatalf("QueueDepth after drain = %d, want 0", got)
	}
	if peak := st.QueuePeak.Value(); peak > 4 {
		t.Fatalf("QueuePeak = %d exceeded MaxQueue 4", peak)
	}
	if got := st.Shed.Value(); got != shed.Load() {
		t.Fatalf("Stats.Shed = %d, callers saw %d", got, shed.Load())
	}
	if total := ok.Load() + shed.Load() + aborted.Load(); total != workers*opsPer {
		t.Fatalf("accounted ops = %d, want %d", total, workers*opsPer)
	}
	// Every admitted op released its slot: the limiter agrees with the
	// engine's own counters and holds no residual inflight.
	lst := e.Limiter().Stats()
	if got := lst.Inflight.Value(); got != 0 {
		t.Fatalf("limiter Inflight after drain = %d, want 0", got)
	}
	if st.Admitted.Value() != lst.Admitted.Value() {
		t.Fatalf("engine Admitted = %d, limiter Admitted = %d", st.Admitted.Value(), lst.Admitted.Value())
	}
}

// TestAdaptiveLimitConvergesDown drives an adaptive engine over a store
// whose latency inflates with concurrency and asserts the limit walks
// down from its initial setting — the tentpole behavior in miniature
// (the full metastable sweep lives in internal/integration).
func TestAdaptiveLimitConvergesDown(t *testing.T) {
	fs := newFakeStore()
	e := newTestEngine(t, Config{
		Store:         fs,
		MaxConcurrent: 32,
		Adaptive:      true,
		AdaptiveMin:   2,
		AdaptiveMax:   64,
		LimitWindow:   8,
	})
	// Latency grows with inflight: more concurrency, slower store — the
	// signature of a saturated device the limiter must back away from.
	var inflight atomic.Int64
	fs.putHook = func() {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		time.Sleep(time.Duration(n) * 200 * time.Microsecond)
	}
	// Drive load until the controller has demonstrably stepped down: the
	// vegas probe window re-measures the true floor (the first windows
	// may learn an inflated one, since the store is congested from the
	// first op), after which the steady congested windows multiply the
	// limit down. Converge-or-timeout rather than a fixed op count keeps
	// the test robust to scheduler noise.
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("k%d", w))
			for !stop.Load() {
				_ = e.Put(ctx, key, []byte("v"))
			}
		}(w)
	}
	deadline := time.Now().Add(20 * time.Second)
	for e.Limiter().Stats().LimitDowns.Value() == 0 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("no downward gradient updates within 20s: %s", e.Limiter().Stats().String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if e.Limiter().Stats().LimitDowns.Value() == 0 {
		t.Fatal("no downward gradient updates recorded")
	}
}

// TestClassTaggedOpsShedInOrder pins the context-class plumbing end to
// end: with the queue saturated, a scan-tagged op sheds while a
// high-tagged op still queues.
func TestClassTaggedOpsShedInOrder(t *testing.T) {
	fs := newFakeStore()
	fs.block = make(chan struct{})
	e := newTestEngine(t, Config{Store: fs, MaxConcurrent: 1, MaxQueue: 8})
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := e.Get(ctx, []byte("k")); err != nil {
			t.Errorf("holder Get: %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.Limiter().Stats().Inflight.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("holder never entered the store")
		}
		time.Sleep(time.Millisecond)
	}
	// Two queued normal ops bring the queue to scan's bound (8/4 = 2).
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.Get(ctx, []byte("k")); err != nil {
				t.Errorf("queued Get: %v", err)
			}
		}()
	}
	for e.Stats().QueueDepth.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never reached scan's bound")
		}
		time.Sleep(time.Millisecond)
	}

	// A scan sheds at its bound...
	err := e.Scan(ctx, nil, 1, func(k, v []byte) bool { return true })
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("Scan at scan bound = %v, want ErrOverload", err)
	}
	// ...but the same queue admits a high-class Get.
	wg.Add(1)
	go func() {
		defer wg.Done()
		hctx := overload.WithClass(ctx, overload.ClassHigh)
		if _, _, err := e.Get(hctx, []byte("k")); err != nil {
			t.Errorf("high Get: %v", err)
		}
	}()
	for e.Stats().QueueDepth.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("high-class op never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Limiter().Stats().Shed.Scan.Value(); got != 1 {
		t.Fatalf("Shed.Scan = %d, want 1", got)
	}
	close(fs.block)
	wg.Wait()
}

// TestAdmissionCountedOnce pins that admission has one meter block: the
// engine's Stats embed the limiter's own LimiterStats, so Admitted counts
// each granted op once and Shed totals the per-class shed counters.
func TestAdmissionCountedOnce(t *testing.T) {
	fs := newFakeStore()
	fs.block = make(chan struct{})
	e := newTestEngine(t, Config{Store: fs, MaxConcurrent: 1, MaxQueue: 4})
	if e.Stats().LimiterStats != e.Limiter().Stats() {
		t.Fatal("engine stats do not share the limiter's block")
	}
	ctx := context.Background()
	get := func(c context.Context) error {
		_, _, err := e.Get(c, []byte("k"))
		return err
	}

	// One op holds the slot and four fill the queue (normal's bound is
	// the whole queue), so every class now sheds.
	var wg sync.WaitGroup
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := get(ctx); err != nil {
				t.Errorf("saturating Get: %v", err)
			}
		}()
		for e.Stats().Inflight.Value()+e.Stats().QueueDepth.Value() < int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("op %d never admitted or queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	shedOps := []func() error{
		func() error { return e.Scan(ctx, nil, 1, func(k, v []byte) bool { return true }) },
		func() error { return e.Scan(ctx, nil, 1, func(k, v []byte) bool { return true }) },
		func() error { return get(overload.WithClass(ctx, overload.ClassLow)) },
		func() error { return get(ctx) },
		func() error { return e.Put(ctx, []byte("k"), []byte("v")) },
		func() error { return e.Delete(ctx, []byte("k")) },
		func() error { return get(overload.WithClass(ctx, overload.ClassHigh)) },
	}
	for i, op := range shedOps {
		if err := op(); !errors.Is(err, ErrOverload) {
			t.Fatalf("op %d on a full queue = %v, want ErrOverload", i, err)
		}
	}
	close(fs.block)
	wg.Wait()
	const after = 3
	for i := 0; i < after; i++ {
		if err := get(ctx); err != nil {
			t.Fatalf("Get after drain: %v", err)
		}
	}

	st := e.Stats()
	if got, want := st.Admitted.Value(), int64(5+after); got != want {
		t.Fatalf("Admitted = %d, want %d", got, want)
	}
	sh := &st.Shed
	if sh.Scan.Value() != 2 || sh.Low.Value() != 1 || sh.Normal.Value() != 3 || sh.High.Value() != 1 {
		t.Fatalf("shed by class [scan low normal high] = [%d %d %d %d], want [2 1 3 1]",
			sh.Scan.Value(), sh.Low.Value(), sh.Normal.Value(), sh.High.Value())
	}
	m := int64(len(shedOps))
	if sum := sh.Scan.Value() + sh.Low.Value() + sh.Normal.Value() + sh.High.Value(); st.Shed.Value() != m || sum != m {
		t.Fatalf("Shed = %d, per-class sum = %d, want %d", st.Shed.Value(), sum, m)
	}
	if got := st.WaitMicros.Count(); got != 4 {
		t.Fatalf("WaitMicros count = %d, want 4 (the queued ops)", got)
	}
}
