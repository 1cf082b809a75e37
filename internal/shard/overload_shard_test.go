package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"costperf/internal/engine"
	"costperf/internal/overload"
)

// saturateScanBound drives one shard's limiter to the point where a
// scan-class arrival would shed: fills the concurrency limit, then
// parks one normal-class waiter so the queue prefix is at scan's bound.
// The returned release func unwinds everything.
func saturateScanBound(t *testing.T, eng *engine.Engine) (release func()) {
	t.Helper()
	lim := eng.Limiter()
	ctx, cancel := context.WithCancel(context.Background())
	var held []*overload.Ticket
	for lim.Stats().Inflight.Value() < int64(lim.Limit()) {
		tk, err := lim.Acquire(ctx, overload.ClassNormal)
		if err != nil {
			t.Fatalf("saturating acquire: %v", err)
		}
		held = append(held, tk)
	}
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		if tk, err := lim.Acquire(ctx, overload.ClassNormal); err == nil {
			lim.Release(tk, false)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !lim.WouldShed(overload.ClassScan) {
		if time.Now().After(deadline) {
			t.Fatal("limiter never reached the scan bound")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		cancel()
		for _, tk := range held {
			lim.Release(tk, false)
		}
		<-parked
	}
}

// TestScatterRespectsShardLimiter pins the scatter-gather limiter check
// in partial mode: a shard at its scan bound becomes a typed hole in the
// PartialScanError — carrying ErrOverload — while the surviving shards'
// data still arrives.
func TestScatterRespectsShardLimiter(t *testing.T) {
	r := newTestRouter(t, 2, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 4
	})
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if err := r.Put(ctx, key(i), val(i, 0)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	release := saturateScanBound(t, r.Engine(0))
	defer release()

	var got int
	err := r.Scan(ctx, nil, 0, func(k, v []byte) bool { got++; return true })
	var pse *PartialScanError
	if !errors.As(err, &pse) {
		t.Fatalf("scan with one shard at bound = %v, want *PartialScanError", err)
	}
	if len(pse.Failed) != 1 || pse.Failed[0].Shard != 0 {
		t.Fatalf("failed shards = %+v, want exactly shard 0", pse.Failed)
	}
	if !errors.Is(pse.Failed[0].Err, engine.ErrOverload) {
		t.Fatalf("hole error = %v, want ErrOverload", pse.Failed[0].Err)
	}
	if got == 0 {
		t.Fatal("surviving shard delivered no data")
	}
	// The refused shard never consumed an admission slot: its engine saw
	// no scan at all, so the shed is visible only at the scatter layer.
	if r.Engine(0).Limiter().Stats().Shed.Scan.Value() != 0 {
		t.Fatal("scatter dispatched a doomed scan into the shard's limiter")
	}
}

// TestScatterFailFastRefusesBeforeFanOut pins the fail-fast pre-check: a
// fleet with any shard past its scan bound refuses the scan up front —
// no goroutines fan out, no healthy shard does work the merge would
// discard.
func TestScatterFailFastRefusesBeforeFanOut(t *testing.T) {
	r := newTestRouter(t, 2, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 4
		c.FailFastScans = true
	})
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if err := r.Put(ctx, key(i), val(i, 0)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	release := saturateScanBound(t, r.Engine(0))

	var got int
	err := r.Scan(ctx, nil, 0, func(k, v []byte) bool { got++; return true })
	if !errors.Is(err, engine.ErrOverload) {
		release()
		t.Fatalf("fail-fast scan = %v, want ErrOverload", err)
	}
	if got != 0 {
		release()
		t.Fatalf("refused scan still delivered %d pairs", got)
	}

	// The refusal is load, not a latch: capacity back means scans back.
	release()
	if err := r.Scan(ctx, nil, 0, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatalf("scan after release: %v", err)
	}
	if got == 0 {
		t.Fatal("recovered scan delivered no data")
	}
}

// TestRouterRetryAfterHint pins the Adviser capability: the router's
// hint is the worst live shard's hint, so a shed client's wait clears
// the most congested shard a retry might land on.
func TestRouterRetryAfterHint(t *testing.T) {
	r := newTestRouter(t, 2, func(c *Config) {
		c.MaxConcurrent = 2
	})
	idle := r.RetryAfterHint()
	if idle <= 0 {
		t.Fatalf("idle hint = %v, want positive", idle)
	}

	// Load shard 0's limiter; the fleet hint must track it.
	lim := r.Engine(0).Limiter()
	ctx := context.Background()
	var held []*overload.Ticket
	for i := 0; i < 2; i++ {
		tk, err := lim.Acquire(ctx, overload.ClassNormal)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		held = append(held, tk)
	}
	loaded := r.RetryAfterHint()
	if loaded < r.Engine(0).RetryAfterHint() {
		t.Fatalf("fleet hint %v below loaded shard's %v", loaded, r.Engine(0).RetryAfterHint())
	}
	if loaded <= r.Engine(1).RetryAfterHint() {
		t.Fatalf("fleet hint %v not above the idle shard's %v", loaded, r.Engine(1).RetryAfterHint())
	}
	for _, tk := range held {
		lim.Release(tk, false)
	}
}

// TestAdaptivePassThrough pins the Config plumbing: Adaptive reaches
// every shard engine's limiter, and stays off by default.
func TestAdaptivePassThrough(t *testing.T) {
	r := newTestRouter(t, 2, nil)
	for i := 0; i < 2; i++ {
		if r.Engine(i).Limiter().Adaptive() {
			t.Fatalf("shard %d limiter adaptive without opting in", i)
		}
	}
	ra := newTestRouter(t, 2, func(c *Config) {
		c.Adaptive = true
		c.AdaptiveMin = 1
		c.AdaptiveMax = 8
		c.LimitWindow = 16
	})
	for i := 0; i < 2; i++ {
		if !ra.Engine(i).Limiter().Adaptive() {
			t.Fatalf("shard %d limiter static despite Adaptive config", i)
		}
	}
}
