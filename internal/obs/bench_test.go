package obs_test

import (
	"context"
	"fmt"
	"testing"

	"costperf/internal/engine"
	"costperf/internal/masstree"
	"costperf/internal/obs"
)

// TestDisabledSpanPathAllocFree pins the core overhead contract: with no
// tracer installed (nil *Tracer), starting, annotating, and ending a span
// allocates nothing — instrumented hot paths cost a nil check.
func TestDisabledSpanPathAllocFree(t *testing.T) {
	var tr *obs.Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(obs.OpGet)
		sp.Miss()
		sp.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledSpanPathAllocFree keeps the enabled path allocation-free too:
// spans are value types and every counter update is an atomic add.
func TestEnabledSpanPathAllocFree(t *testing.T) {
	tr := obs.NewTracer("bench")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(obs.OpGet)
		sp.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("enabled span path allocates %v per op, want 0", allocs)
	}
}

func newEngineForBench(b *testing.B, tr *obs.Tracer) *engine.Engine {
	b.Helper()
	mt := masstree.New(nil)
	mt.SetObs(tr)
	for i := 0; i < 1024; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		mt.Put(k, []byte("value-payload-0123456789"))
	}
	e, err := engine.New(engine.Config{Store: engine.WrapMassTree(mt), Obs: tr})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEngineGet measures the front-end read path with tracing off
// (nil tracer) and on (engine + store spans, histograms, sliding window),
// so the observability overhead is visible in benchmark diffs.
func BenchmarkEngineGet(b *testing.B) {
	ctx := context.Background()
	key := []byte("key-000512")
	for _, mode := range []struct {
		name string
		tr   *obs.Tracer
	}{
		{"obs-off", nil},
		{"obs-on", obs.NewTracer("bench")},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e := newEngineForBench(b, mode.tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := e.Get(ctx, key); err != nil || !ok {
					b.Fatalf("get: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
