package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero Counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Counter = %d, want 42", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset = %d, want 0", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("Counter = %d, want %d", got, workers*each)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Gauge = %d, want 7", got)
	}
	g.Max(5)
	if got := g.Value(); got != 7 {
		t.Fatalf("Max(5) lowered gauge to %d", got)
	}
	g.Max(100)
	if got := g.Value(); got != 100 {
		t.Fatalf("Max(100) = %d, want 100", got)
	}
}

func TestGaugeMaxConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 1; i <= 100; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			g.Max(v)
		}(int64(i))
	}
	wg.Wait()
	if got := g.Value(); got != 100 {
		t.Fatalf("concurrent Max = %d, want 100", got)
	}
}

func TestIOStatsMissRatio(t *testing.T) {
	var s IOStats
	if got := s.MissRatio(); got != 0 {
		t.Fatalf("empty MissRatio = %v, want 0", got)
	}
	s.CacheHits.Add(75)
	s.CacheMisses.Add(25)
	if got := s.MissRatio(); got != 0.25 {
		t.Fatalf("MissRatio = %v, want 0.25", got)
	}
}

func TestIOStatsWriteAmplification(t *testing.T) {
	var s IOStats
	if got := s.WriteAmplification(); got != 0 {
		t.Fatalf("empty WA = %v, want 0", got)
	}
	s.BytesWritten.Add(150)
	s.GCWrites.Add(50)
	if got := s.WriteAmplification(); got != 1.5 {
		t.Fatalf("WA = %v, want 1.5", got)
	}
}

func TestIOStatsResetAndString(t *testing.T) {
	var s IOStats
	s.Reads.Inc()
	s.Writes.Inc()
	s.CacheHits.Inc()
	if s.String() == "" {
		t.Fatal("empty String")
	}
	s.Reset()
	if s.Reads.Value() != 0 || s.Writes.Value() != 0 || s.CacheHits.Value() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestReclassifyRead(t *testing.T) {
	var s IOStats
	s.Reads.Inc()
	s.Reads.Inc()
	s.BytesRead.Add(4096)
	// A transfer that completed but carried a corrupt payload moves from
	// the logical count to the failed count; the bytes really moved and
	// stay where they are.
	s.ReclassifyRead()
	if got := s.Reads.Value(); got != 1 {
		t.Fatalf("Reads = %d after reclassify, want 1", got)
	}
	if got := s.FailedReads.Value(); got != 1 {
		t.Fatalf("FailedReads = %d after reclassify, want 1", got)
	}
	if got := s.BytesRead.Value(); got != 4096 {
		t.Fatalf("BytesRead = %d after reclassify, want 4096", got)
	}
}
