package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
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

func TestHistogramMoments(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if got := h.Min(); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
	if got := h.Max(); got != 5 {
		t.Fatalf("Max = %v, want 5", got)
	}
	wantSD := math.Sqrt(2) // population sd of 1..5
	if got := h.StdDev(); math.Abs(got-wantSD) > 1e-9 {
		t.Fatalf("StdDev = %v, want %v", got, wantSD)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.StdDev() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Fatalf("P50 = %v, want ~50", p50)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Q(0) = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("Q(1) = %v, want 100", got)
	}
}

func TestHistogramQuantileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(2) did not panic")
		}
	}()
	var h Histogram
	h.Observe(1)
	h.Quantile(2)
}

func TestHistogramReservoirOverflow(t *testing.T) {
	var h Histogram
	n := reservoirSize * 4
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != int64(n) {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	// Quantiles should still be roughly uniform over [0, n).
	p50 := h.Quantile(0.5)
	if p50 < float64(n)*0.3 || p50 > float64(n)*0.7 {
		t.Fatalf("P50 after overflow = %v, want ~%v", p50, n/2)
	}
}

func TestHistogramSnapshotString(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(2)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("snapshot count = %d, want 2", s.Count)
	}
	if s.String() == "" {
		t.Fatal("empty snapshot string")
	}
}

// Snapshots taken while observers run must be internally consistent:
// every quantile lies between the minimum and maximum it reports.
func TestHistogramSnapshotConsistentUnderObserve(t *testing.T) {
	var h Histogram
	const observers, each = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < observers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Values march outward in both directions, so a summary
			// assembled from several reads sees its bounds move.
			for i := 0; i < each; i++ {
				v := float64(i)
				if (i+w)%2 == 1 {
					v = -v
				}
				h.Observe(v)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for n := 0; ; n++ {
		s := h.Snapshot()
		if s.Count > 0 && !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("snapshot %d inconsistent: %s", n, s)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// Property: histogram mean always lies within [min, max].
func TestHistogramMeanBoundsProperty(t *testing.T) {
	f := func(raw []int32) bool {
		var h Histogram
		any := false
		for _, r := range raw {
			// Map to a moderate range so sumSq cannot overflow.
			v := float64(r) / 1e3
			h.Observe(v)
			any = true
		}
		if !any {
			return true
		}
		m := h.Mean()
		// Allow tiny FP slack.
		return m >= h.Min()-1e-9*math.Abs(h.Min())-1e-9 &&
			m <= h.Max()+1e-9*math.Abs(h.Max())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
