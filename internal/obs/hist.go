package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i holds
// values whose bit length is i: bucket 0 is exactly zero, bucket 1 is [1,2),
// bucket 2 is [2,4), and so on. 63 buckets cover every positive int64.
const histBuckets = 64

// Histogram is a lock-free log-scaled histogram. Observe, Merge, and the
// read-side accessors are all safe for concurrent use; every mutation is a
// single atomic add, so recording a sample never takes a lock and never
// allocates — the property the per-operation span path depends on.
//
// Quantiles are approximate (bucket-midpoint resolution, under 50% relative
// error by construction) but strictly monotone in q, so p50 <= p95 <= p99
// always holds on any fixed state.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketValue returns the representative (midpoint) value of bucket i.
func bucketValue(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i == 1:
		return 1
	default:
		return 3 << (i - 2) // midpoint of [2^(i-1), 2^i)
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Merge adds src's samples into h. Both histograms may be concurrently
// observed and merged: every transfer is an atomic add, so no sample is
// lost or double-counted by the merge itself (counts are conserved).
func (h *Histogram) Merge(src *Histogram) {
	if src == nil {
		return
	}
	for i := range src.counts {
		if n := src.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
}

// reset zeroes the histogram. Not atomic with respect to concurrent
// observers: a sample racing a reset may be partially dropped. Only the
// sliding window uses it, where slot recycling tolerates that.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the exact mean of all samples (the sum is tracked exactly,
// not reconstructed from buckets), or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the approximate q-quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var counts [histBuckets]int64
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i, n := range counts {
		cum += n
		if cum >= target {
			return bucketValue(i)
		}
	}
	return bucketValue(histBuckets - 1)
}

// HistSnapshot is a point-in-time histogram summary.
type HistSnapshot struct {
	Count         int64
	Mean          float64
	P50, P95, P99 int64
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
