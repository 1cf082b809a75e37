// Package metrics provides lightweight, concurrency-safe counters,
// gauges, and histograms used by the storage engines and the experiment
// harness to report I/O counts, byte volumes, latency/cost distributions,
// and the internal events no obs span counts (splits, page loads,
// retries, health). Operation counts come from internal/obs spans.
//
// All types are safe for concurrent use and have useful zero values.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing concurrency-safe counter.
// The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative delta added to Counter")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// dec subtracts one. It is deliberately unexported: the only legitimate
// non-monotonic edit is IOStats.ReclassifyRead moving a miscounted logical
// I/O between columns; everything else must stay monotonic.
func (c *Counter) dec() { c.v.Add(-1) }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a concurrency-safe value that can go up and down.
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta, which may be negative.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max updates the gauge to v if v is larger than the current value.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram records a distribution of float64 samples. It keeps running
// moments plus a bounded reservoir for quantile estimation.
//
// The zero value is ready to use.
type Histogram struct {
	mu        sync.Mutex
	count     int64
	sum       float64
	sumSq     float64
	min       float64
	max       float64
	reservoir []float64
	rngState  uint64
}

// reservoirSize bounds the memory used for quantile estimation.
const reservoirSize = 4096

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	h.sumSq += v * v
	if len(h.reservoir) < reservoirSize {
		h.reservoir = append(h.reservoir, v)
		return
	}
	// Vitter's algorithm R: replace a random slot with probability k/n.
	if h.rngState == 0 {
		h.rngState = 0x9e3779b97f4a7c15
	}
	h.rngState ^= h.rngState << 13
	h.rngState ^= h.rngState >> 7
	h.rngState ^= h.rngState << 17
	idx := h.rngState % uint64(h.count)
	if idx < reservoirSize {
		h.reservoir[idx] = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean of observed samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	mean, _ := h.momentsLocked()
	return mean
}

// StdDev returns the population standard deviation, or 0 when empty.
func (h *Histogram) StdDev() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, sd := h.momentsLocked()
	return sd
}

// momentsLocked returns the mean and population standard deviation, or
// zeros when empty.
func (h *Histogram) momentsLocked() (mean, sd float64) {
	if h.count == 0 {
		return 0, 0
	}
	mean = h.sum / float64(h.count)
	variance := h.sumSq/float64(h.count) - mean*mean
	if variance < 0 {
		variance = 0 // guard against FP rounding
	}
	return mean, math.Sqrt(variance)
}

// Min returns the smallest observed sample, or 0 when empty.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observed sample, or 0 when empty.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1) from the
// reservoir sample. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of range [0,1]", q))
	}
	h.mu.Lock()
	sorted := append([]float64(nil), h.reservoir...)
	h.mu.Unlock()
	sort.Float64s(sorted)
	return quantile(sorted, q)
}

// quantile picks the q-th quantile from sorted samples (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// Snapshot is a point-in-time summary of a Histogram.
type Snapshot struct {
	Count  int64
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Snapshot returns a consistent summary of the histogram: every field is
// read under one hold of the lock, so Min <= P50 <= P95 <= P99 <= Max
// holds even while other goroutines observe.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	s := Snapshot{Count: h.count, Min: h.min, Max: h.max}
	s.Mean, s.StdDev = h.momentsLocked()
	sorted := append([]float64(nil), h.reservoir...)
	h.mu.Unlock()
	sort.Float64s(sorted)
	s.P50, s.P95, s.P99 = quantile(sorted, 0.50), quantile(sorted, 0.95), quantile(sorted, 0.99)
	return s
}

// String renders the snapshot compactly for experiment logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.3g sd=%.3g min=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g",
		s.Count, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.P99, s.Max)
}
