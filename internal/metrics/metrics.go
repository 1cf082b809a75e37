// Package metrics provides lightweight, concurrency-safe counters,
// gauges, and histograms used by the storage engines and the experiment
// harness to report I/O counts, byte volumes, latency/cost distributions,
// and the internal events no obs span counts (splits, page loads,
// retries, health). Operation counts come from internal/obs spans.
//
// All types are safe for concurrent use and have useful zero values.
package metrics

import "sync/atomic"

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
