package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear latency histogram over nanoseconds: 128 sub-buckets
// per power of two, so a bucket is at most 1/128 (0.8 %) wide. Values below
// 256 ns are exact. A failed or refused op is recorded as +Inf. One goroutine writes a
// hist; they are merged after the run.
type hist struct {
	counts [histBuckets]uint32
	n      uint64 // finite samples
	inf    uint64 // failed ops
}

const (
	histSubBits = 7
	histMaxBits = 40 // values clamp at 2^40 ns (18 min)
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
)

func histIndex(ns int64) int {
	v := uint64(ns)
	if ns < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	if v < 2<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - (histSubBits + 1)
	return e<<histSubBits + int(v>>e)
}

// histBounds returns the lowest value of bucket i and its width, in
// nanoseconds.
func histBounds(i int) (low, width float64) {
	if i < 2<<histSubBits {
		return float64(i), 1
	}
	e := i>>histSubBits - 1
	return float64(uint64(i-e<<histSubBits) << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) recordFailed() { h.inf++ }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.inf += o.inf
}

// samples counts every recorded op, failed ones included.
func (h *hist) samples() uint64 { return h.n + h.inf }

// quantile returns the q-quantile in nanoseconds. Failed ops sort last, so
// a quantile that lands among them is +Inf; an empty hist returns NaN.
func (h *hist) quantile(q float64) float64 {
	total := h.samples()
	if total == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		return math.Inf(1)
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+uint64(c) >= rank {
			// Place the rank inside its bucket in proportion, so the
			// result is not quantized to bucket midpoints.
			low, width := histBounds(i)
			return low + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	return math.Inf(1)
}
