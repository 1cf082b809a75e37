package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// histErr is Histogram's stated relative error bound for Quantile and Max.
const histErr = 1.0 / 64

// exactQuantile is the nearest-rank q-quantile of sorted samples, the
// value Quantile approximates.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := max(int(math.Ceil(q*float64(len(sorted)))), 1)
	return sorted[rank-1]
}

// withinBound reports whether got is within histErr of want (exactly
// want when want is 0).
func withinBound(got float64, want int64) bool {
	return math.Abs(got-float64(want)) <= histErr*float64(want)
}

// histDists are the seeded sample distributions, in nanoseconds.
var histDists = []struct {
	name string
	draw func(*rand.Rand) int64
}{
	{"uniform", func(r *rand.Rand) int64 { return 1 + r.Int63n(10_000_000) }},
	{"exponential", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 100_000) }},
	// 1 ns to 10 ms, evenly spread over the decades.
	{"log-uniform", func(r *rand.Rand) int64 { return int64(math.Exp(r.Float64() * math.Log(1e7))) }},
	// obs's magnitude mix: sub-microsecond to tens of milliseconds.
	{"obs-mix", func(r *rand.Rand) int64 { return r.Int63n(1 << uint(10+r.Intn(25))) }},
}

// observeDist fills h with n samples of d and returns them sorted.
func observeDist(h *Histogram, draw func(*rand.Rand) int64, seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = draw(rng)
		h.Observe(xs[i])
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

// TestHistogramRelativeError holds every quantile and Max to the stated
// bound against the exact sorted-sample values.
func TestHistogramRelativeError(t *testing.T) {
	for _, d := range histDists {
		for seed := int64(1); seed <= 3; seed++ {
			var h Histogram
			xs := observeDist(&h, d.draw, seed, 20000)
			for q := 0.0; q <= 1; q += 0.001 {
				if got, want := h.Quantile(q), exactQuantile(xs, q); !withinBound(got, want) {
					t.Fatalf("%s seed %d: Quantile(%v) = %v, exact %d (error %.4f > %.4f)",
						d.name, seed, q, got, want, math.Abs(got-float64(want))/float64(want), histErr)
				}
			}
			if got, want := h.Max(), xs[len(xs)-1]; !withinBound(got, want) {
				t.Fatalf("%s seed %d: Max = %v, exact %d", d.name, seed, got, want)
			}
			s := h.Snapshot()
			if s.P50 != h.Quantile(0.5) || s.P95 != h.Quantile(0.95) || s.P99 != h.Quantile(0.99) ||
				s.Max != h.Max() || s.Count != h.Count() || s.Mean != h.Mean() {
				t.Fatalf("%s seed %d: snapshot %+v disagrees with the accessors", d.name, seed, s)
			}
		}
	}
}

// TestHistogramBucketBound checks the bucket arithmetic at the octave
// edges and the int64 extremes: every value maps to a bucket in range
// whose reported value is within the bound, and bucket order follows value
// order.
func TestHistogramBucketBound(t *testing.T) {
	vs := []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 129, 1<<20 - 1, 1 << 20, 1<<20 + 1,
		1<<40 + 12345, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		vs = append(vs, rng.Int63n(1<<uint(1+rng.Intn(62))))
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	prev := 0
	for _, v := range vs {
		i := histIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d, previous %d, buckets %d", v, i, prev, histBuckets)
		}
		if !withinBound(histValue(i), v) {
			t.Fatalf("value %d reports %v from bucket %d", v, histValue(i), i)
		}
		prev = i
	}
}

// TestHistogramQuantileMonotone drives seeded sample sets and checks the
// invariants the cost tables rely on: quantiles are monotone in q and
// p50 <= p95 <= p99 <= Max.
func TestHistogramQuantileMonotone(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		observeDist(&h, histDists[3].draw, seed, 1+rng.Intn(5000))
		s := h.Snapshot()
		if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("seed %d: not monotone: %+v", seed, s)
		}
		prev := 0.0
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("seed %d: Quantile(%v) = %v < %v", seed, q, v, prev)
			}
			prev = v
		}
	}
}

// TestHistogramMoments: Count and Mean, the two moments the histogram
// keeps, are exact on every distribution, and small values are exact.
func TestHistogramMoments(t *testing.T) {
	var small Histogram
	for _, v := range []int64{1, 2, 3, 4, 5} {
		small.Observe(v)
	}
	if small.Count() != 5 || small.Mean() != 3 || small.Max() != 5 || small.Quantile(0) != 1 {
		t.Fatalf("1..5: count=%d mean=%v max=%v min=%v, want 5 3 5 1",
			small.Count(), small.Mean(), small.Max(), small.Quantile(0))
	}
	for _, d := range histDists {
		var h Histogram
		xs := observeDist(&h, d.draw, 11, 5000)
		var sum int64
		for _, x := range xs {
			sum += x
		}
		if h.Count() != int64(len(xs)) {
			t.Fatalf("%s: Count = %d, want %d", d.name, h.Count(), len(xs))
		}
		if want := float64(sum) / float64(len(xs)); h.Mean() != want {
			t.Fatalf("%s: Mean = %v, want exactly %v", d.name, h.Mean(), want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 ||
		h.Quantile(0) != 0 || h.Quantile(0.5) != 0 || h.Quantile(1) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if s := h.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("empty snapshot = %+v, want zero", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("P50 = %v, want 50", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Q(0) = %v, want 1", got)
	}
	if got := h.Quantile(1); !withinBound(got, 100) {
		t.Fatalf("Q(1) = %v, want 100 within %.4f", got, histErr)
	}
	// A negative sample (a clock stepping back) is recorded as 0.
	h.Observe(-5)
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("Q(0) after a negative sample = %v, want 0", got)
	}
}

// An out-of-range q is a caller bug: Quantile panics on it, with or
// without samples.
func TestHistogramQuantileOutOfRangePanics(t *testing.T) {
	var empty, h Histogram
	h.Observe(1)
	for _, hh := range []*Histogram{&empty, &h} {
		for _, q := range []float64{-0.01, 1.01, 2, math.NaN()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("Quantile(%v) did not panic", q)
					}
				}()
				hh.Quantile(q)
			}()
		}
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	observeDist(&h, histDists[0].draw, 3, 1000)
	h.Reset()
	if s := h.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("snapshot after Reset = %+v, want zero", s)
	}
	h.Observe(7)
	if s := h.Snapshot(); s.Count != 1 || s.Mean != 7 || s.P50 != 7 || s.Max != 7 {
		t.Fatalf("snapshot after Reset and one sample = %+v", s)
	}
}

// Snapshots taken while observers run must be internally consistent
// (P50 <= P95 <= P99 <= Max), and no sample is lost: the final count is
// every observer's samples.
func TestHistogramSnapshotConsistentUnderObserve(t *testing.T) {
	var h Histogram
	const observers, each = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < observers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Values march outward in both directions from 2^20, so a
			// summary assembled from several reads sees its bounds move.
			for i := int64(0); i < each; i++ {
				v := int64(1<<20) + i*50
				if (i+int64(w))%2 == 1 {
					v = int64(1<<20) - i*50
				}
				h.Observe(v)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for n := 0; ; n++ {
		s := h.Snapshot()
		if s.Count > 0 && !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("snapshot %d inconsistent: %+v", n, s)
		}
		select {
		case <-done:
			if got := h.Count(); got != observers*each {
				t.Fatalf("Count = %d, want %d", got, observers*each)
			}
			return
		default:
		}
	}
}

// Property: the mean is exact and lies within the sample range, and Max is
// within the bound of the largest sample.
func TestHistogramMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		var sum int64
		lo, hi := int64(math.MaxInt64), int64(0)
		for _, r := range raw {
			v := int64(r)
			h.Observe(v)
			sum += v
			lo, hi = min(lo, v), max(hi, v)
		}
		m := h.Mean()
		return m == float64(sum)/float64(len(raw)) && m >= float64(lo) && m <= float64(hi) &&
			withinBound(h.Max(), hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
