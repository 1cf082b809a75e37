package obs_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"costperf/internal/core"
	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/ssd"
)

// --- Histogram properties -------------------------------------------------

// TestHistogramQuantileMonotone drives seeded random sample sets and checks
// the quantile invariants the cost tables rely on: p50 <= p95 <= p99,
// quantiles bracket the sample range (within bucket resolution), and the
// exact mean matches the tracked sum.
func TestHistogramQuantileMonotone(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h obs.Histogram
		n := 1 + rng.Intn(5000)
		var sum, max int64
		min := int64(math.MaxInt64)
		for i := 0; i < n; i++ {
			// Mix of magnitudes: sub-microsecond to tens of milliseconds.
			v := rng.Int63n(1 << uint(10+rng.Intn(25)))
			h.Observe(v)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if h.Count() != int64(n) {
			t.Fatalf("seed %d: count = %d, want %d", seed, h.Count(), n)
		}
		if h.Sum() != sum {
			t.Fatalf("seed %d: sum = %d, want %d", seed, h.Sum(), sum)
		}
		if got := h.Mean(); math.Abs(got-float64(sum)/float64(n)) > 1e-9 {
			t.Fatalf("seed %d: mean = %v, want %v", seed, got, float64(sum)/float64(n))
		}
		p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		if p50 > p95 || p95 > p99 {
			t.Fatalf("seed %d: quantiles not monotone: p50=%d p95=%d p99=%d", seed, p50, p95, p99)
		}
		// Log-bucket resolution: a quantile may be off by at most 2x in
		// either direction from the true sample range.
		if p99 > 2*max || (min > 0 && p50 < min/2) {
			t.Fatalf("seed %d: quantiles outside range: p50=%d p99=%d min=%d max=%d", seed, p50, p99, min, max)
		}
		// Monotone in q across a fine sweep.
		prev := int64(0)
		for q := 0.01; q <= 1.0; q += 0.01 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("seed %d: Quantile(%v)=%d < Quantile(prev)=%d", seed, q, v, prev)
			}
			prev = v
		}
	}
}

// TestHistogramConcurrentMergeConservesCounts runs concurrent observers and
// concurrent merges and checks that no sample is lost or duplicated: the
// destination ends up with exactly the union of all sources.
func TestHistogramConcurrentMergeConservesCounts(t *testing.T) {
	const (
		sources = 8
		samples = 4000
	)
	srcs := make([]*obs.Histogram, sources)
	for i := range srcs {
		srcs[i] = &obs.Histogram{}
	}
	var dst obs.Histogram
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < samples; j++ {
				srcs[i].Observe(rng.Int63n(1 << 30))
			}
		}(i)
	}
	wg.Wait()
	// Merge all sources concurrently into one destination.
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dst.Merge(srcs[i])
		}(i)
	}
	wg.Wait()
	var wantCount, wantSum int64
	for _, s := range srcs {
		wantCount += s.Count()
		wantSum += s.Sum()
	}
	if dst.Count() != wantCount || dst.Sum() != wantSum {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", dst.Count(), dst.Sum(), wantCount, wantSum)
	}
	if wantCount != sources*samples {
		t.Fatalf("source count = %d, want %d", wantCount, sources*samples)
	}
}

// --- Span accounting vs device totals -------------------------------------

// TestObserverMatchesDeviceTotals wires a tracer as the device's observer,
// drives a seeded mix of reads, writes, and injected failures, and checks
// the tracer's device accounting agrees exactly with ssd.Device's own
// stats — including the retried-I/O split into logical vs failed attempts.
func TestObserverMatchesDeviceTotals(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dev := ssd.New(ssd.SamsungSSD)
		tr := obs.NewTracer("dev")
		dev.SetObserver(tr)
		inj := fault.NewInjector(seed)
		dev.SetFaultInjector(inj)
		inj.SetReadErrorRate(0.2)
		inj.SetWriteErrorRate(0.2)

		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 512)
		for i := 0; i < 400; i++ {
			off := int64(rng.Intn(64)) * 512
			if rng.Intn(2) == 0 {
				_ = dev.WriteAt(off, buf, nil)
			} else {
				_, _ = dev.ReadAt(0, 512, nil) // offset 0 is always written below
			}
		}
		dev.SetFaultInjector(nil)
		if err := dev.WriteAt(0, buf, nil); err != nil {
			t.Fatal(err)
		}

		snap := tr.Snapshot()
		st := dev.Stats()
		if snap.DeviceReads != st.Reads.Value() || snap.DeviceWrites != st.Writes.Value() {
			t.Fatalf("seed %d: observer reads/writes = %d/%d, device %d/%d",
				seed, snap.DeviceReads, snap.DeviceWrites, st.Reads.Value(), st.Writes.Value())
		}
		wantFailed := st.FailedReads.Value() + st.FailedWrites.Value()
		if snap.FailedIOs != wantFailed {
			t.Fatalf("seed %d: observer failed = %d, device %d", seed, snap.FailedIOs, wantFailed)
		}
		if wantFailed == 0 {
			t.Fatalf("seed %d: expected some injected failures", seed)
		}
		if snap.BytesRead != st.BytesRead.Value() || snap.BytesWritten != st.BytesWritten.Value() {
			t.Fatalf("seed %d: observer bytes = %d/%d, device %d/%d",
				seed, snap.BytesRead, snap.BytesWritten, st.BytesRead.Value(), st.BytesWritten.Value())
		}
		if got, want := snap.DeviceBusy.Seconds(), dev.BusySeconds(); math.Abs(got-want) > 1e-6 {
			t.Fatalf("seed %d: observer busy = %v, device %v", seed, got, want)
		}
	}
}

// TestRetriedIOCountsPhysicalPerAttemptLogicalOnce is the regression test
// for the retry double-counting fix: a read that succeeds on its third
// physical attempt must charge two failed attempts and exactly one logical
// read, with payload bytes counted once.
func TestRetriedIOCountsPhysicalPerAttemptLogicalOnce(t *testing.T) {
	dev := ssd.New(ssd.SamsungSSD)
	if err := dev.WriteAt(0, make([]byte, 4096), nil); err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(1)
	dev.SetFaultInjector(inj)
	inj.FailNextReads(2, fault.ClassTransient)

	st := dev.Stats()
	writes0 := st.Writes.Value()
	var policy fault.RetryPolicy
	var rs metrics.RetryStats
	err := policy.Do(&rs, func() error {
		_, rerr := dev.ReadAt(0, 4096, nil)
		return rerr
	})
	if err != nil {
		t.Fatalf("retried read failed: %v", err)
	}
	if got := st.Reads.Value(); got != 1 {
		t.Fatalf("logical reads = %d, want 1 (retries must not inflate logical ops)", got)
	}
	if got := st.FailedReads.Value(); got != 2 {
		t.Fatalf("failed read attempts = %d, want 2", got)
	}
	if got := st.BytesRead.Value(); got != 4096 {
		t.Fatalf("bytes read = %d, want 4096 (payload counted once)", got)
	}
	if got := st.Writes.Value(); got != writes0 {
		t.Fatalf("writes moved from %d to %d during a read retry", writes0, got)
	}
	// All three attempts occupied the device.
	want := 3.0 / ssd.SamsungSSD.MaxIOPS
	if got := dev.BusySeconds() - 1.0/ssd.SamsungSSD.MaxIOPS; math.Abs(got-want) > 1e-9 {
		t.Fatalf("busy for retried read = %v, want %v", got, want)
	}
	if rs.Attempts.Value() != 3 || rs.Retries.Value() != 2 {
		t.Fatalf("retry stats = %s, want attempts=3 retries=2", rs.String())
	}
}

// --- Spans ----------------------------------------------------------------

// TestSpanOutcomesAndHitMiss drives a tracer through every outcome class
// and checks the snapshot's accounting identities.
func TestSpanOutcomesAndHitMiss(t *testing.T) {
	tr := obs.NewTracer("x")
	for i := 0; i < 10; i++ {
		sp := tr.Start(obs.OpGet)
		if i%2 == 0 {
			sp.Miss()
		}
		sp.End(nil)
	}
	sp := tr.Start(obs.OpPut)
	sp.End(errors.New("boom"))
	sp = tr.Start(obs.OpGet)
	sp.EndOutcome(obs.OutcomeShed)
	sp = tr.Start(obs.OpScan)
	sp.EndOutcome(obs.OutcomeTimeout)

	s := tr.Snapshot()
	if s.Ops != 13 {
		t.Fatalf("ops = %d, want 13", s.Ops)
	}
	if s.Errors != 1 || s.Shed != 1 || s.Timeouts != 1 {
		t.Fatalf("errors/shed/timeouts = %d/%d/%d, want 1/1/1", s.Errors, s.Shed, s.Timeouts)
	}
	// Shed and timed-out spans don't count toward hit/miss: 10 gets + 1
	// errored put completed.
	if s.Hits+s.Misses != 11 {
		t.Fatalf("hits+misses = %d, want 11", s.Hits+s.Misses)
	}
	if s.Misses != 5 {
		t.Fatalf("misses = %d, want 5", s.Misses)
	}
	if want := 5.0 / 11.0; math.Abs(s.F-want) > 1e-9 {
		t.Fatalf("F = %v, want %v", s.F, want)
	}
	if s.ByOp["get"] != 11 || s.ByOp["put"] != 1 || s.ByOp["scan"] != 1 {
		t.Fatalf("ByOp = %v", s.ByOp)
	}
}

// TestNilTracerIsSafe exercises the whole disabled path.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *obs.Tracer
	sp := tr.Start(obs.OpGet)
	sp.Miss()
	sp.End(nil)
	sp.EndOutcome(obs.OutcomeShed) // double-end must also be safe
	tr.ObserveIO(true, 1, 1e-6, false)
	if s := tr.Snapshot(); s.Ops != 0 {
		t.Fatalf("nil tracer snapshot ops = %d", s.Ops)
	}
}

// --- CostSnapshot vs core closed forms ------------------------------------

// TestCostSnapshotMatchesCoreClosedForms cross-checks the live-model
// arithmetic against internal/core's closed-form expressions for a sweep of
// measured (F, R, ROPS) triples.
func TestCostSnapshotMatchesCoreClosedForms(t *testing.T) {
	base := core.PaperCosts()
	for _, tc := range []struct {
		f, r, rops float64
	}{
		{0, 1, 4e6},
		{0.01, 5.8, 4e6},
		{0.1, 3.0, 2e6},
		{0.5, 10.0, 1e6},
		{1.0, 2.0, 5e5},
	} {
		s := obs.CostSnapshot{F: tc.f, R: tc.r, ROPS: tc.rops}
		live := s.LiveCosts(base)
		if live.ROPS != tc.rops || live.R != tc.r {
			t.Fatalf("LiveCosts did not substitute measured inputs: %+v", live)
		}
		// $/op: (1-F) * P/ROPS + F * (I/IOPS + R*P/ROPS), per Section 3.2.
		mm := base.Processor / tc.rops
		ss := base.IOPSCost/base.IOPS + tc.r*base.Processor/tc.rops
		want := (1-tc.f)*mm + tc.f*ss
		if got := s.DollarPerOp(base); math.Abs(got-want)/want > 1e-12 {
			t.Fatalf("F=%v R=%v: DollarPerOp = %v, want %v", tc.f, tc.r, got, want)
		}
		if got, want := s.DollarPerOp(base), (1-tc.f)*live.MMExecCostPerOp()+tc.f*live.SSExecCostPerOp(); math.Abs(got-want) > 1e-18 {
			t.Fatalf("DollarPerOp disagrees with core methods: %v vs %v", got, want)
		}
		// Live breakeven: (I/IOPS + (R-1)*P/ROPS) / ($M * Ps), Eq. 7 shape.
		wantBE := (base.IOPSCost/base.IOPS + (tc.r-1)*base.Processor/tc.rops) / (base.DRAMPerByte * base.PageSize)
		if got := s.BreakevenInterval(base); math.Abs(got-wantBE)/wantBE > 1e-12 {
			t.Fatalf("F=%v R=%v: breakeven = %v, want %v", tc.f, tc.r, got, wantBE)
		}
		if got, want := s.BreakevenInterval(base), live.BreakevenInterval(); got != want {
			t.Fatalf("breakeven disagrees with core method: %v vs %v", got, want)
		}
	}
}

// TestSnapshotDerivedModelInputs checks that a tracer driven with known
// hit/miss latencies reports R and PF consistent with core.MixedThroughput.
func TestSnapshotDerivedModelInputs(t *testing.T) {
	tr := obs.NewTracer("drive")
	// Synthesize spans by sleeping is flaky; instead verify the derived
	// identities on whatever latencies real spans produce.
	for i := 0; i < 200; i++ {
		sp := tr.Start(obs.OpGet)
		if i%4 == 0 {
			sp.Miss()
			for j := 0; j < 2000; j++ {
				_ = j * j // burn a little time so misses are slower
			}
		}
		sp.End(nil)
	}
	s := tr.Snapshot()
	if s.MeanHit <= 0 {
		t.Fatal("no hit latency measured")
	}
	if got, want := s.ROPS, 1e9/float64(s.MeanHit.Nanoseconds()); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("ROPS = %v, want 1/MeanHit = %v", got, want)
	}
	if s.R < 1 {
		t.Fatalf("R = %v, must be clamped >= 1", s.R)
	}
	r := s.R
	if got, want := s.PF, core.MixedThroughput(s.ROPS, s.F, r); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("PF = %v, want MixedThroughput = %v", got, want)
	}
	if s.PF > s.ROPS+1e-9 {
		t.Fatalf("PF = %v exceeds P0 = %v", s.PF, s.ROPS)
	}
}

// TestRegistryFoldsLegacyCounters checks RetryStats attachments surface in
// snapshots.
func TestRegistryFoldsLegacyCounters(t *testing.T) {
	reg := obs.NewRegistry()
	tr := reg.Tracer("legacy")
	if got := reg.Tracer("legacy"); got != tr {
		t.Fatal("Tracer not idempotent by name")
	}
	var rs metrics.RetryStats
	rs.Attempts.Add(9)
	rs.Retries.Add(2)
	tr.FoldRetries(&rs)

	snaps := reg.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.RetryAttempts != 9 || s.Retries != 2 {
		t.Fatalf("folded retries = %+v", s)
	}
	if s.Health != "healthy" {
		t.Fatalf("health = %q", s.Health)
	}
}

// TestRegistryFoldsReplStats pins the warm-standby fold: ship volume, lag,
// and failover counters surface in the snapshot, and the live cost model
// charges the standby's extra flash leg (Eq. 4-6 with one more replica).
func TestRegistryFoldsReplStats(t *testing.T) {
	reg := obs.NewRegistry()
	tr := reg.Tracer("cluster")
	var rs metrics.ReplStats
	rs.BatchesShipped.Add(12)
	rs.BytesShipped.Add(4096)
	rs.Resends.Add(3)
	rs.Promotions.Add(1)
	rs.FencedWrites.Add(2)
	rs.PrimaryDurable.Set(1000)
	rs.AppliedLSN.Set(900)
	tr.FoldRepl(&rs)

	s := reg.Snapshots()[0]
	if !s.Replicated {
		t.Fatal("snapshot not marked replicated")
	}
	if s.ShipBatches != 12 || s.ShipBytes != 4096 || s.ShipResends != 3 {
		t.Fatalf("ship accounting = %+v", s)
	}
	if s.ReplLagBytes != 100 || s.Promotions != 1 || s.FencedWrites != 2 {
		t.Fatalf("lag/failover accounting = %+v", s)
	}
	// One extra replication leg: flash rent and IOPS rent double vs base.
	base := core.PaperCosts()
	live := s.LiveCosts(base)
	if live.FlashPerByte != 2*base.FlashPerByte || live.IOPSCost != 2*base.IOPSCost {
		t.Fatalf("replicated legs: FlashPerByte=%v IOPSCost=%v, want doubled", live.FlashPerByte, live.IOPSCost)
	}
	// Mirrored AND replicated = three legs (two mirror legs + standby copy).
	s.Mirrored = true
	live = s.LiveCosts(base)
	if live.FlashPerByte != 3*base.FlashPerByte {
		t.Fatalf("mirror+standby legs: FlashPerByte=%v, want tripled", live.FlashPerByte)
	}
}

// TestRegistryFoldsLimiterStats pins the adaptive-admission fold: the live
// limit, gradient adjustment count, per-class shed breakdown, and
// retry-after hint surface in the snapshot, in the narrator line, and in
// the JSON export benchdiff compares.
func TestRegistryFoldsLimiterStats(t *testing.T) {
	reg := obs.NewRegistry()
	tr := reg.Tracer("adaptive")
	var ls metrics.LimiterStats
	ls.Limit.Set(24)
	ls.Inflight.Set(5)
	ls.LimitUps.Add(4)
	ls.LimitDowns.Add(6)
	ls.Shed.Scan.Add(40)
	ls.Shed.Low.Add(7)
	ls.Shed.Normal.Add(2)
	ls.RetryAfterMicros.Set(1500)
	tr.FoldLimiter(&ls)

	s := reg.Snapshots()[0]
	if !s.Limited {
		t.Fatal("snapshot not marked Limited")
	}
	if s.Limit != 24 || s.LimitChanges != 10 {
		t.Fatalf("limit fold = limit=%d changes=%d", s.Limit, s.LimitChanges)
	}
	if s.ShedByScan != 40 || s.ShedByLow != 7 || s.ShedByNormal != 2 || s.ShedByHigh != 0 {
		t.Fatalf("shed fold = %d/%d/%d/%d", s.ShedByScan, s.ShedByLow, s.ShedByNormal, s.ShedByHigh)
	}
	if s.RetryAfterMicros != 1500 {
		t.Fatalf("retry-after fold = %d", s.RetryAfterMicros)
	}

	base := core.PaperCosts()
	line := s.Line(base)
	if !strings.Contains(line, "limit=24") || !strings.Contains(line, "shed[s/l/n/h]=40/7/2/0") {
		t.Fatalf("narrator line missing limiter fields: %s", line)
	}
	exp := s.Export(base)
	if !exp.Limited || exp.Limit != 24 || exp.ShedScan != 40 || exp.ShedLow != 7 ||
		exp.ShedNormal != 2 || exp.ShedHigh != 0 || exp.LimitChanges != 10 {
		t.Fatalf("export missing limiter fields: %+v", exp)
	}
}
