package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"costperf/internal/core"
	"costperf/internal/metrics"
)

// Registry aggregates per-store tracers and renders their CostSnapshots.
type Registry struct {
	mu      sync.Mutex
	tracers map[string]*Tracer
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tracers: make(map[string]*Tracer)}
}

// Tracer returns the tracer registered under name, creating it on first
// use. Safe for concurrent use.
func (r *Registry) Tracer(name string) *Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tracers[name]; ok {
		return t
	}
	t := NewTracer(name)
	r.tracers[name] = t
	r.order = append(r.order, name)
	return t
}

// ResetAll resets every registered tracer — a phase boundary for all stores
// at once (kvbench uses it to drop the load phase from the measured run).
func (r *Registry) ResetAll() {
	r.mu.Lock()
	ts := make([]*Tracer, 0, len(r.tracers))
	for _, t := range r.tracers {
		ts = append(ts, t)
	}
	r.mu.Unlock()
	for _, t := range ts {
		t.Reset()
	}
}

// Snapshots returns one CostSnapshot per registered tracer, in
// registration order.
func (r *Registry) Snapshots() []CostSnapshot {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	ts := make([]*Tracer, len(names))
	for i, n := range names {
		ts[i] = r.tracers[n]
	}
	r.mu.Unlock()
	out := make([]CostSnapshot, len(ts))
	for i, t := range ts {
		out[i] = t.Snapshot()
	}
	return out
}

// CostSnapshot is a point-in-time summary of one store's measured
// cost/performance inputs: everything the core model (paper Eq. 1-8) needs,
// taken from live counters instead of assumed constants.
type CostSnapshot struct {
	Store   string
	Elapsed time.Duration

	// Span-level operation accounting.
	Ops      int64
	Errors   int64
	Shed     int64
	Timeouts int64
	Canceled int64
	ByOp     map[string]int64

	// Cache behaviour over completed ops: Hits stayed in memory, Misses
	// synchronously touched secondary storage. F is the measured miss
	// ratio (the paper's cache-miss fraction).
	Hits   int64
	Misses int64
	F      float64

	// Latency over all ended spans (nanoseconds in the histogram,
	// durations here).
	P50, P95, P99 time.Duration
	Mean          time.Duration
	MeanHit       time.Duration // measured MM-op latency
	MeanMiss      time.Duration // measured SS-op latency

	// Model inputs derived from the above. ROPS is the measured
	// main-memory op rate (1/MeanHit); R is the measured SS/MM latency
	// ratio (paper's R, clamped >= 1); PF is the modeled throughput at
	// the measured F and R per Eq. 2, P0/((1-F) + F*R).
	ROPS float64
	R    float64
	PF   float64

	// Physical device accounting (from the device observer).
	DeviceReads  int64
	DeviceWrites int64
	FailedIOs    int64 // failed physical attempts (counted, but no bytes)
	BytesRead    int64
	BytesWritten int64
	IOPS         float64       // successful physical I/Os per wall second
	DeviceBusy   time.Duration // accumulated device-busy time observed
	Utilization  float64       // device busy time / elapsed wall time

	// Folded retry accounting.
	RetryAttempts  int64
	Retries        int64
	RetryAbsorbed  int64
	RetryExhausted int64

	// Folded self-healing mirror accounting (zero when the store runs on
	// a bare device). Mirrored reports double the secondary-storage rent
	// in the cost model (core.Costs.WithReplication).
	Mirrored     bool
	ReadRepairs  int64 // pages healed by the verified read path
	ScrubRepairs int64 // pages healed by the background scrubber
	ScrubReads   int64 // scrubber verification reads (per leg per page)
	ScrubPasses  int64 // completed scrub sweeps
	Quarantined  int64 // pages lost on both legs and disabled

	// Folded warm-standby replication accounting (internal/repl). A
	// replicated store rents a second copy of the flash plus the ship
	// bandwidth — one extra replication leg in the cost model.
	Replicated   bool
	ShipBatches  int64 // frames handed to the transport (incl. resends)
	ShipBytes    int64 // payload bytes handed to the transport
	ShipResends  int64 // frames re-shipped after a timeout or nak
	ReplLagBytes int64 // standby applied-LSN lag behind primary durable
	Promotions   int64 // standby promotions (failovers)
	FencedWrites int64 // stale-primary commits rejected by the epoch gate

	// The live admission limiter's accounting (internal/overload, see
	// Tracer.SetLimiter). Limited reports a limiter is attached; Limit is
	// the live (learned or static) concurrency limit and LimitChanges the gradient's up+down
	// adjustments. The ShedBy* fields break shed admissions down by
	// priority class — the brownout ladder's footprint: a healthy
	// degradation sheds scans long before it sheds normal traffic.
	Limited          bool
	Limit            int64
	LimitChanges     int64
	ShedByScan       int64
	ShedByLow        int64
	ShedByNormal     int64
	ShedByHigh       int64
	RetryAfterMicros int64

	Health string
}

// Snapshot summarizes the tracer's counters right now. Nil-safe.
func (t *Tracer) Snapshot() CostSnapshot {
	if t == nil {
		return CostSnapshot{}
	}
	s := CostSnapshot{
		Store:   t.name,
		Elapsed: time.Since(t.start),
		ByOp:    make(map[string]int64, int(opCount)),
	}
	for op := Op(0); op < opCount; op++ {
		m := &t.ops[op]
		n := m.count.Load()
		if n != 0 {
			s.ByOp[op.String()] = n
		}
		s.Ops += n
		s.Errors += m.errs.Load()
		s.Shed += m.shed.Load()
		s.Timeouts += m.timeouts.Load()
		s.Canceled += m.canceled.Load()
		s.Hits += m.hits.Load()
		s.Misses += m.misses.Load()
	}
	if s.Hits+s.Misses > 0 {
		s.F = float64(s.Misses) / float64(s.Hits+s.Misses)
	}

	ls := t.lat.Snapshot()
	s.P50, s.P95, s.P99 = time.Duration(ls.P50), time.Duration(ls.P95), time.Duration(ls.P99)
	s.Mean = time.Duration(ls.Mean)
	s.MeanHit = meanNanos(t.hitNanos.Load(), s.Hits)
	s.MeanMiss = meanNanos(t.missNanos.Load(), s.Misses)

	if s.MeanHit > 0 {
		s.ROPS = 1e9 / float64(s.MeanHit.Nanoseconds())
		if s.MeanMiss > 0 {
			s.R = float64(s.MeanMiss) / float64(s.MeanHit)
			if s.R < 1 {
				s.R = 1
			}
		}
	}
	if s.ROPS > 0 {
		r := s.R
		if r < 1 {
			r = 1
		}
		s.PF = core.MixedThroughput(s.ROPS, s.F, r)
	}

	// Device accounting: the observer feed.
	s.DeviceReads = t.io.reads.Load()
	s.DeviceWrites = t.io.writes.Load()
	s.FailedIOs = t.io.failed.Load()
	s.BytesRead = t.io.bytesR.Load()
	s.BytesWritten = t.io.bytesW.Load()
	busy := time.Duration(t.io.busyNanos.Load())
	s.DeviceBusy = busy

	t.mu.Lock()
	retries := append([]*metrics.RetryStats(nil), t.retries...)
	healths := append([]*metrics.Health(nil), t.healths...)
	mirrors := append([]*metrics.MirrorStats(nil), t.mirrors...)
	repls := append([]*metrics.ReplStats(nil), t.repls...)
	l := t.limiter
	t.mu.Unlock()

	for _, r := range retries {
		s.RetryAttempts += r.Attempts.Value()
		s.Retries += r.Retries.Value()
		s.RetryAbsorbed += r.Absorbed.Value()
		s.RetryExhausted += r.Exhausted.Value()
	}
	for _, m := range mirrors {
		s.Mirrored = true
		s.ReadRepairs += m.ReadRepairs.Value()
		s.ScrubRepairs += m.ScrubRepairs.Value()
		s.ScrubReads += m.ScrubReads.Value()
		s.ScrubPasses += m.ScrubPasses.Value()
		s.Quarantined += m.Quarantined.Value()
	}
	for _, rp := range repls {
		s.Replicated = true
		s.ShipBatches += rp.BatchesShipped.Value()
		s.ShipBytes += rp.BytesShipped.Value()
		s.ShipResends += rp.Resends.Value()
		s.ReplLagBytes += rp.LagBytes()
		s.Promotions += rp.Promotions.Value()
		s.FencedWrites += rp.FencedWrites.Value()
	}
	if l != nil {
		s.Limited = true
		s.Limit = l.Limit.Value()
		s.LimitChanges = l.LimitUps.Value() + l.LimitDowns.Value()
		s.ShedByScan = l.Shed.Scan.Value()
		s.ShedByLow = l.Shed.Low.Value()
		s.ShedByNormal = l.Shed.Normal.Value()
		s.ShedByHigh = l.Shed.High.Value()
		s.RetryAfterMicros = l.RetryAfterMicros.Value()
	}
	s.Health = "healthy"
	for _, h := range healths {
		if st := h.State(); st != metrics.HealthHealthy {
			s.Health = st.String()
		}
	}

	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.IOPS = float64(s.DeviceReads+s.DeviceWrites) / sec
		s.Utilization = busy.Seconds() / sec
	}
	return s
}

// meanNanos is the mean latency of n spans whose latencies sum to sum
// nanoseconds, or 0 with none.
func meanNanos(sum, n int64) time.Duration {
	if n == 0 {
		return 0
	}
	return time.Duration(float64(sum) / float64(n))
}

// LiveCosts substitutes the snapshot's measured ROPS and R into base,
// yielding a cost model parameterized by what this store actually did.
// Unmeasured inputs (no completed hits, no misses) keep the base values.
// A mirrored store pays the two-leg secondary-storage rent, and a
// replicated one pays an extra leg for the warm standby's copy of the
// flash (core.Costs.WithReplication) — so live $/op and breakeven reflect
// the redundancy each configuration bought.
func (s CostSnapshot) LiveCosts(base core.Costs) core.Costs {
	c := base
	legs := 1
	if s.Mirrored {
		legs = 2
	}
	if s.Replicated {
		legs++ // the standby's full second copy (DESIGN.md, Eq. 4-6)
	}
	if legs > 1 {
		c = c.WithReplication(legs)
	}
	if s.ROPS > 0 {
		c.ROPS = s.ROPS
	}
	if s.R >= 1 {
		c.R = s.R
	}
	return c
}

// DollarPerOp returns the measured execution cost per operation under the
// live model: (1-F) ops pay the MM execution cost, F ops pay the SS
// execution cost (paper Section 3.2, with F, R, ROPS measured).
func (s CostSnapshot) DollarPerOp(base core.Costs) float64 {
	c := s.LiveCosts(base)
	return (1-s.F)*c.MMExecCostPerOp() + s.F*c.SSExecCostPerOp()
}

// BreakevenInterval returns the live five-minute-rule breakeven (seconds)
// computed from the measured model inputs.
func (s CostSnapshot) BreakevenInterval(base core.Costs) float64 {
	return s.LiveCosts(base).BreakevenInterval()
}

// Line renders a one-line narrator summary of the snapshot against base
// rental rates — used by the chaos harness to make overload and recovery
// episodes visible in traces.
func (s CostSnapshot) Line(base core.Costs) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s ops=%-7d err=%d shed=%d tmo=%d F=%.4f", s.Store, s.Ops, s.Errors, s.Shed, s.Timeouts, s.F)
	if s.R >= 1 {
		fmt.Fprintf(&b, " R=%.1f", s.R)
	}
	fmt.Fprintf(&b, " p50=%s p99=%s io=%.0f/s util=%.0f%%", s.P50, s.P99, s.IOPS, 100*s.Utilization)
	fmt.Fprintf(&b, " $/Mop=%.3f be=%.0fs", 1e6*s.DollarPerOp(base), s.BreakevenInterval(base))
	if s.Limited {
		fmt.Fprintf(&b, " limit=%d", s.Limit)
		if shed := s.ShedByScan + s.ShedByLow + s.ShedByNormal + s.ShedByHigh; shed > 0 {
			fmt.Fprintf(&b, " shed[s/l/n/h]=%d/%d/%d/%d",
				s.ShedByScan, s.ShedByLow, s.ShedByNormal, s.ShedByHigh)
		}
	}
	if s.Mirrored {
		fmt.Fprintf(&b, " repair=%d quar=%d", s.ReadRepairs+s.ScrubRepairs, s.Quarantined)
	}
	if s.Replicated {
		fmt.Fprintf(&b, " ship=%dB lag=%dB", s.ShipBytes, s.ReplLagBytes)
		if s.Promotions > 0 {
			fmt.Fprintf(&b, " failovers=%d", s.Promotions)
		}
	}
	if s.Health != "" && s.Health != "healthy" {
		fmt.Fprintf(&b, " health=%s", s.Health)
	}
	return b.String()
}

// Table renders all registered stores' snapshots as an aligned text table
// with measured model inputs and live costs (kvbench -obs output).
func (r *Registry) Table(base core.Costs) string {
	snaps := r.Snapshots()
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %9s %7s %6s %8s %8s %8s %8s %7s %10s %8s %6s %10s %9s\n",
		"store", "ops", "errs", "shed", "p50", "p95", "p99", "F", "R",
		"ROPS", "IOPS", "util", "$/Mop", "breakeven")
	for _, s := range snaps {
		fmt.Fprintf(&b, "%-9s %9d %7d %6d %8s %8s %8s %8.4f %7.1f %10.0f %8.0f %5.0f%% %10.4f %8.1fs",
			s.Store, s.Ops, s.Errors, s.Shed,
			s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
			s.F, s.R, s.ROPS, s.IOPS, 100*s.Utilization,
			1e6*s.DollarPerOp(base), s.BreakevenInterval(base))
		if s.Limited {
			fmt.Fprintf(&b, "  [limiter: limit=%d adj=%d shed scan=%d low=%d normal=%d high=%d retry-after=%dus]",
				s.Limit, s.LimitChanges,
				s.ShedByScan, s.ShedByLow, s.ShedByNormal, s.ShedByHigh, s.RetryAfterMicros)
		}
		if s.Mirrored {
			// The mirrored $/Mop and breakeven above already include the
			// doubled SS rent (LiveCosts applies WithReplication(2)).
			fmt.Fprintf(&b, "  [mirror x2: repairs=%d (read=%d scrub=%d) quarantined=%d scrub-reads=%d passes=%d]",
				s.ReadRepairs+s.ScrubRepairs, s.ReadRepairs, s.ScrubRepairs,
				s.Quarantined, s.ScrubReads, s.ScrubPasses)
		}
		if s.Replicated {
			// The replicated $/Mop and breakeven above already include the
			// standby's extra flash leg (LiveCosts adds a replication leg).
			fmt.Fprintf(&b, "  [standby: shipped=%d/%dB resends=%d lag=%dB failovers=%d fenced=%d]",
				s.ShipBatches, s.ShipBytes, s.ShipResends,
				s.ReplLagBytes, s.Promotions, s.FencedWrites)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Narrate renders one narrator line per store with recorded ops, sorted by
// store name — compact enough for periodic emission from a harness.
func (r *Registry) Narrate(base core.Costs) []string {
	snaps := r.Snapshots()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Store < snaps[j].Store })
	var out []string
	for _, s := range snaps {
		if s.Ops == 0 {
			continue
		}
		out = append(out, s.Line(base))
	}
	return out
}
