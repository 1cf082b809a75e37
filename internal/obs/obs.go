// Package obs is the repo's observability layer: lock-cheap per-operation
// tracing spans, atomic sliding-window histograms, and a registry that folds
// per-store telemetry into CostSnapshots the internal/core cost model can
// consume directly. The point (following the paper's Eq. 1-8) is that hit
// rates, R, ROPS, and IOPS are *measured* here, not assumed: a live
// five-minute-rule breakeven is recomputed from what the stores actually did.
//
// The disabled path is free: a nil *Tracer hands out zero-value Spans whose
// methods are no-ops, without allocating or reading the clock, so stores can
// thread spans unconditionally.
package obs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/metrics"
)

// Op classifies a traced operation.
type Op uint8

const (
	OpGet Op = iota
	OpPut
	OpDelete
	OpScan
	OpCommit
	OpFlush
	opCount
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpCommit:
		return "commit"
	case OpFlush:
		return "flush"
	}
	return "op?"
}

// Outcome classifies how a traced operation ended.
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeError
	OutcomeShed     // rejected by admission control / circuit breaker
	OutcomeTimeout  // deadline exceeded
	OutcomeCanceled // caller canceled
)

// opMeter accumulates per-op-type counters. All fields are atomics so spans
// from any number of goroutines can end concurrently.
type opMeter struct {
	count    atomic.Int64
	errs     atomic.Int64
	shed     atomic.Int64
	timeouts atomic.Int64
	canceled atomic.Int64
	hits     atomic.Int64 // ops served without touching secondary storage
	misses   atomic.Int64 // ops that synchronously touched secondary storage
}

// ioMeter accumulates device-level accounting delivered via ObserveIO.
type ioMeter struct {
	reads     atomic.Int64
	writes    atomic.Int64
	failed    atomic.Int64 // failed physical attempts (retried or not)
	bytesR    atomic.Int64
	bytesW    atomic.Int64
	busyNanos atomic.Int64
}

// Tracer collects spans and device I/O accounting for one store. All hot
// paths are atomic-only; the mutex guards only the attachment lists, which
// change at setup time.
type Tracer struct {
	name  string
	start time.Time

	ops [opCount]opMeter

	lat     Histogram // all ended spans, nanoseconds
	hitLat  Histogram // spans that stayed in memory
	missLat Histogram // spans that synchronously touched the device

	io ioMeter

	mu       sync.Mutex
	retries  []*metrics.RetryStats
	healths  []*metrics.Health
	mirrors  []*metrics.MirrorStats
	repls    []*metrics.ReplStats
	limiters []*metrics.LimiterStats
}

// NewTracer returns a standalone tracer. Prefer Registry.Tracer so snapshots
// aggregate; a nil *Tracer is itself valid and means "tracing off".
func NewTracer(name string) *Tracer {
	return &Tracer{name: name, start: time.Now()}
}

// Name returns the store name this tracer was registered under.
func (t *Tracer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Span is a value-typed in-flight operation record. It is created by
// Tracer.Start and finished by exactly one End* call. The zero Span (from a
// nil tracer) is valid and every method on it is a no-op, so instrumented
// code needs no enabled-checks.
type Span struct {
	tr   *Tracer
	op   Op
	t0   time.Time
	miss bool
}

// Start begins a span for op. On a nil tracer it returns the zero Span and
// does not read the clock.
func (t *Tracer) Start(op Op) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, op: op, t0: time.Now()}
}

// Miss marks the operation as having synchronously touched secondary
// storage (a cache/buffer-pool miss, a forced flush, a log-structured
// page load). Unmarked spans count as hits: pure main-memory operations.
func (s *Span) Miss() { s.miss = true }

// End finishes the span, classifying the outcome from err: nil is OK,
// context deadline/cancel map to timeout/canceled, anything else is an
// error. Safe on the zero Span.
func (s *Span) End(err error) {
	switch {
	case err == nil:
		s.EndOutcome(OutcomeOK)
	case errors.Is(err, context.DeadlineExceeded):
		s.EndOutcome(OutcomeTimeout)
	case errors.Is(err, context.Canceled):
		s.EndOutcome(OutcomeCanceled)
	default:
		s.EndOutcome(OutcomeError)
	}
}

// EndOutcome finishes the span with an explicit outcome (the engine uses
// this to tag shed and circuit-rejected operations).
func (s *Span) EndOutcome(o Outcome) {
	t := s.tr
	if t == nil {
		return
	}
	s.tr = nil // guard against double End
	lat := time.Since(s.t0).Nanoseconds()

	m := &t.ops[s.op]
	m.count.Add(1)
	switch o {
	case OutcomeError:
		m.errs.Add(1)
	case OutcomeShed:
		m.shed.Add(1)
	case OutcomeTimeout:
		m.timeouts.Add(1)
	case OutcomeCanceled:
		m.canceled.Add(1)
	}

	t.lat.Observe(lat)
	// Hit/miss (and the split latency histograms feeding measured R and
	// ROPS) only count operations that ran to completion: shed or
	// timed-out ops never learned whether they would have hit.
	if o == OutcomeOK || o == OutcomeError {
		if s.miss {
			m.misses.Add(1)
			t.missLat.Observe(lat)
		} else {
			m.hits.Add(1)
			t.hitLat.Observe(lat)
		}
	}
}

// Reset zeroes every counter and restarts the tracer's clock. It is meant
// for phase boundaries (e.g. discarding a benchmark's load phase) while the
// store is quiescent; it is not atomic with respect to in-flight spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.ops {
		m := &t.ops[i]
		m.count.Store(0)
		m.errs.Store(0)
		m.shed.Store(0)
		m.timeouts.Store(0)
		m.canceled.Store(0)
		m.hits.Store(0)
		m.misses.Store(0)
	}
	t.lat.reset()
	t.hitLat.reset()
	t.missLat.reset()
	t.io.reads.Store(0)
	t.io.writes.Store(0)
	t.io.failed.Store(0)
	t.io.bytesR.Store(0)
	t.io.bytesW.Store(0)
	t.io.busyNanos.Store(0)
	t.start = time.Now()
}

// ObserveIO receives one physical device transfer. It implements the
// ssd.IOObserver interface structurally (obs does not import ssd), so a
// tracer can be handed straight to Device.SetObserver. failed attempts are
// counted (and their busy time accrued) but move no payload bytes. Nil-safe.
func (t *Tracer) ObserveIO(write bool, bytes int, busySec float64, failed bool) {
	if t == nil {
		return
	}
	if failed {
		t.io.failed.Add(1)
	} else if write {
		t.io.writes.Add(1)
		t.io.bytesW.Add(int64(bytes))
	} else {
		t.io.reads.Add(1)
		t.io.bytesR.Add(int64(bytes))
	}
	t.io.busyNanos.Add(int64(busySec * 1e9))
}

// FoldRetries attaches a RetryStats block to fold into snapshots.
func (t *Tracer) FoldRetries(r *metrics.RetryStats) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	t.retries = append(t.retries, r)
	t.mu.Unlock()
}

// FoldHealth attaches a Health gauge; snapshots report the worst state.
func (t *Tracer) FoldHealth(h *metrics.Health) {
	if t == nil || h == nil {
		return
	}
	t.mu.Lock()
	t.healths = append(t.healths, h)
	t.mu.Unlock()
}

// FoldMirror attaches a mirrored device's self-healing counters (ssd.Mirror
// read-repair, scrub, and quarantine activity) to fold into snapshots.
func (t *Tracer) FoldMirror(m *metrics.MirrorStats) {
	if t == nil || m == nil {
		return
	}
	t.mu.Lock()
	t.mirrors = append(t.mirrors, m)
	t.mu.Unlock()
}

// FoldRepl attaches a log-shipping replication counter block (shared by an
// internal/repl shipper/standby pair) to fold into snapshots. A snapshot
// with a folded ReplStats reports Replicated, which charges the standby's
// secondary-storage rent in the live cost model.
func (t *Tracer) FoldRepl(r *metrics.ReplStats) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	t.repls = append(t.repls, r)
	t.mu.Unlock()
}

// FoldLimiter attaches an admission limiter's meters (internal/overload)
// to fold into snapshots: the live learned concurrency limit, gradient
// adjustment counts, and the per-priority-class shed breakdown that makes
// a brownout episode's shape visible in cost tables.
func (t *Tracer) FoldLimiter(l *metrics.LimiterStats) {
	if t == nil || l == nil {
		return
	}
	t.mu.Lock()
	t.limiters = append(t.limiters, l)
	t.mu.Unlock()
}
