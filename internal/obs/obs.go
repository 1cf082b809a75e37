// Package obs is the repo's observability layer: lock-cheap per-operation
// tracing spans, one lock-free latency histogram per store, and a registry
// that folds per-store telemetry into CostSnapshots the internal/core cost
// model can consume directly. The point (following the paper's Eq. 1-8) is
// that hit rates, R, ROPS, and IOPS are *measured* here, not assumed: a live
// five-minute-rule breakeven is recomputed from what the stores actually did.
//
// A span is an operation's one record: it carries the operation's
// sim.Charger, and it is a miss exactly when that charger recorded a device
// transfer while the span was open. The ssd device is the only place a
// transfer is recorded, and the same record makes the operation an SS
// operation in the session's tracker, so the two meters cannot disagree.
//
// The disabled path is free: a nil *Tracer hands out spans that only begin
// and settle the charger, without allocating or reading the clock, so
// stores can thread spans unconditionally.
package obs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/metrics"
	"costperf/internal/sim"
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

	lat metrics.Histogram // all ended spans, nanoseconds
	// Latency sums, in nanoseconds, of the spans counted in opMeter.hits
	// and .misses: divided by those counts they are the measured MM and
	// SS operation latencies behind R and ROPS.
	hitNanos  atomic.Int64
	missNanos atomic.Int64

	io ioMeter

	mu      sync.Mutex
	retries []*metrics.RetryStats
	healths []*metrics.Health
	mirrors []*metrics.MirrorStats
	repls   []*metrics.ReplStats
	limiter *metrics.LimiterStats // the live admission limiter, if any
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

// Span is an operation's one in-flight record, a value type holding its
// latency clock and its cost charger. It is created by Tracer.Start, Begin
// or Nest and finished by exactly one End* call.
//
// A span is a miss when its charger recorded a device transfer
// (sim.Charger.DeviceIO, counted only by the ssd device) between the
// span's start and its end, and a hit otherwise. Nothing else labels it.
//
// The zero Span (from a nil tracer) is valid: End settles a charger the
// span began and does nothing more, so instrumented code needs no
// enabled-checks.
type Span struct {
	tr  *Tracer
	ch  *sim.Charger
	t0  time.Time
	io0 int64 // ch.DeviceIOs() at the start
	op  Op
	own bool // the span began ch, and End settles it
}

// Start begins a span for op that carries no charger (a front-end span,
// or a flush charged to no operation). On a nil tracer it returns the zero
// Span and does not read the clock.
func (t *Tracer) Start(op Op) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, op: op, t0: time.Now()}
}

// Begin starts op as a store operation of its own: it begins s's charger,
// bound to ctx, and End settles it. With a nil Session the charger is nil,
// or detached when ctx can be cancelled (sim.Charger.WithContext). On a
// nil tracer only the charger is begun.
func (t *Tracer) Begin(op Op, s *sim.Session, ctx context.Context) Span {
	ch := s.Begin().WithContext(ctx) // a fresh charger: no transfers yet
	if t == nil {
		return Span{ch: ch, own: true}
	}
	return Span{tr: t, ch: ch, op: op, t0: time.Now(), own: true}
}

// Nest starts op inside a caller's operation: the span borrows the
// caller's charger ch (which may be nil) to learn whether this part of
// the operation reached the device, and never settles it.
func (t *Tracer) Nest(op Op, ch *sim.Charger) Span {
	sp := t.Start(op)
	sp.ch = ch
	sp.io0 = ch.DeviceIOs()
	return sp
}

// Charger returns the operation's charger, which may be nil: the
// operation is then neither charged nor cancellable.
func (s *Span) Charger() *sim.Charger { return s.ch }

// IO returns the charger to pass down a path that may reach the device.
// A traced span with no charger first gets a class-only one
// (sim.ClassOnly), so it still learns whether the device was reached;
// untraced, IO is Charger. Call it only on device paths: it allocates.
func (s *Span) IO() *sim.Charger {
	if s.ch == nil && s.tr != nil {
		s.ch = sim.ClassOnly()
	}
	return s.ch
}

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
//
// A charger the span began (Begin) is settled here under one rule: an
// operation that succeeded is recorded in its session's tracker, and one
// that failed in any way is abandoned, so the tracker counts completed
// operations only. The span's error counters record the failure.
func (s *Span) EndOutcome(o Outcome) {
	if s.own {
		s.own = false
		if o == OutcomeOK {
			s.ch.Settle()
		} else {
			s.ch.Abandon()
		}
	}
	if s.tr == nil {
		return
	}
	s.end(o, time.Since(s.t0).Nanoseconds())
}

// end records the span's outcome and its latency, lat nanoseconds.
func (s *Span) end(o Outcome, lat int64) {
	t := s.tr
	s.tr = nil // guard against double End

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
	// Hit/miss (and the split latency sums feeding measured R and ROPS)
	// only count operations that ran to completion: shed or timed-out ops
	// never learned whether they would have hit.
	if o == OutcomeOK || o == OutcomeError {
		if s.ch.DeviceIOs() != s.io0 {
			m.misses.Add(1)
			t.missNanos.Add(lat)
		} else {
			m.hits.Add(1)
			t.hitNanos.Add(lat)
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
	t.lat.Reset()
	t.hitNanos.Store(0)
	t.missNanos.Store(0)
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

// SetLimiter attaches the store's live admission limiter (internal/overload)
// so snapshots report its meters: the learned concurrency limit, gradient
// adjustment counts, and the per-priority-class shed breakdown that makes
// a brownout episode's shape visible in cost tables. A tracer reports one
// limiter: a later call replaces the earlier one, as a shard slot's new
// owner replaces the engine it retired.
func (t *Tracer) SetLimiter(l *metrics.LimiterStats) {
	if t == nil || l == nil {
		return
	}
	t.mu.Lock()
	t.limiter = l
	t.mu.Unlock()
}
