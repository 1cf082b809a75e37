// Package engine is the concurrent service front-end of the storage stack:
// a uniform wrapper that turns each store of the reproduction into a
// bounded, deadline-aware, overload-shedding service.
//
// The paper's cost/performance analysis treats each store as an engine
// serving a request stream; this package supplies the request-stream
// machinery the data structures themselves do not model:
//
//   - Deadlines. Every operation takes a context; DefaultTimeout bounds
//     requests that arrive without one. Cancellation propagates down the
//     charger into SSD waits and retry backoffs, so an abandoned request
//     stops burning the IOPS the cost model meters.
//
//   - Admission control. Concurrency in the store is bounded by an
//     internal/overload limiter: MaxConcurrent operations run at once
//     (or, with Adaptive set, a gradient-controlled limit that tracks
//     the store's latency knee), and up to MaxQueue more wait in a
//     priority-ordered queue. Beyond each priority class's queue bound
//     the engine fails fast with ErrOverload instead of letting latency
//     collapse — shedding is observable via the limiter's stats block
//     (embedded in Stats): per-class shed counters, queue depth, and the
//     wait-time histogram.
//     Operations carry a priority class in their context
//     (overload.WithClass); scans default to the first-shed class,
//     point ops to normal, and the breaker's half-open probes bypass
//     admission entirely so sustained overload can never starve the
//     probe that would prove recovery.
//
//   - Circuit breaking. A store whose own Health has latched degraded is
//     read-only: writes fail fast with ErrReadOnly. Independently, a run
//     of persistent write failures trips the engine's breaker open
//     (ErrCircuitOpen); once a jittered backoff interval has elapsed, the
//     next write is admitted as a half-open probe whose outcome closes the
//     circuit or re-opens it. Each failed probe doubles the backoff up to
//     ProbeMaxBackoff, and every interval is jittered across [d/2, d] so a
//     fleet of engines over a flapping store cannot synchronize into probe
//     storms.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/backoff"
	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/overload"
)

// Typed front-end errors.
var (
	// ErrOverload is returned when MaxConcurrent operations are running
	// and MaxQueue more are already waiting: the request is shed unserved.
	ErrOverload = errors.New("engine: overloaded (admission queue full)")
	// ErrCircuitOpen is returned by writes while the engine's breaker is
	// open after sustained persistent failures.
	ErrCircuitOpen = errors.New("engine: circuit open (writes failing fast)")
	// ErrReadOnly is returned by writes when the store's own health has
	// latched degraded: reads keep being served, writes cannot be trusted.
	ErrReadOnly = errors.New("engine: store degraded (read-only)")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("engine: closed")
)

// Config configures an Engine.
type Config struct {
	// Store is the wrapped store (required).
	Store Store
	// MaxConcurrent bounds in-store concurrency (default 64). With
	// Adaptive set it is only the starting point — the live limit moves
	// within [AdaptiveMin, AdaptiveMax] as the limiter tracks the store's
	// observed latency.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue for the highest priority
	// class; lower classes may only occupy a prefix of it (scans a
	// quarter, low-priority ops half — see overload.Class), so under
	// pressure the engine sheds strictly lowest-class-first. A request
	// past its class's bound is shed with ErrOverload
	// (default 2*MaxConcurrent).
	MaxQueue int
	// Adaptive enables the gradient concurrency limiter: instead of a
	// fixed MaxConcurrent, the engine measures each operation's in-store
	// latency and moves the limit toward the knee of the store's
	// latency/concurrency curve — down multiplicatively when latency
	// inflates past tolerance, up by a sqrt probe when it sits at the
	// floor. See internal/overload for the controller.
	Adaptive bool
	// AdaptiveMin/AdaptiveMax clamp the adaptive limit (defaults 2 and
	// 4*MaxConcurrent). Ignored unless Adaptive.
	AdaptiveMin int
	AdaptiveMax int
	// LimitWindow is the number of latency samples per gradient update
	// (default 64). Smaller windows converge faster at the cost of noise.
	// Ignored unless Adaptive.
	LimitWindow int
	// DefaultTimeout is applied to operations whose context carries no
	// deadline (0 = no default deadline).
	DefaultTimeout time.Duration
	// BreakerThreshold is the run of consecutive persistent write
	// failures that trips the circuit open (default 5).
	BreakerThreshold int
	// ProbeBackoff is the base interval before the open breaker admits a
	// half-open probe (default 10ms). Each failed probe doubles the
	// interval up to ProbeMaxBackoff; every interval is drawn jittered
	// from [d/2, d] so probes desynchronize across engines.
	ProbeBackoff time.Duration
	// ProbeMaxBackoff caps the doubling (default 100*ProbeBackoff).
	ProbeMaxBackoff time.Duration
	// ProbeJitterSeed seeds the jitter source (default 1); tests pin it
	// for reproducible schedules.
	ProbeJitterSeed int64
	// Obs, when non-nil, receives one tracing span per front-end
	// operation, with shed/read-only/circuit rejections tagged as shed
	// outcomes (see internal/obs). Nil traces nothing at zero cost.
	Obs *obs.Tracer
}

func (c *Config) setDefaults() error {
	if c.Store == nil {
		return errors.New("engine: nil store")
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = 10 * time.Millisecond
	}
	if c.ProbeMaxBackoff <= 0 {
		c.ProbeMaxBackoff = 100 * c.ProbeBackoff
	}
	if c.ProbeMaxBackoff < c.ProbeBackoff {
		c.ProbeMaxBackoff = c.ProbeBackoff
	}
	if c.ProbeJitterSeed == 0 {
		c.ProbeJitterSeed = 1
	}
	return nil
}

// Stats meters the front-end. All fields are safe for concurrent use.
type Stats struct {
	// LimiterStats is the admission limiter's own block (Admitted, Shed,
	// QueueDepth, QueuePeak, WaitMicros, ...): admission is counted once,
	// by the limiter, and the engine exposes that block in place.
	*metrics.LimiterStats
	// Timeouts counts operations that ended with a deadline-exceeded
	// context (while queued or while executing).
	Timeouts metrics.Counter
	// Cancels counts operations that ended cancelled (not by deadline).
	Cancels metrics.Counter
	// ReadOnlyRejects counts writes refused because the store's own
	// health is degraded.
	ReadOnlyRejects metrics.Counter
	// CircuitRejects counts writes refused by the open breaker.
	CircuitRejects metrics.Counter
	// Breaker is the circuit state: healthy = closed, degraded = open,
	// probing = half-open. Its Probes/Restores counters meter the
	// half-open cycle; Degradations counts trips (including re-trips
	// after failed probes).
	Breaker metrics.Health
}

// String renders the front-end counters for experiment logs.
func (s *Stats) String() string {
	return fmt.Sprintf("admitted=%d shed=%d timeouts=%d cancels=%d readonly=%d circuit=%d qpeak=%d breaker=%s",
		s.Admitted.Value(), s.Shed.Value(), s.Timeouts.Value(), s.Cancels.Value(),
		s.ReadOnlyRejects.Value(), s.CircuitRejects.Value(), s.QueuePeak.Value(), s.Breaker.String())
}

// Engine is the concurrent front-end. All methods are safe for concurrent
// use.
type Engine struct {
	cfg   Config
	lim   *overload.Limiter
	stats Stats

	consecFail atomic.Int64 // consecutive persistent write failures
	closed     atomic.Bool

	// Probe scheduling: probeAt is the earliest wall-clock nanosecond at
	// which the open breaker admits a half-open probe (atomic, read on the
	// rejected-write fast path); probeWait and the jitter source change
	// only on breaker transitions, under probeMu.
	probeAt   atomic.Int64
	probeMu   sync.Mutex
	probeWait time.Duration
	probeSrc  *backoff.Source
}

// New creates an engine over the given store.
func New(cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		probeSrc: backoff.New(backoff.Policy{
			Base: cfg.ProbeBackoff,
			Max:  cfg.ProbeMaxBackoff,
		}, cfg.ProbeJitterSeed),
	}
	e.lim = overload.NewLimiter(overload.Config{
		Initial:  cfg.MaxConcurrent,
		Min:      cfg.AdaptiveMin,
		Max:      cfg.AdaptiveMax,
		MaxQueue: cfg.MaxQueue,
		Static:   !cfg.Adaptive,
		Window:   cfg.LimitWindow,
	})
	e.stats.LimiterStats = e.lim.Stats()
	cfg.Obs.FoldLimiter(e.lim.Stats())
	return e, nil
}

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Limiter exposes the admission limiter: the shard router consults it
// for fail-fast scatter decisions (WouldShed) and the wire server for
// retry-after hints; obs folds its stats into cost snapshots.
func (e *Engine) Limiter() *overload.Limiter { return e.lim }

// RetryAfterHint is the advisory backoff a shed caller should wait
// before retrying, derived from the limiter's live backlog (the wire
// server forwards it inside StatusOverload responses).
func (e *Engine) RetryAfterHint() time.Duration { return e.lim.RetryAfter() }

// Store returns the wrapped store (for harnesses that need direct access,
// e.g. to force a checkpoint).
func (e *Engine) Store() Store { return e.cfg.Store }

// admit acquires an execution slot at the given priority class, applying
// the default deadline. The returned done func releases the slot and must
// be called exactly once when err is nil.
func (e *Engine) admit(parent context.Context, class overload.Class) (ctx context.Context, done func(), err error) {
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	if parent == nil {
		parent = context.Background()
	}
	ctx = parent
	cancel := func() {}
	if e.cfg.DefaultTimeout > 0 {
		if _, has := parent.Deadline(); !has {
			ctx, cancel = context.WithTimeout(parent, e.cfg.DefaultTimeout)
		}
	}
	tk, aerr := e.lim.Acquire(ctx, class)
	if aerr != nil {
		cancel()
		if errors.Is(aerr, overload.ErrShed) {
			// Past this class's queue bound: shed rather than waiting —
			// bounded queues keep shed requests cheap and waiting requests'
			// latency bounded.
			return nil, nil, ErrOverload
		}
		e.noteAbort(aerr)
		// Wrap rather than fold into ErrOverload: the caller's clock
		// ran out while queued, which is a deadline/cancel outcome, and
		// front-ends that translate errors into status codes (the wire
		// server) must report it as such, not as load shedding.
		return nil, nil, fmt.Errorf("engine: admission wait aborted: %w", aerr)
	}
	done = func() {
		// Release feeds the op's in-store latency to the gradient
		// controller — the signal the adaptive limit steers by.
		e.lim.Release(tk, true)
		cancel()
	}
	return ctx, done, nil
}

// admitWrite admits a gated write. An ordinary write carries the class
// its context declares (normal by default); the breaker's half-open
// probe is admitted at ClassProbe, which bypasses both the limit and the
// queue — under sustained overload the admission queue used to be able
// to shed the probe, leaving the breaker latched probing with no verdict
// ever coming (the bug this exemption fixes). If probe admission still
// fails (the engine closed underneath it), the half-open slot is
// returned to the open state and the probe re-armed, so the breaker
// cannot leak its single probe token.
func (e *Engine) admitWrite(parent context.Context, probe bool) (context.Context, func(), error) {
	class := overload.ClassFrom(parent, overload.ClassNormal)
	if probe {
		class = overload.ClassProbe
	}
	ctx, done, err := e.admit(parent, class)
	if err != nil && probe {
		e.stats.Breaker.Degrade("probe aborted in admission")
		e.rearmProbe()
	}
	return ctx, done, err
}

// noteAbort meters a context-terminated operation.
func (e *Engine) noteAbort(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		e.stats.Timeouts.Inc()
	case errors.Is(err, context.Canceled):
		e.stats.Cancels.Inc()
	}
}

// gateWrite decides whether a write may proceed. It returns probe=true
// when the write was admitted as the breaker's half-open probe.
func (e *Engine) gateWrite() (probe bool, err error) {
	if h := e.cfg.Store.Health(); h != nil && h.Degraded() {
		e.stats.ReadOnlyRejects.Inc()
		return false, ErrReadOnly
	}
	switch e.stats.Breaker.State() {
	case metrics.HealthHealthy:
		return false, nil
	case metrics.HealthProbing:
		// A probe is in flight; everyone else keeps failing fast.
		e.stats.CircuitRejects.Inc()
		return false, ErrCircuitOpen
	default: // open
		if time.Now().UnixNano() >= e.probeAt.Load() && e.stats.Breaker.Probe() {
			return true, nil
		}
		e.stats.CircuitRejects.Inc()
		return false, ErrCircuitOpen
	}
}

// jitter draws a probe interval uniformly from [d/2, d] — the full-period
// half-jitter that keeps a fleet of breakers over the same flapping store
// from probing in lockstep while still honoring the backoff's order of
// magnitude (see internal/backoff, which owns the draw).
func (e *Engine) jitter(d time.Duration) time.Duration {
	return e.probeSrc.Jitter(d)
}

// armProbe schedules the breaker's next half-open probe. A fresh trip
// (reset) restarts the backoff at ProbeBackoff; a failed probe doubles it
// up to ProbeMaxBackoff. The armed deadline is jittered (see jitter).
func (e *Engine) armProbe(reset bool) {
	e.probeMu.Lock()
	if reset || e.probeWait <= 0 {
		e.probeWait = e.cfg.ProbeBackoff
	} else {
		e.probeWait *= 2
		if e.probeWait > e.cfg.ProbeMaxBackoff {
			e.probeWait = e.cfg.ProbeMaxBackoff
		}
	}
	e.probeAt.Store(time.Now().Add(e.jitter(e.probeWait)).UnixNano())
	e.probeMu.Unlock()
}

// rearmProbe schedules another probe at the current backoff, neither
// resetting nor doubling it (used when a probe aborts without verdict).
func (e *Engine) rearmProbe() {
	e.probeMu.Lock()
	if e.probeWait <= 0 {
		e.probeWait = e.cfg.ProbeBackoff
	}
	e.probeAt.Store(time.Now().Add(e.jitter(e.probeWait)).UnixNano())
	e.probeMu.Unlock()
}

// noteWrite folds a write's outcome into the breaker state machine.
func (e *Engine) noteWrite(err error, probe bool) {
	switch fault.Classify(err) {
	case fault.ClassNone:
		e.consecFail.Store(0)
		if probe {
			e.stats.Breaker.Restore()
		}
	case fault.ClassAborted:
		// The caller stopped waiting; this says nothing about the store.
		// An aborted probe releases the half-open slot back to open and
		// re-arms at the current backoff without doubling it.
		if probe {
			e.stats.Breaker.Degrade("probe aborted")
			e.rearmProbe()
		}
	case fault.ClassPersistent:
		if probe {
			// The store is still bad: reopen and back the probe cadence
			// off exponentially (jittered) so a long outage is probed ever
			// more rarely instead of at a synchronized fixed rate.
			e.stats.Breaker.Degrade(fmt.Sprintf("probe failed: %v", err))
			e.armProbe(false)
			return
		}
		if e.consecFail.Add(1) >= int64(e.cfg.BreakerThreshold) &&
			e.stats.Breaker.Degrade(fmt.Sprintf("persistent failures: %v", err)) {
			// Fresh trip: restart the backoff at its base.
			e.armProbe(true)
		}
	default:
		// Transient (retry budget exhausted) or corrupt: surfaced to the
		// caller but not a sustained-failure signal; the run restarts.
		e.consecFail.Store(0)
		if probe {
			e.stats.Breaker.Restore()
		}
	}
}

// endSpan finishes a front-end span: rejections that never reached the
// store (overload shedding, read-only writes, the open circuit) are shed
// outcomes; everything else classifies by error.
func endSpan(sp *obs.Span, err error) {
	if errors.Is(err, ErrOverload) || errors.Is(err, ErrReadOnly) || errors.Is(err, ErrCircuitOpen) {
		sp.EndOutcome(obs.OutcomeShed)
		return
	}
	sp.End(err)
}

// Get returns the value for key.
func (e *Engine) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	sp := e.cfg.Obs.Start(obs.OpGet)
	ctx, done, err := e.admit(ctx, overload.ClassFrom(ctx, overload.ClassNormal))
	if err != nil {
		endSpan(&sp, err)
		return nil, false, err
	}
	defer done()
	v, ok, err := e.cfg.Store.Get(ctx, key)
	if err != nil {
		e.noteAbort(err)
	}
	endSpan(&sp, err)
	return v, ok, err
}

// Put upserts key -> val.
func (e *Engine) Put(ctx context.Context, key, val []byte) error {
	sp := e.cfg.Obs.Start(obs.OpPut)
	probe, err := e.gateWrite()
	if err != nil {
		// Gating runs before admission: a rejected write fails fast
		// without consuming queue room from requests that can be served.
		endSpan(&sp, err)
		return err
	}
	ctx, done, err := e.admitWrite(ctx, probe)
	if err != nil {
		endSpan(&sp, err)
		return err
	}
	defer done()
	err = e.cfg.Store.Put(ctx, key, val)
	e.noteWrite(err, probe)
	if err != nil {
		e.noteAbort(err)
	}
	endSpan(&sp, err)
	return err
}

// Delete removes key.
func (e *Engine) Delete(ctx context.Context, key []byte) error {
	sp := e.cfg.Obs.Start(obs.OpDelete)
	probe, err := e.gateWrite()
	if err != nil {
		endSpan(&sp, err)
		return err
	}
	ctx, done, err := e.admitWrite(ctx, probe)
	if err != nil {
		endSpan(&sp, err)
		return err
	}
	defer done()
	err = e.cfg.Store.Delete(ctx, key)
	e.noteWrite(err, probe)
	if err != nil {
		e.noteAbort(err)
	}
	endSpan(&sp, err)
	return err
}

// Scan visits live pairs with key >= start in order until fn returns false
// or limit pairs are visited (limit <= 0 means unlimited).
func (e *Engine) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	sp := e.cfg.Obs.Start(obs.OpScan)
	// Scans default to the first-shed class: a brownout drops batch reads
	// before it drops anyone's writes.
	ctx, done, err := e.admit(ctx, overload.ClassFrom(ctx, overload.ClassScan))
	if err != nil {
		endSpan(&sp, err)
		return err
	}
	defer done()
	err = e.cfg.Store.Scan(ctx, start, limit, fn)
	if err != nil {
		e.noteAbort(err)
	}
	endSpan(&sp, err)
	return err
}

// Close marks the engine closed (new operations fail with ErrClosed;
// in-flight operations finish) and closes the store.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	return e.cfg.Store.Close()
}
