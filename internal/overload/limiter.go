// Package overload is adaptive overload control: a gradient concurrency
// limiter with priority-aware shedding, replacing the engine's static
// admission semaphore.
//
// The controller is the gradient/AIMD family (TCP Vegas by way of
// Netflix's concurrency-limits): it keeps a latency floor — the store's
// no-queue service time — and compares each window's mean latency
// against it. Latency at the floor means spare capacity: the limit
// climbs by a sqrt additive probe. Latency past tolerance times the
// floor means queueing inside the store: the limit multiplies down by
// the observed gradient. Because the signal is the *store's own*
// latency, the limit converges near the knee of the latency/concurrency
// curve instead of a hand-tuned constant — and re-converges when the
// store's capacity changes (a degraded mirror leg, a cold cache, a
// noisy neighbor).
//
// Two guards keep the controller honest:
//
//   - A vegas-style probe floor. Every ProbeInterval windows the limiter
//     serves one window at the minimum limit and re-measures the floor
//     from it. Without this, a long overload episode drags the floor
//     estimate upward until inflated latency looks normal — the
//     controller equivalent of the metastable failure it exists to
//     prevent.
//   - A Little's-law clamp. When congested, throughput × tolerated
//     latency bounds the concurrency the store can possibly use; the
//     limit never grows past a small multiple of it, so a latency
//     plateau (e.g. a store that queues internally) cannot inflate the
//     limit without bound.
//
// Admission is priority-aware (see Class): every class may run while
// the limit has room, but the wait queue is a brownout ladder — each
// class may only occupy a prefix of the queue, scans the shortest,
// ClassHigh the whole thing. As pressure rises the queue fills and the
// ladder sheds the lowest classes first, in strict order, while probes
// bypass the queue entirely.
package overload

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"costperf/internal/metrics"
)

// ErrShed is returned by Acquire when the caller's class has no queue
// room left: the operation is shed unserved. Front-ends map it onto
// their own overload sentinel (engine.ErrOverload).
var ErrShed = errors.New("overload: concurrency limit reached (shed)")

// Config configures a Limiter.
type Config struct {
	// Initial is the starting concurrency limit (default 64). In Static
	// mode it is the permanent limit.
	Initial int
	// Min is the lower clamp and the vegas probe level (default 2).
	Min int
	// Max is the upper clamp (default 4*Initial).
	Max int
	// MaxQueue bounds the wait queue for the highest class; lower
	// classes may only occupy a prefix of it (default 2*Initial).
	MaxQueue int
	// Static disables adaptation: the limit stays at Initial. The
	// brownout ladder and probe bypass still apply — Static is the old
	// semaphore, not the old blindness.
	Static bool
	// Window is the number of latency samples per gradient update
	// (default 64).
	Window int
	// ProbeInterval is the number of windows between vegas floor
	// re-probes (default 16; <0 disables probing).
	ProbeInterval int
}

const (
	// tolerance is how far past the floor the window mean may drift
	// before the limit backs off: latency may double before shrinking
	// starts.
	tolerance = 2.0
	// smoothing is the EWMA weight applied to limit *increases*;
	// decreases apply immediately — under collapse the limiter must
	// step down now, not after a moving average agrees.
	smoothing = 0.3
)

func (c *Config) setDefaults() {
	if c.Initial <= 0 {
		c.Initial = 64
	}
	if c.Min <= 0 {
		c.Min = 2
	}
	if c.Min > c.Initial {
		c.Min = c.Initial
	}
	if c.Max <= 0 {
		c.Max = 4 * c.Initial
	}
	if c.Max < c.Initial {
		c.Max = c.Initial
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.Initial
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 16
	}
}

// Ticket is one admitted operation's slot. It must be released exactly
// once.
type Ticket struct {
	class   Class
	queued  bool
	wait    time.Duration
	granted time.Time
}

// Queued reports whether the ticket waited in the queue, and for how
// long.
func (t *Ticket) Queued() (bool, time.Duration) { return t.queued, t.wait }

// waiter is one queued Acquire.
type waiter struct {
	ch      chan struct{} // closed on grant
	granted time.Time
	done    bool // granted or abandoned (under l.mu)
}

// Limiter is the adaptive concurrency limiter. All methods are safe for
// concurrent use.
type Limiter struct {
	cfg   Config
	stats metrics.LimiterStats

	mu       sync.Mutex
	limit    float64 // live limit (clamped [Min, Max])
	inflight int
	queued   int
	qs       [numClasses][]*waiter

	// Gradient state (under mu): the current window's accumulation, the
	// latency floor, and the vegas probe cycle.
	winSum     float64 // ns
	winN       int
	winStart   time.Time
	floor      float64 // ns; 0 = unlearned
	lastSample float64 // ns; last window mean
	windows    int     // completed windows, drives the probe cadence
	probing    bool    // current window runs at Min to re-measure the floor
}

// NewLimiter builds a limiter.
func NewLimiter(cfg Config) *Limiter {
	cfg.setDefaults()
	l := &Limiter{cfg: cfg, limit: float64(cfg.Initial)}
	l.stats.Limit.Set(int64(cfg.Initial))
	return l
}

// Stats returns the limiter's meters.
func (l *Limiter) Stats() *metrics.LimiterStats { return &l.stats }

// Adaptive reports whether the limit is learned by the gradient (false:
// a static semaphore at Config.Initial).
func (l *Limiter) Adaptive() bool { return !l.cfg.Static }

// Limit returns the live concurrency limit.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.effLimitLocked()
}

// effLimitLocked is the limit admission actually enforces right now: the
// gradient's limit, except during a vegas probe window, which serves at
// Min so the floor measurement sees an uncontended store.
func (l *Limiter) effLimitLocked() int {
	if l.probing {
		return l.cfg.Min
	}
	n := int(l.limit)
	if n < l.cfg.Min {
		n = l.cfg.Min
	}
	return n
}

// queueBound is the brownout ladder: the queue prefix each class may
// occupy. Scans shed once the queue is a quarter full, low-priority ops
// at half, and only ClassHigh may fill it — so as pressure rises the
// classes shed strictly lowest-first.
func (l *Limiter) queueBound(c Class) int {
	switch c {
	case ClassScan:
		return l.cfg.MaxQueue / 4
	case ClassLow:
		return l.cfg.MaxQueue / 2
	default:
		return l.cfg.MaxQueue
	}
}

// shedLocked meters one shed by class.
func (l *Limiter) shedLocked(c Class) {
	switch c {
	case ClassScan:
		l.stats.Shed.Scan.Inc()
	case ClassLow:
		l.stats.Shed.Low.Inc()
	case ClassNormal:
		l.stats.Shed.Normal.Inc()
	default:
		l.stats.Shed.High.Inc()
	}
}

// WouldShed reports whether an Acquire at class would be shed right
// now — the cheap pre-flight the scatter-gather path uses to fail a hot
// shard's scan leg fast instead of feeding its queue.
func (l *Limiter) WouldShed(c Class) bool {
	if c == ClassProbe {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight >= l.effLimitLocked() && l.queued >= l.queueBound(c)
}

// Acquire admits one operation at the given class: immediately while
// the limit has room, after queueing when it does not, never for a
// request past its class's queue bound (ErrShed). A ctx that ends while
// queued returns ctx.Err(). ClassProbe bypasses both the limit and the
// queue. The returned ticket must be Released exactly once.
func (l *Limiter) Acquire(ctx context.Context, c Class) (*Ticket, error) {
	now := time.Now()
	l.mu.Lock()
	if c == ClassProbe {
		// Probes are how a degraded store proves recovery; they can not
		// be starved by load. Bypass the limit (the breaker allows one
		// probe at a time, so the overshoot is bounded at 1).
		l.inflight++
		l.grantStatsLocked()
		l.mu.Unlock()
		return &Ticket{class: c, granted: now}, nil
	}
	if l.inflight < l.effLimitLocked() && l.queued == 0 {
		l.inflight++
		l.grantStatsLocked()
		l.mu.Unlock()
		return &Ticket{class: c, granted: now}, nil
	}
	if l.queued >= l.queueBound(c) {
		l.shedLocked(c)
		l.mu.Unlock()
		return nil, ErrShed
	}
	w := &waiter{ch: make(chan struct{})}
	l.qs[c] = append(l.qs[c], w)
	l.queued++
	l.depthStatsLocked()
	l.mu.Unlock()

	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-w.ch:
		return l.queuedTicket(c, w, now), nil
	case <-ctx.Done():
		l.mu.Lock()
		if w.done {
			// The grant raced our abort and won: the slot is ours. Run
			// with it — the store call will see the dead ctx immediately,
			// and the release path stays uniform.
			l.mu.Unlock()
			return l.queuedTicket(c, w, now), nil
		}
		w.done = true
		for i, qw := range l.qs[c] {
			if qw == w {
				l.qs[c] = append(l.qs[c][:i], l.qs[c][i+1:]...)
				break
			}
		}
		l.queued--
		l.depthStatsLocked()
		l.mu.Unlock()
		return nil, ctx.Err()
	}
}

// queuedTicket is the ticket of a waiter granted after queueing since
// enqueued; its wait is sampled into Stats.WaitMicros.
func (l *Limiter) queuedTicket(c Class, w *waiter, enqueued time.Time) *Ticket {
	wait := w.granted.Sub(enqueued)
	l.stats.WaitMicros.Observe(wait.Microseconds())
	return &Ticket{class: c, queued: true, wait: wait, granted: w.granted}
}

// Release returns a ticket's slot, feeds the gradient controller (when
// sample is true and the limiter is adaptive), and grants queued
// waiters the freed capacity.
func (l *Limiter) Release(t *Ticket, sample bool) {
	lat := time.Since(t.granted)
	l.mu.Lock()
	l.inflight--
	l.stats.Inflight.Set(int64(l.inflight))
	if sample && !l.cfg.Static && t.class != ClassProbe {
		l.observeLocked(float64(lat.Nanoseconds()))
	}
	l.grantLocked()
	l.mu.Unlock()
}

// grantLocked hands freed capacity to queued waiters, highest class
// first, FIFO within a class.
func (l *Limiter) grantLocked() {
	for l.queued > 0 && l.inflight < l.effLimitLocked() {
		granted := false
		for c := numClasses - 1; c >= 0; c-- {
			if len(l.qs[c]) == 0 {
				continue
			}
			w := l.qs[c][0]
			l.qs[c] = l.qs[c][1:]
			l.queued--
			w.done = true
			w.granted = time.Now()
			l.inflight++
			l.grantStatsLocked()
			close(w.ch)
			granted = true
			break
		}
		if !granted {
			break
		}
	}
	l.depthStatsLocked()
}

func (l *Limiter) grantStatsLocked() {
	l.stats.Admitted.Inc()
	l.stats.Inflight.Set(int64(l.inflight))
}

func (l *Limiter) depthStatsLocked() {
	d := int64(l.queued)
	l.stats.QueueDepth.Set(d)
	l.stats.QueuePeak.Max(d)
}

// observeLocked accumulates one latency sample and runs a gradient
// update when the window fills.
func (l *Limiter) observeLocked(ns float64) {
	if l.winN == 0 {
		l.winStart = time.Now()
	}
	l.winSum += ns
	l.winN++
	if l.winN < l.cfg.Window {
		return
	}
	sample := l.winSum / float64(l.winN)
	elapsed := time.Since(l.winStart).Seconds()
	thr := 0.0
	if elapsed > 0 {
		thr = float64(l.winN) / elapsed
	}
	l.winSum, l.winN = 0, 0
	l.windows++
	l.updateLocked(sample, thr)
}

// updateLocked is one gradient step over a completed window.
func (l *Limiter) updateLocked(sample, thr float64) {
	if sample <= 0 {
		return
	}
	l.lastSample = sample

	if l.probing {
		// The probe window ran at Min: its mean is the closest thing to
		// the store's true no-queue latency we can measure live. Reset
		// the floor to it — this is what un-learns a floor inflated by a
		// long overload episode.
		l.floor = sample
		l.probing = false
	} else if l.floor == 0 || sample < l.floor {
		l.floor = sample
	}
	l.stats.FloorMicros.Set(int64(l.floor / 1e3))

	prev := l.limit
	// gradient <= 1: how far the window's latency sits past the
	// tolerated band. At or under tolerance the limit grows by the
	// additive sqrt probe; past it the limit multiplies down.
	g := tolerance * l.floor / sample
	if g > 1 {
		g = 1
	}
	if g < 0.5 {
		g = 0.5
	}
	next := l.limit*g + math.Sqrt(l.limit)
	congested := sample > tolerance*l.floor
	if congested && thr > 0 {
		// Little's law: a store completing thr ops/s at the tolerated
		// latency can use at most thr * (tol*floor) concurrency; 2x
		// headroom, and never below Min. Only applied when congested —
		// an idle window's throughput says nothing about capacity.
		little := 2 * thr * (tolerance * l.floor / 1e9)
		if little < float64(l.cfg.Min) {
			little = float64(l.cfg.Min)
		}
		if next > little {
			next = little
		}
	}
	if next > prev {
		// Increases are smoothed; decreases act immediately.
		next = prev + smoothing*(next-prev)
	}
	if next < float64(l.cfg.Min) {
		next = float64(l.cfg.Min)
	}
	if next > float64(l.cfg.Max) {
		next = float64(l.cfg.Max)
	}
	l.limit = next
	if int(next) > int(prev) {
		l.stats.LimitUps.Inc()
	} else if int(next) < int(prev) {
		l.stats.LimitDowns.Inc()
	}

	// Arm the next vegas probe window.
	if l.cfg.ProbeInterval > 0 && l.windows%l.cfg.ProbeInterval == 0 {
		l.probing = true
	}
	l.stats.Limit.Set(int64(l.effLimitLocked()))
}

// RetryAfter is the advisory backoff for a shed caller: roughly how
// long the current backlog needs to drain at the current service rate,
// clamped to a sane band. The wire server forwards it inside
// StatusOverload responses; honoring it is what turns a thundering-herd
// retry into a paced one.
func (l *Limiter) RetryAfter() time.Duration {
	l.mu.Lock()
	per := l.lastSample
	if per == 0 {
		per = l.floor
	}
	backlog := l.inflight + l.queued
	lim := l.effLimitLocked()
	l.mu.Unlock()
	if per == 0 {
		per = 1e6 // unlearned: assume 1ms service time
	}
	if lim < 1 {
		lim = 1
	}
	d := time.Duration(per * float64(backlog+1) / float64(lim))
	const lo, hi = 100 * time.Microsecond, 100 * time.Millisecond
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	l.stats.RetryAfterMicros.Set(int64(d / time.Microsecond))
	return d
}
