package sim

import (
	"context"
	"sync"
	"sync/atomic"
)

// Charger accumulates the execution cost of a single in-flight operation
// and settles it into a Tracker when the operation completes. Engines
// thread one Charger through each operation's call path; substrates (the
// mapping table, the cache, the device) add their charges to it.
//
// A Charger optionally carries the operation's context.Context. Because
// the charger is already threaded through every layer of an operation —
// store, log store, device — it doubles as the cancellation conduit:
// substrates call Err before starting expensive work (a device I/O, a
// retry backoff) so a cancelled or deadline-expired request stops burning
// IOPS instead of running to completion.
//
// A nil *Charger means "not charged": a store configured without a
// Session gets one from (*Session)(nil).Begin, and every method accepts
// it — the charging methods do nothing, Class and Cost return zero and
// Profile returns a zero profile. Callers charge without checking.
//
// A Charger is used by a single goroutine for a single operation and is
// therefore not synchronized. The zero value is unusable; obtain one from
// Session.Begin.
type Charger struct {
	profile *CostProfile
	tracker *Tracker
	cost    Cost
	class   OpClass
	ios     int64           // device transfers; never reset (see DeviceIOs)
	ctx     context.Context // nil means context.Background()
}

// ClassOnly returns a charger with a zero profile and no tracker: it
// charges no units and settles into nothing, but records the operation's
// class and device transfers, so an operation that is traced but not
// charged is still classified.
func ClassOnly() *Charger { return &Charger{profile: &zeroProfile} }

// WithContext binds ctx to the charger for the duration of the operation
// and returns the charger for chaining. A nil ctx clears the binding. On
// a nil charger it returns DetachedCharger(ctx), so an uncharged
// operation still carries a cancellable ctx down the I/O path.
func (c *Charger) WithContext(ctx context.Context) *Charger {
	if c == nil {
		return DetachedCharger(ctx)
	}
	c.ctx = ctx
	return c
}

// Context returns the operation's context, or context.Background() when
// no context was bound.
func (c *Charger) Context() context.Context {
	if c == nil || c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Err returns the bound context's cancellation error, if any. A nil
// charger is never cancelled.
func (c *Charger) Err() error {
	if c == nil || c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// discardSession backs DetachedCharger: charges settle into a shared
// tracker nobody reads. Created lazily so stores without sessions pay
// nothing until they run a cancellable operation.
var (
	discardOnce    sync.Once
	discardSession *Session
)

// DetachedCharger returns a charger that carries ctx but records into a
// discard tracker. Stores configured without a Session use it so that
// cancellable operations still propagate their context down the I/O path.
// When ctx can never be cancelled (nil ctx or no Done channel, e.g.
// context.Background()), it returns nil — the store's uninstrumented fast
// path is unchanged.
func DetachedCharger(ctx context.Context) *Charger {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	discardOnce.Do(func() { discardSession = NewSession(DefaultCosts()) })
	return discardSession.Begin().WithContext(ctx)
}

// zeroProfile is what a nil charger's Profile returns.
var zeroProfile CostProfile

// Profile returns the cost profile charges should be computed against.
func (c *Charger) Profile() *CostProfile {
	if c == nil {
		return &zeroProfile
	}
	return c.profile
}

// Add accrues raw cost units to the in-flight operation. A negative cost
// panics, on a nil charger too.
func (c *Charger) Add(cost Cost) {
	if cost < 0 {
		panic("sim: negative cost")
	}
	if c != nil {
		c.cost += cost
	}
}

// Compare charges n key comparisons.
func (c *Charger) Compare(n int) {
	if c != nil {
		c.cost += Cost(n) * c.profile.Compare
	}
}

// Chase charges n cache-missing pointer dereferences.
func (c *Charger) Chase(n int) {
	if c != nil {
		c.cost += Cost(n) * c.profile.PointerChase
	}
}

// Copy charges a payload copy of n bytes.
func (c *Charger) Copy(n int) {
	if c != nil {
		c.cost += Cost(n) * c.profile.MemCopyPerByte
	}
}

// Hash charges one hash computation.
func (c *Charger) Hash() {
	if c != nil {
		c.cost += c.profile.HashStep
	}
}

// Escalate marks the operation as (at least) the given class. Class only
// ever increases: an operation that touched the device stays an SS
// operation even if later steps hit cache.
func (c *Charger) Escalate(class OpClass) {
	if c != nil && class > c.class {
		c.class = class
	}
}

// DeviceIO records one device transfer made for the operation, which makes
// it an SS operation. The device is the only caller: an operation is an SS
// operation exactly when it reached the device.
func (c *Charger) DeviceIO() {
	if c != nil {
		c.ios++
		c.Escalate(OpSS)
	}
}

// DeviceIOs returns the device transfers recorded since the charger was
// begun. Settle and Abandon do not reset it: a nested span that shares its
// caller's charger counts its own transfers as the difference of two reads.
func (c *Charger) DeviceIOs() int64 {
	if c == nil {
		return 0
	}
	return c.ios
}

// Class returns the operation's current class.
func (c *Charger) Class() OpClass {
	if c == nil {
		return OpMM
	}
	return c.class
}

// Cost returns the cost accrued so far.
func (c *Charger) Cost() Cost {
	if c == nil {
		return 0
	}
	return c.cost
}

// Settle records the finished operation in the session's tracker and
// resets the charger for reuse. A class-only charger records nothing.
func (c *Charger) Settle() {
	if c == nil {
		return
	}
	if c.tracker != nil {
		c.tracker.Charge(c.class, c.cost)
	}
	c.cost = 0
	c.class = OpMM
}

// Abandon discards the in-flight charges without recording an operation
// (used when an operation fails before doing meaningful work).
func (c *Charger) Abandon() {
	if c == nil {
		return
	}
	c.cost = 0
	c.class = OpMM
}

// Session couples a cost profile with a tracker and a virtual clock. One
// Session typically spans one experiment run.
type Session struct {
	profile CostProfile
	tracker Tracker
	clock   VirtualClock
}

// NewSession returns a Session charging against the given profile.
func NewSession(p CostProfile) *Session {
	return &Session{profile: p}
}

// Begin returns a fresh Charger for one operation. A nil Session
// returns a nil Charger: the operation is not charged.
func (s *Session) Begin() *Charger {
	if s == nil {
		return nil
	}
	return &Charger{profile: &s.profile, tracker: &s.tracker}
}

// Tracker exposes the session's accumulated statistics.
func (s *Session) Tracker() *Tracker { return &s.tracker }

// Clock exposes the session's virtual clock.
func (s *Session) Clock() *VirtualClock { return &s.clock }

// Profile returns a copy of the session's cost profile.
func (s *Session) Profile() CostProfile { return s.profile }

// VirtualClock is a logical clock advanced explicitly by the experiment
// harness. Engines use it to timestamp page accesses so that eviction
// policies based on the paper's breakeven interval T_i (Section 4.2) can be
// evaluated deterministically, independent of wall time.
//
// Time is in virtual seconds, stored as fixed-point microseconds.
type VirtualClock struct {
	micros atomic.Int64
}

// Now returns the current virtual time in seconds.
func (c *VirtualClock) Now() float64 {
	return float64(c.micros.Load()) / 1e6
}

// Advance moves the clock forward by d seconds (d must be non-negative).
func (c *VirtualClock) Advance(d float64) {
	if d < 0 {
		panic("sim: clock moved backwards")
	}
	c.micros.Add(int64(d * 1e6))
}

// Set jumps the clock to t seconds (t must not be in the past).
func (c *VirtualClock) Set(t float64) {
	target := int64(t * 1e6)
	for {
		cur := c.micros.Load()
		if target < cur {
			panic("sim: clock moved backwards")
		}
		if c.micros.CompareAndSwap(cur, target) {
			return
		}
	}
}
