package metrics

import "fmt"

// LimiterStats meters an adaptive concurrency limiter (internal/overload):
// admission itself (slots granted, the wait queue and shedding by priority
// class — the brownout ladder made observable), the live limit the
// gradient controller converged on, its latency-floor estimate and the
// advisory retry-after hint. The limiter owns the one block; the engine
// front-end embeds a pointer to it rather than counting admission again.
// It lives in this package (rather than in overload) so internal/obs can
// fold it into CostSnapshots without importing the limiter, mirroring how
// MirrorStats/ReplStats/Health are shared. All counters are cumulative;
// the zero value is ready to use.
type LimiterStats struct {
	// Limit is the current concurrency limit; Inflight the operations
	// holding a slot right now.
	Limit    Gauge
	Inflight Gauge
	// Admitted counts operations granted a slot (fast path or after
	// queueing).
	Admitted Counter
	// Shed counts operations refused a slot, by priority class.
	Shed ShedByClass
	// QueueDepth is the current number of admission waiters; QueuePeak is
	// its high-water mark.
	QueueDepth Gauge
	QueuePeak  Gauge
	// WaitMicros samples wall-clock admission wait per queued operation
	// (in microseconds).
	WaitMicros Histogram
	// LimitUps/LimitDowns count gradient updates that raised/lowered the
	// limit — the controller's activity, not its position.
	LimitUps   Counter
	LimitDowns Counter
	// FloorMicros is the limiter's current estimate of the store's
	// no-queue latency floor, in microseconds (the vegas-style baseline
	// the gradient compares against).
	FloorMicros Gauge
	// RetryAfterMicros is the advisory backoff the limiter currently
	// hands to shed callers (the wire server forwards it inside
	// StatusOverload responses).
	RetryAfterMicros Gauge
}

// ShedByClass counts shedding by priority class, lowest first: the
// brownout ladder says Scan fills first, High only when everything below
// it is already shedding, and probes are never shed at all (there is
// deliberately no Probe counter to increment).
type ShedByClass struct {
	Scan   Counter
	Low    Counter
	Normal Counter
	High   Counter
}

// Value sums shedding across every class.
func (s *ShedByClass) Value() int64 {
	return s.Scan.Value() + s.Low.Value() + s.Normal.Value() + s.High.Value()
}

// String renders the stats for experiment logs.
func (l *LimiterStats) String() string {
	return fmt.Sprintf("limit=%d inflight=%d admitted=%d ups=%d downs=%d floor=%dus retryafter=%dus shed[scan=%d low=%d normal=%d high=%d]",
		l.Limit.Value(), l.Inflight.Value(), l.Admitted.Value(),
		l.LimitUps.Value(), l.LimitDowns.Value(),
		l.FloorMicros.Value(), l.RetryAfterMicros.Value(),
		l.Shed.Scan.Value(), l.Shed.Low.Value(), l.Shed.Normal.Value(), l.Shed.High.Value())
}
