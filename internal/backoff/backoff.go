// Package backoff is the repo's single implementation of jittered
// exponential backoff. Four subsystems grew identical copies of the
// same shape — the engine's breaker probes, the wire client's retry
// sleeps, the shard router's moved-op re-dispatches, and the replication
// shipper's resends — and all four now draw from here:
//
//	d = min(base << (attempt-1), max), drawn uniformly from [d/2, d]
//
// The full-period half-jitter is deliberate: a fleet of peers backing
// off from the same event (a tripped breaker, a shed burst, a cutover
// waking hundreds of parked writers) must not re-arrive in lockstep,
// but every draw still honors the schedule's order of magnitude so
// tests can bound it.
package backoff

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy is the deterministic half of a backoff schedule: the base
// interval and the doubling cap.
type Policy struct {
	// Base is the interval for attempt 1 (required, > 0).
	Base time.Duration
	// Max caps the doubling; intervals never exceed it (values below
	// Base are raised to Base).
	Max time.Duration
}

func (p Policy) normalized() Policy {
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Max < p.Base {
		p.Max = p.Base
	}
	return p
}

// Interval returns the un-jittered interval for the given 1-based
// attempt number: min(Base<<(attempt-1), Max), with shift overflow
// clamped to Max.
func (p Policy) Interval(attempt int) time.Duration {
	p = p.normalized()
	if attempt <= 1 {
		return p.Base
	}
	// A shift past 62 bits (or one that wrapped negative) has certainly
	// blown past any sane cap.
	shift := attempt - 1
	if shift >= 63 {
		return p.Max
	}
	d := p.Base << shift
	if d <= 0 || d > p.Max {
		return p.Max
	}
	return d
}

// Source is a Policy plus a seeded jitter stream. A Source is safe for
// concurrent use; with the same seed it reproduces the same draw
// sequence, which is what keeps the seeded chaos sweeps deterministic.
type Source struct {
	p  Policy
	mu sync.Mutex
	rw *rand.Rand
}

// New builds a Source over the policy. Seed 0 is replaced by 1 so the
// zero value of a config still jitters deterministically.
func New(p Policy, seed int64) *Source {
	if seed == 0 {
		seed = 1
	}
	return &Source{p: p.normalized(), rw: rand.New(rand.NewSource(seed))}
}

// Policy returns the normalized policy the source draws from.
func (s *Source) Policy() Policy { return s.p }

// Jitter draws uniformly from [d/2, d]. Non-positive d returns 0.
func (s *Source) Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	half := d / 2
	s.mu.Lock()
	j := half + time.Duration(s.rw.Int63n(int64(half)+1))
	s.mu.Unlock()
	return j
}

// Next returns the jittered interval for the given 1-based attempt:
// Jitter(Interval(attempt)).
func (s *Source) Next(attempt int) time.Duration {
	return s.Jitter(s.p.Interval(attempt))
}

// Sleep blocks for Next(attempt) or until ctx ends, returning ctx's
// error if the wait was cut short.
func (s *Source) Sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(s.Next(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
