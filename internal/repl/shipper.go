package repl

import (
	"sync"
	"time"

	"costperf/internal/backoff"
	"costperf/internal/metrics"
	"costperf/internal/tc"
)

// ShipperConfig configures a Shipper.
type ShipperConfig struct {
	// TC is the primary whose recovery log is tailed (required).
	TC *tc.TC
	// Link carries frames to the standby and acks back (required).
	Link *Link
	// Epoch stamps every frame (default 1). A shipper never changes epoch;
	// failover stops it and fences its frames at the standby.
	Epoch uint64
	// BatchBytes bounds the payload of one frame (default 32 KiB); a
	// single record larger than this still ships whole.
	BatchBytes int
	// Window bounds unacked frames in flight (default 4).
	Window int
	// AckTimeout is how long the shipper waits for any ack on a full or
	// partial window before rewinding to the last confirmed cursor and
	// resending (default 10ms).
	AckTimeout time.Duration
	// RetryBase/RetryMax bound the jittered exponential backoff between
	// resends and resyncs (defaults 1ms / 50ms); each sleep is drawn from
	// [d/2, d] and d doubles per consecutive failure.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Poll is the idle tail-poll interval while no new bytes are durable
	// (default 200µs).
	Poll time.Duration
	// Seed seeds the backoff jitter (default 1).
	Seed int64
	// Stats, when non-nil, is the shared counter block to meter into (the
	// cluster passes one block to both ends); nil allocates an own block.
	Stats *metrics.ReplStats
}

func (c *ShipperConfig) setDefaults() {
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 32 << 10
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 10 * time.Millisecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = time.Millisecond
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = 50 * time.Millisecond
		if c.RetryMax < c.RetryBase {
			c.RetryMax = c.RetryBase
		}
	}
	if c.Poll <= 0 {
		c.Poll = 200 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Shipper tails the primary's durable recovery log and streams
// record-aligned batches to the standby. Its cursor is resumable: it
// starts (and recovers from naks and timeouts) by asking the standby for
// its applied LSN, so a killed and restarted shipper continues without
// gaps, and duplicates are absorbed by the standby's idempotent apply.
type Shipper struct {
	cfg   ShipperConfig
	stats *metrics.ReplStats

	mu      sync.Mutex
	acked   int64 // highest standby-confirmed LSN (-1 until first contact)
	advance chan struct{}
	fin     bool // run loop exited (fenced or stopped)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewShipper creates a shipper; call Start to begin shipping.
func NewShipper(cfg ShipperConfig) *Shipper {
	cfg.setDefaults()
	s := &Shipper{
		cfg:     cfg,
		stats:   cfg.Stats,
		acked:   -1,
		advance: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	if s.stats == nil {
		s.stats = &metrics.ReplStats{}
	}
	return s
}

// Stats returns the shipper's counter block.
func (s *Shipper) Stats() *metrics.ReplStats { return s.stats }

// Start launches the ship loop.
func (s *Shipper) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.run()
	}()
}

// Stop halts the ship loop and wakes all waiters with ErrStopped.
func (s *Shipper) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// AckedLSN returns the highest LSN the standby has confirmed applying
// (-1 before first contact).
func (s *Shipper) AckedLSN() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// WaitShipped blocks until the standby has confirmed applying the log
// through lsn — the semi-synchronous commit gate: a cluster write is
// acknowledged to its caller only after this returns nil.
func (s *Shipper) WaitShipped(lsn int64, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		s.mu.Lock()
		if s.acked >= lsn {
			s.mu.Unlock()
			return nil
		}
		if s.fin {
			s.mu.Unlock()
			return ErrStopped
		}
		ch := s.advance
		s.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return ErrShipTimeout
		case <-s.stop:
			return ErrStopped
		}
	}
}

// Drain waits until everything durable on the primary right now has been
// confirmed by the standby (the pre-promotion ack-window drain). It is
// best-effort under a bounded timeout: if the primary's log device died
// mid-ship, only already-shipped bytes can drain, and every write the
// cluster ever acknowledged is among them.
func (s *Shipper) Drain(timeout time.Duration) error {
	return s.WaitShipped(s.cfg.TC.DurableLSN(), timeout)
}

// setAcked advances the confirmed cursor and wakes WaitShipped waiters.
func (s *Shipper) setAcked(lsn int64) {
	s.mu.Lock()
	if lsn > s.acked {
		s.acked = lsn
		close(s.advance)
		s.advance = make(chan struct{})
	}
	s.mu.Unlock()
}

// finish marks the loop done and releases waiters.
func (s *Shipper) finish() {
	s.mu.Lock()
	s.fin = true
	close(s.advance)
	s.advance = make(chan struct{})
	s.mu.Unlock()
}

// backoffSleep sleeps the jittered backoff for the given 1-based count of
// consecutive failures (interruptible by Stop) and returns the next count.
func (s *Shipper) backoffSleep(jitter *backoff.Source, attempt int) int {
	t := time.NewTimer(jitter.Next(attempt))
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.stop:
	}
	return attempt + 1
}

func (s *Shipper) run() {
	defer s.finish()
	jitter := backoff.New(backoff.Policy{Base: s.cfg.RetryBase, Max: s.cfg.RetryMax}, s.cfg.Seed)
	attempt := 1         // consecutive failures since the last progress, plus one
	cursor := int64(-1)  // unknown: resync with the standby first
	var inflight []int64 // end LSNs of sent, unacked frames

	rewind := func(to int64) {
		cursor = to
		inflight = inflight[:0]
	}

	for {
		select {
		case <-s.stop:
			return
		default:
		}

		// Resync: ask the standby for its applied LSN and resume there.
		// This is both the cold-start handshake and the recovery path
		// after a kill — the cursor lives on the standby, not here.
		if cursor < 0 {
			s.cfg.Link.SendFrame(Frame{Epoch: s.cfg.Epoch, From: probeFrom, Durable: s.cfg.TC.DurableLSN()})
			a, ok := s.awaitAck(s.cfg.AckTimeout)
			if !ok {
				select {
				case <-s.stop:
					return
				default:
				}
				attempt = s.backoffSleep(jitter, attempt)
				continue
			}
			if a.Epoch > s.cfg.Epoch || (!a.OK && a.Reason == "fenced") {
				return // demoted: a newer epoch owns the standby
			}
			if a.Epoch != s.cfg.Epoch {
				continue
			}
			s.setAcked(a.Applied)
			rewind(a.Applied)
			attempt = 1
			continue
		}

		durable := s.cfg.TC.DurableLSN()

		// Fill the in-flight window with record-aligned batches.
		fillErr := false
		for len(inflight) < s.cfg.Window && cursor < durable {
			batch, end, err := tc.ReadLogBatch(s.cfg.TC.LogDevice(), cursor, durable, s.cfg.BatchBytes)
			if err != nil {
				// Primary log unreadable (crash mid-ship): keep backing
				// off and retrying — every byte the cluster acked is
				// already on the standby, and promotion will stop us.
				fillErr = true
				break
			}
			if len(batch) == 0 {
				break
			}
			s.cfg.Link.SendFrame(Frame{
				Epoch: s.cfg.Epoch, From: cursor, To: end, Durable: durable,
				CRC: frameCRC(batch), Payload: batch,
			})
			s.stats.BatchesShipped.Inc()
			s.stats.BytesShipped.Add(int64(len(batch)))
			inflight = append(inflight, end)
			cursor = end
		}
		if fillErr {
			attempt = s.backoffSleep(jitter, attempt)
			continue
		}

		if len(inflight) == 0 {
			// Idle tail: wait briefly for new durable bytes, absorbing
			// stray acks (e.g. duplicates the network manufactured).
			select {
			case a := <-s.cfg.Link.Acks():
				if a.Epoch > s.cfg.Epoch || (!a.OK && a.Reason == "fenced") {
					return
				}
				if a.OK && a.Epoch == s.cfg.Epoch {
					s.setAcked(a.Applied)
				}
			case <-time.After(s.cfg.Poll):
			case <-s.stop:
				return
			}
			continue
		}

		// Await progress on the window.
		select {
		case a := <-s.cfg.Link.Acks():
			if a.Epoch > s.cfg.Epoch || (!a.OK && a.Reason == "fenced") {
				return
			}
			if a.Epoch != s.cfg.Epoch {
				continue
			}
			if !a.OK {
				// Gap or verification nak: the standby told us where it
				// really is; rewind there and refill.
				s.stats.Naks.Inc()
				s.stats.Resends.Inc()
				s.setAcked(a.Applied)
				rewind(a.Applied)
				attempt = s.backoffSleep(jitter, attempt)
				continue
			}
			s.stats.AcksOK.Inc()
			s.setAcked(a.Applied)
			// Drop confirmed frames from the window.
			keep := inflight[:0]
			for _, end := range inflight {
				if end > a.Applied {
					keep = append(keep, end)
				}
			}
			inflight = keep
			attempt = 1
		case <-time.After(s.cfg.AckTimeout):
			// The whole window went silent (drops or a partition):
			// rewind to the confirmed cursor and resend after a jittered
			// exponential backoff.
			s.stats.Resends.Inc()
			s.mu.Lock()
			confirmed := s.acked
			s.mu.Unlock()
			if confirmed < 0 {
				confirmed = 0
			}
			rewind(confirmed)
			attempt = s.backoffSleep(jitter, attempt)
		case <-s.stop:
			return
		}
	}
}

// awaitAck waits up to d for one ack.
func (s *Shipper) awaitAck(d time.Duration) (Ack, bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case a := <-s.cfg.Link.Acks():
		return a, true
	case <-t.C:
		return Ack{}, false
	case <-s.stop:
		return Ack{}, false
	}
}
