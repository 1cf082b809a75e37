package repl

import (
	"fmt"
	"sync"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/ssd"
	"costperf/internal/tc"
)

// Checkpoint is a recorded (LSN, commit-timestamp) pair the standby can
// replay back to. The retained ring gates PITR: the log prefix below the
// oldest retained checkpoint is eligible for archival and no longer a
// guaranteed recovery target.
type Checkpoint struct {
	LSN int64
	TS  uint64
}

// StandbyConfig configures a Standby.
type StandbyConfig struct {
	// Link delivers frames from the shipper (required).
	Link *Link
	// LogDevice receives the shipped log bytes at primary-identical offsets
	// (required): the standby log is a byte-for-byte prefix of the
	// primary's, so LSNs mean the same thing on both sides.
	LogDevice ssd.Dev
	// DC is the standby's data component (required); shipped records are
	// applied to it with the same blind updates recovery uses.
	DC tc.DataComponent
	// Epoch is the lowest epoch the standby accepts (default 1). Seal
	// raises it, fencing the demoted primary's in-flight frames.
	Epoch uint64
	// MaxStaleBytes bounds Get: reads fail with ErrTooStale when the
	// applied-LSN lag behind the primary's durable LSN exceeds it
	// (0 = serve regardless of lag).
	MaxStaleBytes int64
	// Retain bounds the checkpoint ring (default 8); recording one more
	// drops the oldest and advances the PITR retention floor.
	Retain int
	// Stats, when non-nil, is the shared counter block (nil allocates one).
	Stats *metrics.ReplStats
}

// Standby receives shipped log batches, persists them to its own log
// device, applies them to its data component, and acks. It can serve
// stale-bounded reads, record PITR checkpoints, and be promoted in place.
// Safe for concurrent use.
type Standby struct {
	cfg   StandbyConfig
	stats *metrics.ReplStats

	mu      sync.Mutex
	epoch   uint64
	applied int64  // every log byte below this is persisted and applied
	maxTS   uint64 // highest commit timestamp applied
	durable int64  // primary's durable LSN as of the last frame seen
	cks     []Checkpoint
	sealed  bool
	health  metrics.Health

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewStandby creates a standby; call Start to begin receiving.
func NewStandby(cfg StandbyConfig) *Standby {
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 8
	}
	s := &Standby{
		cfg:   cfg,
		stats: cfg.Stats,
		epoch: cfg.Epoch,
		stop:  make(chan struct{}),
	}
	if s.stats == nil {
		s.stats = &metrics.ReplStats{}
	}
	return s
}

// Stats returns the standby's counter block.
func (s *Standby) Stats() *metrics.ReplStats { return s.stats }

// Health exposes the standby's latched health (degrades when its own log
// device persistently fails).
func (s *Standby) Health() *metrics.Health { return &s.health }

// Start launches the receive loop.
func (s *Standby) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.run()
	}()
}

// Stop halts the receive loop.
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

func (s *Standby) run() {
	for {
		select {
		case f := <-s.cfg.Link.Frames():
			if ack, ok := s.Handle(f); ok {
				s.cfg.Link.SendAck(ack)
			}
		case <-s.stop:
			return
		}
	}
}

// AppliedLSN returns the LSN through which the standby has persisted and
// applied the shipped log.
func (s *Standby) AppliedLSN() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// MaxAppliedTS returns the highest commit timestamp applied.
func (s *Standby) MaxAppliedTS() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxTS
}

// LagBytes returns how far the standby trails the primary's durable LSN,
// as of the last frame it saw.
func (s *Standby) LagBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lag := s.durable - s.applied
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Get serves a read from the standby's data component, bounded by the
// configured staleness: if the applied log trails the primary's durable
// LSN by more than MaxStaleBytes, the read fails with ErrTooStale rather
// than silently returning old data.
func (s *Standby) Get(key []byte) ([]byte, bool, error) {
	if max := s.cfg.MaxStaleBytes; max > 0 {
		if lag := s.LagBytes(); lag > max {
			return nil, false, fmt.Errorf("%w: lag %d > %d bytes", ErrTooStale, lag, max)
		}
	}
	return s.cfg.DC.Get(key)
}

// Handle processes one frame and returns the ack to send (ok=false means
// no response, e.g. after Stop raced a queued frame on a sealed standby —
// never in normal operation). Exported for deterministic tests; the
// receive loop calls it for every delivered frame.
func (s *Standby) Handle(f Frame) (Ack, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Epoch fence: a frame from a demoted primary is refused so its
	// un-drained window can never overwrite post-promotion state.
	if f.Epoch < s.epoch || s.sealed {
		s.stats.FencedFrames.Inc()
		return Ack{Epoch: s.epoch, Applied: s.applied, OK: false, Reason: "fenced"}, true
	}

	if f.Durable > s.durable {
		s.durable = f.Durable
		s.stats.PrimaryDurable.Set(f.Durable)
	}

	// Resync probe: report where we are.
	if f.From < 0 {
		return s.ackLocked(true, ""), true
	}

	switch {
	case f.To <= s.applied:
		// A resend or network duplicate of bytes already applied: absorb
		// and re-ack so the shipper advances.
		s.stats.DupBatches.Inc()
		return s.ackLocked(true, ""), true
	case f.From > s.applied:
		// A gap: an earlier frame was dropped. Nak with our applied LSN so
		// the shipper rewinds there.
		s.stats.GapNaks.Inc()
		return s.ackLocked(false, "gap"), true
	}

	// f.From <= applied < f.To: the frame extends our log. Verify the
	// payload before any of it touches disk or the data component.
	if frameCRC(f.Payload) != f.CRC {
		return s.ackLocked(false, "corrupt"), true
	}
	if f.From+int64(len(f.Payload)) != f.To {
		return s.ackLocked(false, "corrupt"), true
	}

	// Persist first, apply second: once acked, the bytes must survive a
	// standby restart, and replaying them is idempotent (blind writes).
	fresh := f.Payload[s.applied-f.From:] // frame-aligned: applied is a batch boundary
	err := fault.DefaultRetry().Do(nil, func() error {
		return s.cfg.LogDevice.WriteAt(s.applied, fresh, nil)
	})
	if err != nil {
		// Persistent standby log failure (device full, torn writes):
		// latch degraded and nak — the shipper keeps retrying, the
		// operator sees the latch.
		s.health.Degrade("standby log write: " + err.Error())
		return s.ackLocked(false, "store"), true
	}

	records, maxTS, aerr := tc.ApplyLogBytes(fresh, s.applied, s.cfg.DC)
	if aerr != nil {
		return s.ackLocked(false, "apply"), true
	}
	s.applied = f.To
	if maxTS > s.maxTS {
		s.maxTS = maxTS
	}
	s.stats.BatchesApplied.Inc()
	s.stats.RecordsApplied.Add(int64(records))
	s.stats.BytesApplied.Add(int64(len(fresh)))
	s.stats.AppliedLSN.Set(s.applied)
	return s.ackLocked(true, ""), true
}

func (s *Standby) ackLocked(ok bool, reason string) Ack {
	return Ack{Epoch: s.epoch, Applied: s.applied, OK: ok, Reason: reason}
}

// MarkCheckpoint records the current applied position as a PITR target
// and returns it. The ring keeps the newest Retain checkpoints; the
// oldest retained one is the retention floor below which PITR refuses.
func (s *Standby) MarkCheckpoint() Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck := Checkpoint{LSN: s.applied, TS: s.maxTS}
	s.cks = append(s.cks, ck)
	if len(s.cks) > s.cfg.Retain {
		s.cks = s.cks[len(s.cks)-s.cfg.Retain:]
	}
	return ck
}

// Checkpoints returns the retained checkpoint ring, oldest first.
func (s *Standby) Checkpoints() []Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Checkpoint(nil), s.cks...)
}

// retentionFloor is the oldest retained checkpoint's LSN (0 if none was
// ever recorded: the whole shipped prefix is still replayable).
func (s *Standby) retentionFloorLocked() int64 {
	if len(s.cks) == 0 {
		return 0
	}
	return s.cks[0].LSN
}

// PITRToLSN reconstructs, into dst, the exact state as of the given
// batch-boundary LSN by replaying the standby's shipped log prefix. The
// target must not exceed what has been shipped and applied
// (ErrBeyondApplied) and must not predate the retention floor
// (ErrBeforeRetention).
func (s *Standby) PITRToLSN(lsn int64, dst tc.DataComponent) (tc.RecoverResult, error) {
	s.mu.Lock()
	applied, floor := s.applied, s.retentionFloorLocked()
	s.mu.Unlock()
	if lsn > applied {
		return tc.RecoverResult{}, fmt.Errorf("%w: target %d > applied %d", ErrBeyondApplied, lsn, applied)
	}
	if lsn < floor {
		return tc.RecoverResult{}, fmt.Errorf("%w: target %d < floor %d", ErrBeforeRetention, lsn, floor)
	}
	return tc.RecoverTo(s.cfg.LogDevice, dst, tc.RecoverOpts{MaxLSN: lsn})
}

// PITRToTime reconstructs, into dst, the state as of commit timestamp ts:
// every record with commitTS <= ts, none after. The timestamp must not
// exceed the highest applied one (ErrBeyondApplied), and the reconstructed
// LSN must clear the retention floor.
func (s *Standby) PITRToTime(ts uint64, dst tc.DataComponent) (tc.RecoverResult, error) {
	s.mu.Lock()
	applied, maxTS, floor := s.applied, s.maxTS, s.retentionFloorLocked()
	s.mu.Unlock()
	if ts > maxTS {
		return tc.RecoverResult{}, fmt.Errorf("%w: target ts %d > applied ts %d", ErrBeyondApplied, ts, maxTS)
	}
	res, err := tc.RecoverTo(s.cfg.LogDevice, dst, tc.RecoverOpts{MaxLSN: applied, MaxTS: ts})
	if err != nil {
		return res, err
	}
	if res.Replay.TruncatedAt < floor {
		return res, fmt.Errorf("%w: ts %d resolves to LSN %d < floor %d", ErrBeforeRetention, ts, res.Replay.TruncatedAt, floor)
	}
	return res, nil
}

// Seal promotes the standby's fence to newEpoch and stops accepting
// frames entirely; it returns the applied LSN and highest applied commit
// timestamp. A promoted TC continues the shipped log in place: its log
// must reopen at exactly this LSN, and its clock starts at this timestamp.
func (s *Standby) Seal(newEpoch uint64) (appliedLSN int64, maxTS uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if newEpoch > s.epoch {
		s.epoch = newEpoch
	}
	s.sealed = true
	return s.applied, s.maxTS
}
