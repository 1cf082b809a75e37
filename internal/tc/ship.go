package tc

// This file is the log-shipping and point-in-time-recovery surface of the
// TC: the recovery log is the replication boundary of the Deuteronomy
// split, so the shipper (internal/repl) moves raw log bytes in
// frame-aligned batches and the standby reapplies them with the same
// blind updates recovery uses. Batches are cut, applied and replayed by
// logstore's one frame walker. Segment pads, including the unframed fill
// at a segment tail, ship like any frame, so a standby's log holds the
// primary's bytes at the primary's offsets.

import (
	"errors"
	"fmt"
	"log"

	"costperf/internal/fault"
	"costperf/internal/llama/logstore"
	"costperf/internal/ssd"
)

// DurableLSN returns the log offset up to which the recovery log is
// durable: the log store's flushed tail, always a frame or segment
// boundary. This is the shipping horizon — batches are cut from [cursor,
// DurableLSN).
func (tc *TC) DurableLSN() int64 { return tc.log.Flushed() }

// LogDevice returns the device holding the recovery log (the shipper reads
// batches straight off it).
func (tc *TC) LogDevice() ssd.Dev { return tc.cfg.LogDevice }

// Clock returns the current commit-timestamp clock value. A shard resize
// that builds a TC continuing one source's log while folding in another
// source's state seeds the new InitialClock from the max of both clocks,
// so the merged timeline stays monotonic.
func (tc *TC) Clock() uint64 { return tc.clock.Load() }

// ReadLogBatch reads a frame-aligned batch of durable recovery-log bytes
// for shipping: starting at the frame boundary from, it returns whole
// frames totalling at most maxBytes (but always at least one frame, so a
// record larger than maxBytes still ships), never reading past durable.
// The returned end offset is the batch's boundary LSN — the next batch's
// from, and a valid PITR target. A zero maxBytes defaults to 64 KiB.
func ReadLogBatch(dev ssd.Dev, from, durable int64, maxBytes int) ([]byte, int64, error) {
	if from >= durable {
		return nil, from, nil
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 10
	}
	buf, end, err := cutBatch(dev, from, durable, min(durable, from+int64(maxBytes)))
	if err == nil && end == from {
		// The first frame alone exceeds maxBytes: ship it whole. No frame
		// is longer than a segment.
		buf, end, err = cutBatch(dev, from, durable, min(durable, from+logSegmentBytes))
	}
	return buf, end, err
}

// cutBatch reads [from, to) and cuts it at the last whole frame.
func cutBatch(dev ssd.Dev, from, durable, to int64) ([]byte, int64, error) {
	var buf []byte
	err := fault.DefaultRetry().Do(nil, func() error {
		var rerr error
		buf, rerr = dev.ReadAt(from, int(to-from), nil)
		return rerr
	})
	if err != nil {
		return nil, 0, err
	}
	w, err := logstore.WalkBytes(buf, from, durable, logSegmentBytes, nil)
	if err != nil {
		return nil, 0, err
	}
	if w.Reason != logstore.ReplayCleanEnd {
		return nil, 0, fmt.Errorf("tc: log batch at %d stops at %d (%s) below durable LSN %d (%w)",
			from, w.End, w.Reason, durable, fault.ErrCorrupt)
	}
	return buf[:w.End-from], w.End, nil
}

// ApplyLogBytes walks the frames in buf, a shipped batch cut by
// ReadLogBatch that starts at log offset base, and applies every redo
// entry to dc with the same blind updates recovery uses. It returns the
// number of commit records applied and the highest commit timestamp seen.
// A frame failing verification stops application with an error wrapping
// fault.ErrCorrupt (nothing of the bad frame is applied).
func ApplyLogBytes(buf []byte, base int64, dc DataComponent) (records int, maxTS uint64, err error) {
	end := base + int64(len(buf))
	w, err := logstore.WalkBytes(buf, base, end, logSegmentBytes, commits(func(rec commitRecord) error {
		if err := redo(dc, rec.entries); err != nil {
			return err
		}
		maxTS = max(maxTS, rec.commitTS)
		records++
		return nil
	}))
	if err == nil && w.End != end {
		err = fmt.Errorf("tc: batch [%d,%d) stops at %d (%s) (%w)", base, end, w.End, w.Reason, fault.ErrCorrupt)
	}
	return records, maxTS, err
}

// commits adapts fn to a walk of the recovery log: pads are skipped, and
// a commit frame reaches fn decoded. A frame of any other kind, or a body
// encodeCommit cannot have written, fails with fault.ErrCorrupt.
func commits(fn func(commitRecord) error) logstore.WalkFunc {
	return func(rec logstore.Record, off, _ int64) error {
		switch rec.Kind {
		case logstore.KindPad:
			return nil
		case logstore.KindCommit:
			c, err := decodeCommit(rec.Payload)
			if err != nil {
				return fmt.Errorf("tc: log record at %d: %w", off, err)
			}
			return fn(c)
		}
		return fmt.Errorf("tc: log record at %d has kind %d (%w)", off, rec.Kind, fault.ErrCorrupt)
	}
}

// RecoverOpts bounds point-in-time recovery.
type RecoverOpts struct {
	// MaxLSN stops replay at the last record ending at or before this log
	// offset (0 = the whole log). PITR passes a recorded batch-boundary
	// LSN here.
	MaxLSN int64
	// MaxTS stops replay before the first record whose commit timestamp
	// exceeds this value (0 = no bound). Commit timestamps are appended in
	// order, so this reproduces the state as of commit time MaxTS.
	MaxTS uint64
}

// errStopReplay halts a bounded replay without reporting an error.
var errStopReplay = errors.New("tc: replay bound reached")

// RecoverTo replays a recovery log against a data component up to the
// given bounds — the point-in-time recovery primitive. With zero opts it
// is exactly Recover. Replay is prefix-only: it stops at the first frame
// that fails verification and never applies a record past it. The
// result's Replay.TruncatedAt reports the LSN the state was reconstructed
// to.
func RecoverTo(logDevice ssd.Dev, dc DataComponent, opts RecoverOpts) (RecoverResult, error) {
	var res RecoverResult
	w, err := logstore.WalkDevice(logDevice, logSegmentBytes, 0, opts.MaxLSN, commits(func(rec commitRecord) error {
		if opts.MaxTS > 0 && rec.commitTS > opts.MaxTS {
			return errStopReplay
		}
		res.MaxTS = max(res.MaxTS, rec.commitTS)
		if err := redo(dc, rec.entries); err != nil {
			return err
		}
		res.Applied += len(rec.entries)
		res.Replay.Records++
		return nil
	}))
	if errors.Is(err, errStopReplay) {
		err = nil
	}
	res.Replay.TruncatedAt, res.Replay.Reason = w.End, w.Reason
	if err == nil {
		log.Printf("tc: recovery %s, %d redo entr%s applied, max commit ts %d",
			res.Replay, res.Applied, plural(res.Applied, "y", "ies"), res.MaxTS)
	}
	return res, err
}
