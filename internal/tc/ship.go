package tc

// This file is the log-shipping and point-in-time-recovery surface of the
// TC: the recovery log is the replication boundary of the Deuteronomy
// split, so the shipper (internal/repl) moves raw log bytes in
// record-aligned batches and the standby reapplies them with the same
// blind updates recovery uses.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"

	"costperf/internal/fault"
	"costperf/internal/ssd"
)

// DurableLSN returns the device offset up to which the recovery log is
// durable: every byte below it is a flushed, complete frame. This is the
// shipping horizon — batches are cut from [cursor, DurableLSN).
func (tc *TC) DurableLSN() int64 {
	tc.log.mu.Lock()
	defer tc.log.mu.Unlock()
	return tc.log.start
}

// LogDevice returns the device holding the recovery log (the shipper reads
// batches straight off it).
func (tc *TC) LogDevice() ssd.Dev { return tc.cfg.LogDevice }

// Clock returns the current commit-timestamp clock value. A shard resize
// that builds a TC continuing one source's log while folding in another
// source's state seeds the new InitialClock from the max of both clocks,
// so the merged timeline stays monotonic.
func (tc *TC) Clock() uint64 { return tc.clock.Load() }

// ReadLogBatch reads a record-aligned batch of durable recovery-log bytes
// for shipping: starting at the record boundary from, it returns complete
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
	retry := fault.DefaultRetry()
	readAt := func(o int64, n int64) ([]byte, error) {
		var out []byte
		err := retry.Do(nil, func() error {
			var rerr error
			out, rerr = dev.ReadAt(o, int(n), nil)
			return rerr
		})
		return out, err
	}
	n := durable - from
	if n > int64(maxBytes) {
		n = int64(maxBytes)
	}
	if n < 9 {
		return nil, 0, fmt.Errorf("tc: durable LSN %d is not a record boundary after %d (%w)",
			durable, from, fault.ErrCorrupt)
	}
	buf, err := readAt(from, n)
	if err != nil {
		return nil, 0, err
	}
	end := 0
	for end+9 <= len(buf) {
		if buf[end] != rlogMagic {
			return nil, 0, fmt.Errorf("tc: bad log magic at %d (%w)", from+int64(end), fault.ErrCorrupt)
		}
		fl := 9 + int(binary.BigEndian.Uint32(buf[end+1:]))
		if from+int64(end+fl) > durable {
			return nil, 0, fmt.Errorf("tc: record at %d runs past durable LSN %d (%w)",
				from+int64(end), durable, fault.ErrCorrupt)
		}
		if end+fl > len(buf) {
			break
		}
		end += fl
	}
	if end == 0 {
		// The first record alone exceeds maxBytes: ship it whole.
		fl := int64(9 + binary.BigEndian.Uint32(buf[1:]))
		if buf, err = readAt(from, fl); err != nil {
			return nil, 0, err
		}
		end = int(fl)
	}
	return buf[:end], from + int64(end), nil
}

// ApplyLogBytes walks the complete framed commit records in buf (a shipped
// batch cut by ReadLogBatch) and applies every redo entry to dc with the
// same blind updates recovery uses. It returns the number of commit
// records applied, the highest commit timestamp seen, and the bytes
// consumed; a frame failing verification stops application with an error
// wrapping fault.ErrCorrupt (nothing of the bad frame is applied).
func ApplyLogBytes(buf []byte, dc DataComponent) (records int, maxTS uint64, consumed int64, err error) {
	off := 0
	for off+9 <= len(buf) {
		if buf[off] != rlogMagic {
			return records, maxTS, int64(off), fmt.Errorf("tc: bad batch magic at %d (%w)", off, fault.ErrCorrupt)
		}
		blen := int(binary.BigEndian.Uint32(buf[off+1:]))
		crc := binary.BigEndian.Uint32(buf[off+5:])
		if off+9+blen > len(buf) {
			return records, maxTS, int64(off), fmt.Errorf("tc: truncated batch frame at %d (%w)", off, fault.ErrCorrupt)
		}
		body := buf[off+9 : off+9+blen]
		if crc32.ChecksumIEEE(body) != crc {
			return records, maxTS, int64(off), fmt.Errorf("tc: batch frame CRC mismatch at %d (%w)", off, fault.ErrCorrupt)
		}
		rec, derr := decodeCommit(body)
		if derr != nil {
			return records, maxTS, int64(off), fmt.Errorf("tc: batch record at %d: %w", off, derr)
		}
		if aerr := redo(dc, rec.entries); aerr != nil {
			return records, maxTS, int64(off), aerr
		}
		if rec.commitTS > maxTS {
			maxTS = rec.commitTS
		}
		records++
		off += 9 + blen
	}
	if off != len(buf) {
		return records, maxTS, int64(off), fmt.Errorf("tc: batch ends mid-frame at %d (%w)", off, fault.ErrCorrupt)
	}
	return records, maxTS, int64(off), nil
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
// is exactly Recover. The result's Replay.TruncatedAt reports the LSN the
// state was reconstructed to.
func RecoverTo(logDevice ssd.Dev, dc DataComponent, opts RecoverOpts) (RecoverResult, error) {
	var res RecoverResult
	sum, err := replayRange(logDevice, 0, opts.MaxLSN, fault.DefaultRetry(), nil, func(rec commitRecord, _ int64) error {
		if opts.MaxTS > 0 && rec.commitTS > opts.MaxTS {
			return errStopReplay
		}
		if rec.commitTS > res.MaxTS {
			res.MaxTS = rec.commitTS
		}
		if err := redo(dc, rec.entries); err != nil {
			return err
		}
		res.Applied += len(rec.entries)
		return nil
	})
	if errors.Is(err, errStopReplay) {
		err = nil
	}
	res.Replay = sum
	if err == nil {
		log.Printf("tc: recovery %s, %d redo entr%s applied, max commit ts %d",
			sum, res.Applied, plural(res.Applied, "y", "ies"), res.MaxTS)
	}
	return res, err
}
