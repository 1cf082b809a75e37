package logstore

import (
	"encoding/binary"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/ssd"
)

// ReplayReason explains why a frame walk stopped where it did.
type ReplayReason string

const (
	// ReplayCleanEnd: the walk consumed every written byte in range; the
	// log ends at a frame boundary (or the rest was never written).
	ReplayCleanEnd ReplayReason = "clean-end"
	// ReplayTornTail: written bytes remain after the last whole frame but
	// do not form one — zero fill where a header should start, a header
	// cut before its length and checksum fields, or a frame running past
	// the written end: a flush torn by power loss.
	ReplayTornTail ReplayReason = "torn-tail"
	// ReplayBadCRC: a whole frame was present but failed verification — its
	// checksum, or a length no frame in its segment can have: a torn or
	// corrupted write inside the frame.
	ReplayBadCRC ReplayReason = "bad-crc"
	// ReplayBadMagic: the byte at the stop offset is neither a frame magic
	// nor zero fill — foreign or corrupted data in the log region.
	ReplayBadMagic ReplayReason = "bad-magic"
)

// WalkResult reports where a frame walk stopped and why.
type WalkResult struct {
	// End is the offset after the last whole frame walked, and after the
	// unframed fill at a segment tail when that fill is in range. Damage,
	// if any, starts here.
	End int64
	// Reason explains the stop.
	Reason ReplayReason
}

// WalkFunc receives each frame a walk passes, pads included, with its
// start and end offsets. rec.Payload is only valid during the call. A
// non-nil return stops the walk, which returns that error.
type WalkFunc func(rec Record, off, end int64) error

// WalkDevice walks the log frames on dev from the frame boundary from to
// the bound to (0 = the device's high-water mark) and stops at the first
// frame that fails verification. A whole frame ending past to stops the
// walk cleanly; only damage below the high-water mark is reported. The
// walk never resynchronizes: every frame it passes lies in an undamaged
// prefix of [from, to). segmentBytes is the log's segment size.
func WalkDevice(dev ssd.Dev, segmentBytes, from, to int64, fn WalkFunc) (WalkResult, error) {
	return walkDevice(dev, nil, segmentBytes, from, to, fn)
}

// WalkBytes walks the log frames in buf, the log bytes at [base,
// base+len(buf)), as WalkDevice does. hw is the end of the written log
// and may lie past buf: a frame ending past buf but not past hw was cut by
// the read, not torn, and stops the walk cleanly.
func WalkBytes(buf []byte, base, hw, segmentBytes int64, fn WalkFunc) (WalkResult, error) {
	read := func(off int64, n int) ([]byte, error) {
		return buf[off-base : off-base+int64(n)], nil
	}
	return walk(read, hw, min(hw, base+int64(len(buf))), segmentBytes, base, fn)
}

func walkDevice(dev ssd.Dev, meter *metrics.RetryStats, segmentBytes, from, to int64, fn WalkFunc) (WalkResult, error) {
	read := func(off int64, n int) ([]byte, error) { return readAt(dev, meter, off, n) }
	hw := dev.HighWater()
	limit := hw
	if to > 0 && to < hw {
		limit = to
	}
	return walk(read, hw, limit, segmentBytes, from, fn)
}

// readAt reads n bytes at off, retrying transient faults.
func readAt(dev ssd.Dev, meter *metrics.RetryStats, off int64, n int) ([]byte, error) {
	var out []byte
	err := fault.DefaultRetry().Do(meter, func() error {
		var rerr error
		out, rerr = dev.ReadAt(off, n, nil)
		return rerr
	})
	return out, err
}

// walk is the one frame walker: it passes the frames from off to limit
// and stops at the first one that fails verification. Written data ends
// at hw; a frame cut by limit below hw is out of range, not damage.
func walk(read func(off int64, n int) ([]byte, error), hw, limit, seg, off int64, fn WalkFunc) (WalkResult, error) {
	stop := func(r ReplayReason) (WalkResult, error) { return WalkResult{End: off, Reason: r}, nil }
	for {
		segEnd := (off/seg + 1) * seg
		if segEnd-off < headerSize {
			// Zero fill too short to frame a pad: the next frame starts at
			// the segment boundary.
			if segEnd > limit {
				break
			}
			off = segEnd
			continue
		}
		if off+headerSize > limit {
			break
		}
		hdr, err := read(off, headerSize)
		if err != nil {
			return WalkResult{End: off, Reason: ReplayCleanEnd}, err
		}
		switch hdr[0] {
		case magic:
		case 0:
			return stop(ReplayTornTail)
		default:
			return stop(ReplayBadMagic)
		}
		plen := int64(binary.BigEndian.Uint32(hdr[10:]))
		end := off + headerSize + plen
		switch {
		case end > segEnd:
			return stop(ReplayBadCRC) // records never span a segment boundary
		case end > hw:
			return stop(ReplayTornTail)
		case end > limit:
			return stop(ReplayCleanEnd) // whole, but past the caller's bound
		}
		raw, err := read(off, int(end-off))
		if err != nil {
			return WalkResult{End: off, Reason: ReplayCleanEnd}, err
		}
		rec, err := decode(raw, int32(plen))
		if err != nil {
			if plen == 0 && binary.BigEndian.Uint32(hdr[14:]) == 0 {
				// Length and checksum read as zero fill: a flush torn
				// inside the header.
				return stop(ReplayTornTail)
			}
			return stop(ReplayBadCRC)
		}
		if fn != nil {
			if err := fn(rec, off, end); err != nil {
				return WalkResult{End: off, Reason: ReplayCleanEnd}, err
			}
		}
		off = end
	}
	// Written bytes short of a header remain inside the walked range: a
	// flush torn mid-header. Bytes past a caller's bound are out of scope.
	if limit == hw && off < hw {
		return stop(ReplayTornTail)
	}
	return stop(ReplayCleanEnd)
}
