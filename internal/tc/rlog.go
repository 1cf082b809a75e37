// Package tc implements a Deuteronomy-style transaction component (paper
// Figure 6 and Section 6.3): multi-version concurrency control whose
// version store doubles as a record cache, a redo recovery log whose
// buffers are retained in memory as an updated-record cache, and a
// log-structured read cache for records fetched from the data component.
//
// All transactional updates reach the data component as blind updates
// (Section 6.2): the TC reads through its caches, and committed values are
// posted to the Bw-tree without reading the target page.
package tc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/ssd"
)

// redoEntry is one write of a committed transaction.
type redoEntry struct {
	key      []byte
	val      []byte
	isDelete bool
}

// redo applies entries to dc as blind updates, stopping at the first
// error: the one redo step commit, recovery and log shipping share.
func redo(dc DataComponent, entries []redoEntry) error {
	for _, e := range entries {
		var err error
		if e.isDelete {
			err = dc.Delete(e.key)
		} else {
			err = dc.BlindWrite(e.key, e.val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// commitRecord is the unit appended to the recovery log: all writes of one
// transaction plus its commit timestamp.
type commitRecord struct {
	commitTS uint64
	entries  []redoEntry
}

const rlogMagic = 0xC7

// rlog is the redo recovery log: records accumulate in an in-memory buffer
// (which the TC retains as a record cache) and flush to the device in
// large writes.
type rlog struct {
	mu      sync.Mutex
	dev     ssd.Dev
	buf     []byte
	start   int64 // device offset of buf[0]
	bufCap  int
	flushes int64

	retry  fault.RetryPolicy
	meter  *metrics.RetryStats // owned by the TC's Stats (may be nil)
	health *metrics.Health     // owned by the TC's Stats (may be nil)
}

func newRlog(dev ssd.Dev, bufBytes int, retry fault.RetryPolicy, meter *metrics.RetryStats, health *metrics.Health) *rlog {
	if bufBytes <= 0 {
		bufBytes = 1 << 20
	}
	return &rlog{
		dev: dev, buf: make([]byte, 0, bufBytes), bufCap: bufBytes,
		retry: retry, meter: meter, health: health,
	}
}

func (l *rlog) degraded() bool { return l.health != nil && l.health.Degraded() }

func encodeCommit(rec commitRecord) []byte {
	var body []byte
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		body = append(body, tmp[:n]...)
	}
	putB := func(b []byte) {
		put(uint64(len(b)))
		body = append(body, b...)
	}
	put(rec.commitTS)
	put(uint64(len(rec.entries)))
	for _, e := range rec.entries {
		flag := byte(0)
		if e.isDelete {
			flag = 1
		}
		body = append(body, flag)
		putB(e.key)
		if !e.isDelete {
			putB(e.val)
		}
	}
	// Frame: magic | len(4) | crc(4) | body
	out := make([]byte, 9+len(body))
	out[0] = rlogMagic
	binary.BigEndian.PutUint32(out[1:], uint32(len(body)))
	binary.BigEndian.PutUint32(out[5:], crc32.ChecksumIEEE(body))
	copy(out[9:], body)
	return out
}

// errCorruptRecord reports a commit record body that encodeCommit cannot
// have produced.
var errCorruptRecord = fmt.Errorf("tc: corrupt commit record (%w)", fault.ErrCorrupt)

// decodeCommit accepts exactly what encodeCommit writes: shortest-form
// varints, entry flags 0 or 1, and no bytes after the last entry.
func decodeCommit(body []byte) (commitRecord, error) {
	var rec commitRecord
	pos := 0
	get := func() (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 || (n > 1 && body[pos+n-1] == 0) {
			return 0, fmt.Errorf("%w: bad varint at %d", errCorruptRecord, pos)
		}
		pos += n
		return v, nil
	}
	getB := func() ([]byte, error) {
		l, err := get()
		if err != nil {
			return nil, err
		}
		// Bound l as a uint64: a length near 2^64 wraps negative as an int.
		if l > uint64(len(body)-pos) {
			return nil, fmt.Errorf("%w: field of %d bytes at %d", errCorruptRecord, l, pos)
		}
		b := append([]byte(nil), body[pos:pos+int(l)]...)
		pos += int(l)
		return b, nil
	}
	ts, err := get()
	if err != nil {
		return rec, err
	}
	rec.commitTS = ts
	n, err := get()
	if err != nil {
		return rec, err
	}
	for i := uint64(0); i < n; i++ {
		if pos >= len(body) || body[pos] > 1 {
			return rec, fmt.Errorf("%w: bad entry flag at %d", errCorruptRecord, pos)
		}
		e := redoEntry{isDelete: body[pos] == 1}
		pos++
		if e.key, err = getB(); err != nil {
			return rec, err
		}
		if !e.isDelete {
			if e.val, err = getB(); err != nil {
				return rec, err
			}
		}
		rec.entries = append(rec.entries, e)
	}
	if pos != len(body) {
		return rec, fmt.Errorf("%w: %d trailing bytes", errCorruptRecord, len(body)-pos)
	}
	return rec, nil
}

// append stages a commit record; it flushes automatically when the buffer
// fills.
func (l *rlog) append(rec commitRecord) error {
	framed := encodeCommit(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degraded() {
		return ErrDegraded
	}
	if len(l.buf)+len(framed) > l.bufCap {
		if err := l.flushLocked(); err != nil {
			return err
		}
	}
	l.buf = append(l.buf, framed...)
	return nil
}

// flush forces buffered records to the device (group commit boundary).
func (l *rlog) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *rlog) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if l.degraded() {
		return ErrDegraded
	}
	// A retried flush rewrites the whole buffer at the same offset, so a
	// torn first attempt is simply overwritten.
	err := l.retry.Do(l.meter, func() error {
		return l.dev.WriteAt(l.start, l.buf, nil)
	})
	if err != nil {
		if l.health != nil && fault.Classify(err) == fault.ClassPersistent {
			l.health.Degrade(fmt.Sprintf("log flush at %d: %v", l.start, err))
		}
		return err
	}
	l.start += int64(len(l.buf))
	l.buf = l.buf[:0]
	l.flushes++
	return nil
}

// ReplayReason explains why log replay stopped where it did.
type ReplayReason string

const (
	// ReplayCleanEnd: the scan consumed every written byte; the log ends at
	// a record boundary (or the remaining tail was never written).
	ReplayCleanEnd ReplayReason = "clean-end"
	// ReplayTornTail: written bytes remain after the last complete record,
	// but not enough for a whole frame — a flush torn by power loss.
	ReplayTornTail ReplayReason = "torn-tail"
	// ReplayBadCRC: a full frame was present but its body failed the
	// checksum — a torn or corrupted write inside the frame.
	ReplayBadCRC ReplayReason = "bad-crc"
	// ReplayBadMagic: the byte at the truncation offset is neither a frame
	// magic nor zero fill — foreign or corrupted data in the log region.
	ReplayBadMagic ReplayReason = "bad-magic"
)

// ReplaySummary reports how far log replay got and why it stopped.
type ReplaySummary struct {
	// Records is the number of complete commit records applied.
	Records int
	// TruncatedAt is the byte offset where replay stopped: the end of the
	// last complete record (everything at and beyond it was discarded).
	TruncatedAt int64
	// Reason explains the stop.
	Reason ReplayReason
}

// String renders the summary for logs.
func (s ReplaySummary) String() string {
	return fmt.Sprintf("replayed %d commit record(s), log truncated at byte %d (%s)",
		s.Records, s.TruncatedAt, s.Reason)
}

// replayRange scans log records in [from, to); from must be a record
// boundary and to is an inclusive upper bound on record ends (0 = the
// device high-water mark). fn receives each record together with its end
// offset (the LSN after the record — the batch boundaries log shipping and
// PITR navigate by). A record that is complete on the device but ends past
// the bound stops the scan cleanly; only damage inside the bound reports a
// torn or corrupt stop.
func replayRange(dev ssd.Dev, from, to int64, retry fault.RetryPolicy, m *metrics.RetryStats, fn func(commitRecord, int64) error) (ReplaySummary, error) {
	sum := ReplaySummary{Reason: ReplayCleanEnd, TruncatedAt: from}
	off := from
	hw := dev.HighWater()
	limit := hw
	if to > 0 && to < hw {
		limit = to
	}
	readAt := func(o int64, n int) ([]byte, error) {
		var out []byte
		err := retry.Do(m, func() error {
			var rerr error
			out, rerr = dev.ReadAt(o, n, nil)
			return rerr
		})
		return out, err
	}
	for off+9 <= limit {
		hdr, err := readAt(off, 9)
		if err != nil {
			return sum, err
		}
		if hdr[0] != rlogMagic {
			// Zero bytes inside the written high-water are the zero-filled
			// remainder of a torn flush; anything else is foreign data.
			if hdr[0] == 0 {
				sum.Reason = ReplayTornTail
			} else {
				sum.Reason = ReplayBadMagic
			}
			sum.TruncatedAt = off
			return sum, nil
		}
		blen := int64(binary.BigEndian.Uint32(hdr[1:]))
		crc := binary.BigEndian.Uint32(hdr[5:])
		if blen == 0 {
			// encodeCommit never produces an empty body; a zero length is
			// the zero-filled remainder of a flush torn inside the header
			// (an empty body would also pass the CRC check, since the CRC
			// field reads as zero too).
			sum.TruncatedAt, sum.Reason = off, ReplayTornTail
			return sum, nil
		}
		if off+9+blen > limit {
			if off+9+blen > hw {
				sum.TruncatedAt, sum.Reason = off, ReplayTornTail
			}
			// Otherwise the record is intact but past the caller's bound:
			// a clean stop at the last in-bound boundary.
			return sum, nil
		}
		body, err := readAt(off+9, int(blen))
		if err != nil {
			return sum, err
		}
		if crc32.ChecksumIEEE(body) != crc {
			sum.TruncatedAt, sum.Reason = off, ReplayBadCRC
			return sum, nil
		}
		rec, err := decodeCommit(body)
		if err != nil {
			return sum, fmt.Errorf("tc: log record at %d: %w", off, err)
		}
		if err := fn(rec, off+9+blen); err != nil {
			return sum, err
		}
		sum.Records++
		off += 9 + blen
		sum.TruncatedAt = off
	}
	// Written bytes remain past the last complete record but inside the
	// scan bound: a final flush was torn mid-header. Bytes past a caller
	// bound are simply out of scope, not damage.
	if limit == hw && hw > off {
		sum.Reason = ReplayTornTail
	}
	sum.TruncatedAt = off
	return sum, nil
}
