// Package tc implements a Deuteronomy-style transaction component (paper
// Figure 6 and Section 6.3): multi-version concurrency control whose
// version store serves recently committed values (heap copies, the TC's
// updated-record cache), a redo recovery log, and a log-structured read
// cache for records fetched from the data component.
//
// The recovery log is a logstore.Store, the same large-buffer log LLAMA
// writes pages to: each commit is one logstore.KindCommit frame, an LSN is
// a log offset, and replay, shipping and promotion walk logstore frames.
// The store reuses its buffer after every flush, so no log bytes stay in
// memory.
//
// All transactional updates reach the data component as blind updates
// (Section 6.2): the TC reads through its caches, and committed values are
// posted to the Bw-tree without reading the target page.
package tc

import (
	"encoding/binary"
	"fmt"

	"costperf/internal/fault"
	"costperf/internal/llama/logstore"
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

// encodeCommit writes a commit record's body, the payload of one
// logstore.KindCommit frame.
func encodeCommit(rec commitRecord) []byte {
	n := 2 * binary.MaxVarintLen64
	for _, e := range rec.entries {
		n += 1 + 2*binary.MaxVarintLen64 + len(e.key) + len(e.val)
	}
	body := make([]byte, 0, n)
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
	return body
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

// ReplaySummary reports how far log replay got and why it stopped.
type ReplaySummary struct {
	// Records is the number of complete commit records applied.
	Records int
	// TruncatedAt is the byte offset where replay stopped: the end of the
	// last complete record (everything at and beyond it was discarded).
	TruncatedAt int64
	// Reason explains the stop.
	Reason logstore.ReplayReason
}

// String renders the summary for logs.
func (s ReplaySummary) String() string {
	return fmt.Sprintf("replayed %d commit record(s), log truncated at byte %d (%s)",
		s.Records, s.TruncatedAt, s.Reason)
}
