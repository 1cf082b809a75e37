// Package logstore implements LLAMA's log-structured secondary storage
// (paper Section 6.1): page states are accumulated into very large write
// buffers and written to flash in a single I/O, dramatically reducing the
// number of writes. Pages are variable size — only the bytes a page
// actually uses are written — and a previously flushed base page can be
// represented by delta-only increments (the caller chooses what to append).
//
// The log is divided into fixed-size segments for garbage collection:
// superseded records are invalidated, and GC relocates the remaining live
// records of the lowest-utilization segment before trimming it (paper
// Section 6.1's GC trade-off discussion).
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
)

// Kind tags the content of a log record.
type Kind uint8

const (
	// KindBase is a full (consolidated) page image.
	KindBase Kind = 1
	// KindDelta is an incremental page update (paper Figure 5).
	KindDelta Kind = 2
	// KindPad fills the unused tail of a segment so records never span
	// segment boundaries.
	KindPad Kind = 3
)

// Address locates a record in the log. The zero Address is "none".
type Address struct {
	// Off is the byte offset of the record header in the log, plus 1 so
	// that the zero value is invalid.
	Off int64
	// Len is the payload length in bytes.
	Len int32
}

// IsNil reports whether the address is the zero "none" value.
func (a Address) IsNil() bool { return a.Off == 0 }

func (a Address) offset() int64 { return a.Off - 1 }

// String renders the address for logs.
func (a Address) String() string {
	if a.IsNil() {
		return "addr(nil)"
	}
	return fmt.Sprintf("addr(%d,%d)", a.offset(), a.Len)
}

// Record is a decoded log record.
type Record struct {
	PID     uint64
	Kind    Kind
	Payload []byte
}

const (
	magic      = 0xD7 // first header byte of every record
	headerSize = 1 + 1 + 8 + 4 + 4
)

// Common errors.
var (
	ErrBadAddress = errors.New("logstore: invalid address")
	// ErrCorrupt wraps fault.ErrCorrupt so fault.Classify sees store-level
	// checksum failures uniformly.
	ErrCorrupt  = fmt.Errorf("logstore: corrupt record (%w)", fault.ErrCorrupt)
	ErrTooLarge = errors.New("logstore: record exceeds segment size")
	ErrClosed   = errors.New("logstore: closed")
	// ErrDegraded is returned by writes after a persistent device write
	// failure latched the store read-only (see Stats.Health).
	ErrDegraded = errors.New("logstore: store degraded (read-only)")
)

// Config configures a Store.
type Config struct {
	// Device is the backing secondary-storage device — a plain *ssd.Device
	// or an *ssd.Mirror for checksum-verified, self-healing storage.
	Device ssd.Dev
	// BufferBytes is the write-buffer size; one device write per buffer
	// (paper: "writes very large buffers containing a large number of
	// pages ... in a single write"). Default 1 MiB.
	BufferBytes int
	// SegmentBytes is the GC granularity. Must be a multiple of
	// BufferBytes. Default 4 MiB.
	SegmentBytes int64
	// Obs, when non-nil, receives one tracing span per append/read/flush;
	// reads served by the device (not the write buffer) and appends that
	// trigger a synchronous flush are marked as misses. Nil traces
	// nothing at zero cost.
	Obs *obs.Tracer
}

func (c *Config) setDefaults() error {
	if c.Device == nil {
		return errors.New("logstore: nil device")
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 1 << 20
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.BufferBytes < headerSize+1 {
		return fmt.Errorf("logstore: buffer %d too small", c.BufferBytes)
	}
	if c.SegmentBytes%int64(c.BufferBytes) != 0 {
		return fmt.Errorf("logstore: segment %d not a multiple of buffer %d", c.SegmentBytes, c.BufferBytes)
	}
	return nil
}

type segInfo struct {
	liveBytes  int64
	totalBytes int64
}

// Stats reports store-level counters beyond the device's I/O stats.
type Stats struct {
	BytesAppended metrics.Counter
	Flushes       metrics.Counter
	GCRuns        metrics.Counter
	GCReclaimed   metrics.Counter
	GCRelocated   metrics.Counter
	BufferHits    metrics.Counter // reads served from the unflushed buffer
	// Retry meters the transient-fault retry budget spent on device I/O.
	Retry metrics.RetryStats
	// Health latches degraded (read-only) after a persistent write failure.
	Health metrics.Health
}

// Store is a log-structured record store. It is safe for concurrent use.
type Store struct {
	cfg Config

	mu       sync.Mutex
	buf      []byte
	bufStart int64 // log offset of buf[0]
	closed   bool
	segs     map[int64]*segInfo

	stats Stats
}

// Open creates a store over an empty device region or re-opens an existing
// log (recovery scans it to find the tail and rebuild segment accounting).
func Open(cfg Config) (*Store, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:  cfg,
		buf:  make([]byte, 0, cfg.BufferBytes),
		segs: make(map[int64]*segInfo),
	}
	// A self-healing device (ssd.Mirror) escalates unrecoverable dual-leg
	// corruption by latching every attached health read-only.
	if ha, ok := cfg.Device.(interface {
		AttachHealth(*metrics.Health)
	}); ok {
		ha.AttachHealth(&s.stats.Health)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover scans the device to find the log tail. Live-bytes accounting is
// initialized assuming every scanned record is live; the owner invalidates
// superseded records as it rebuilds its mapping.
func (s *Store) recover() error {
	tail := int64(0)
	err := s.scanDevice(func(rec Record, addr Address, recLen int64) bool {
		if rec.Kind != KindPad {
			s.accountAppend(addr.offset(), recLen)
		}
		tail = addr.offset() + recLen
		return true
	})
	if err != nil {
		return err
	}
	s.bufStart = tail
	return nil
}

func (s *Store) segIndex(off int64) int64 { return off / s.cfg.SegmentBytes }

func (s *Store) accountAppend(off, length int64) {
	si := s.segIndex(off)
	info := s.segs[si]
	if info == nil {
		info = &segInfo{}
		s.segs[si] = info
	}
	info.liveBytes += length
	info.totalBytes += length
}

// Stats returns the store's counters.
func (s *Store) Stats() *Stats { return &s.stats }

// Tail returns the current end-of-log offset (including buffered data).
func (s *Store) Tail() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bufStart + int64(len(s.buf))
}

// encodeHeader frames a record. The checksum covers the header prefix as
// well as the payload: a zero-length payload checksums to 0, so a
// payload-only CRC would let a torn header (zero-filled length and CRC
// fields) masquerade as a valid empty record during recovery.
func encodeHeader(dst []byte, kind Kind, pid uint64, payload []byte) {
	dst[0] = magic
	dst[1] = byte(kind)
	binary.BigEndian.PutUint64(dst[2:], pid)
	binary.BigEndian.PutUint32(dst[10:], uint32(len(payload)))
	sum := crc32.ChecksumIEEE(dst[:14])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	binary.BigEndian.PutUint32(dst[14:], sum)
}

// Append adds a record to the log and returns its address. The record
// becomes durable at the next buffer flush; it is readable immediately.
// A nil charger skips CPU accounting.
func (s *Store) Append(pid uint64, kind Kind, payload []byte, ch *sim.Charger) (_ Address, err error) {
	sp := s.cfg.Obs.Start(obs.OpPut)
	defer func() { sp.End(err) }()
	if kind != KindBase && kind != KindDelta {
		return Address{}, fmt.Errorf("logstore: cannot append kind %d", kind)
	}
	recLen := int64(headerSize + len(payload))
	if recLen > s.cfg.SegmentBytes {
		return Address{}, ErrTooLarge
	}
	if err := ch.Err(); err != nil {
		return Address{}, err // cancelled before any state changed
	}
	ch.Copy(len(payload)) // staging the payload into the write buffer
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Address{}, ErrClosed
	}
	if s.stats.Health.Degraded() {
		return Address{}, ErrDegraded
	}
	// Keep records inside one segment: pad to the boundary if needed.
	off := s.bufStart + int64(len(s.buf))
	segEnd := (s.segIndex(off) + 1) * s.cfg.SegmentBytes
	if off+recLen > segEnd {
		sp.Miss() // segment padding may flush the buffer to the device
		if err := s.padToLocked(segEnd, ch); err != nil {
			return Address{}, err
		}
		off = s.bufStart + int64(len(s.buf))
	}
	// Flush if the buffer cannot hold the record.
	if int64(len(s.buf))+recLen > int64(s.cfg.BufferBytes) {
		sp.Miss() // this append pays for the synchronous buffer flush
		if err := s.flushLocked(ch); err != nil {
			return Address{}, err
		}
		off = s.bufStart
	}
	var hdr [headerSize]byte
	encodeHeader(hdr[:], kind, pid, payload)
	s.buf = append(s.buf, hdr[:]...)
	s.buf = append(s.buf, payload...)
	s.accountAppend(off, recLen)
	s.stats.BytesAppended.Add(recLen)
	return Address{Off: off + 1, Len: int32(len(payload))}, nil
}

// padToLocked appends a pad record so the next record starts at target.
// Caller holds s.mu.
func (s *Store) padToLocked(target int64, ch *sim.Charger) error {
	off := s.bufStart + int64(len(s.buf))
	gap := target - off
	if gap == 0 {
		return nil
	}
	if gap < headerSize {
		// Too small to frame a pad record: raw zero fill. The recovery
		// scan resynchronizes at segment boundaries, so unframed zeros at
		// a segment tail are skipped safely.
		s.buf = append(s.buf, make([]byte, gap)...)
	} else {
		payload := make([]byte, gap-headerSize)
		var hdr [headerSize]byte
		encodeHeader(hdr[:], KindPad, 0, payload)
		s.buf = append(s.buf, hdr[:]...)
		s.buf = append(s.buf, payload...)
	}
	if int64(len(s.buf)) >= int64(s.cfg.BufferBytes) {
		return s.flushLocked(ch)
	}
	return nil
}

// Flush writes the buffered records to the device in a single large write.
// The charger's context (if any) bounds the flush: a cancelled request
// aborts the device write and the retry backoff, leaving the buffer intact
// for the next flush attempt.
func (s *Store) Flush(ch *sim.Charger) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked(ch)
}

func (s *Store) flushLocked(ch *sim.Charger) (err error) {
	if len(s.buf) == 0 {
		return nil
	}
	sp := s.cfg.Obs.Start(obs.OpFlush)
	sp.Miss() // a flush is by definition a device write
	defer func() { sp.End(err) }()
	if s.stats.Health.Degraded() {
		return ErrDegraded
	}
	// A retried flush rewrites the whole buffer at the same offset, so a
	// torn first attempt is simply overwritten. The flush cost stays
	// charged to the device (nil-charger policy); only the caller's
	// cancellation is carried down via a detached charger. An aborted
	// flush is not a store failure: the buffer survives for the next try.
	dch := sim.DetachedCharger(ch.Context())
	err = fault.DefaultRetry().DoCtx(ch.Context(), &s.stats.Retry, func() error {
		return s.cfg.Device.WriteAt(s.bufStart, s.buf, dch)
	})
	if err != nil {
		if fault.Classify(err) == fault.ClassPersistent {
			s.stats.Health.Degrade(fmt.Sprintf("flush at %d: %v", s.bufStart, err))
		}
		return err
	}
	s.stats.Flushes.Inc()
	s.bufStart += int64(len(s.buf))
	s.buf = s.buf[:0]
	return nil
}

// Read fetches the record at addr. Reads of still-buffered records are
// served from memory without I/O (and without escalating the operation to
// SS class).
func (s *Store) Read(addr Address, ch *sim.Charger) (_ Record, err error) {
	sp := s.cfg.Obs.Start(obs.OpGet)
	defer func() { sp.End(err) }()
	if addr.IsNil() || addr.Len < 0 {
		return Record{}, ErrBadAddress
	}
	if err := ch.Err(); err != nil {
		return Record{}, err // cancelled: skip the I/O entirely
	}
	off := addr.offset()
	total := headerSize + int(addr.Len)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Record{}, ErrClosed
	}
	if off >= s.bufStart {
		// Serve from the write buffer.
		rel := off - s.bufStart
		if rel+int64(total) > int64(len(s.buf)) {
			s.mu.Unlock()
			return Record{}, ErrBadAddress
		}
		raw := make([]byte, total)
		copy(raw, s.buf[rel:rel+int64(total)])
		s.mu.Unlock()
		s.stats.BufferHits.Inc()
		ch.Copy(total)
		return decode(raw, addr.Len)
	}
	s.mu.Unlock()

	sp.Miss() // past the buffered tail: served by the device
	raw, err := s.cfg.Device.ReadAt(off, total, ch)
	if err != nil {
		return Record{}, err
	}
	ch.Add(ch.Profile().PageDeserialize)
	rec, err := decode(raw, addr.Len)
	if err != nil {
		// The device transfer succeeded but the payload is garbage: the
		// read must count as a failed physical attempt, not a logical one,
		// or a retry/repair re-read would inflate the logical count.
		s.cfg.Device.Stats().ReclassifyRead()
		return Record{}, err
	}
	return rec, nil
}

func decode(raw []byte, wantLen int32) (Record, error) {
	if len(raw) < headerSize || raw[0] != magic {
		return Record{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	kind := Kind(raw[1])
	pid := binary.BigEndian.Uint64(raw[2:])
	plen := binary.BigEndian.Uint32(raw[10:])
	sum := binary.BigEndian.Uint32(raw[14:])
	if int32(plen) != wantLen || headerSize+int(plen) > len(raw) {
		return Record{}, fmt.Errorf("%w: length mismatch", ErrCorrupt)
	}
	payload := raw[headerSize : headerSize+int(plen)]
	want := crc32.ChecksumIEEE(raw[:14])
	want = crc32.Update(want, crc32.IEEETable, payload)
	if want != sum {
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return Record{PID: pid, Kind: kind, Payload: payload}, nil
}

// Invalidate marks the record at addr as superseded, reducing its
// segment's live-byte count so GC can reclaim it.
func (s *Store) Invalidate(addr Address) {
	if addr.IsNil() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if info := s.segs[s.segIndex(addr.offset())]; info != nil {
		info.liveBytes -= headerSize + int64(addr.Len)
		if info.liveBytes < 0 {
			info.liveBytes = 0
		}
	}
}

// Utilization returns live bytes / total bytes across sealed segments
// (1.0 when the log is empty).
func (s *Store) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var live, total int64
	activeSeg := s.segIndex(s.bufStart + int64(len(s.buf)))
	for si, info := range s.segs {
		if si == activeSeg {
			continue
		}
		live += info.liveBytes
		total += info.totalBytes
	}
	if total == 0 {
		return 1
	}
	return float64(live) / float64(total)
}

// scanDevice iterates all framed records on the device (not the buffer),
// in log order. Because records never span segment boundaries, the scan
// resynchronizes at the next segment after an invalid frame — a hole left
// by garbage collection (trimmed segment) or a torn write — and stops
// only at the device's high-water mark. fn gets the record, its address,
// and its framed length.
func (s *Store) scanDevice(fn func(rec Record, addr Address, recLen int64) bool) error {
	off := int64(0)
	hw := s.cfg.Device.HighWater()
	nextSegment := func(o int64) int64 {
		return (s.segIndex(o) + 1) * s.cfg.SegmentBytes
	}
	for off+headerSize <= hw {
		var hdr []byte
		err := fault.DefaultRetry().Do(&s.stats.Retry, func() error {
			var rerr error
			hdr, rerr = s.cfg.Device.ReadAt(off, headerSize, nil)
			return rerr
		})
		if err != nil {
			return err
		}
		if hdr[0] != magic {
			off = nextSegment(off) // GC hole or tail padding: resync
			continue
		}
		plen := int64(binary.BigEndian.Uint32(hdr[10:]))
		if off+headerSize+plen > hw {
			return nil // torn tail record
		}
		var raw []byte
		err = fault.DefaultRetry().Do(&s.stats.Retry, func() error {
			var rerr error
			raw, rerr = s.cfg.Device.ReadAt(off, headerSize+int(plen), nil)
			return rerr
		})
		if err != nil {
			return err
		}
		rec, err := decode(raw, int32(plen))
		if err != nil {
			off = nextSegment(off) // torn write: resync at the next segment
			continue
		}
		if !fn(rec, Address{Off: off + 1, Len: int32(plen)}, headerSize+plen) {
			return nil
		}
		off += headerSize + plen
	}
	return nil
}

// Scan iterates every non-pad record on durable storage in log order,
// for recovery. The payload passed to fn is only valid during the call.
func (s *Store) Scan(fn func(rec Record, addr Address) bool) error {
	return s.scanDevice(func(rec Record, addr Address, _ int64) bool {
		if rec.Kind == KindPad {
			return true
		}
		return fn(rec, addr)
	})
}

// CollectSegment runs one garbage-collection pass over the coldest sealed
// segment: every framed record is offered to relocate, which returns true
// if the record is still live (the owner is responsible for re-appending
// it and updating its mapping before returning). The segment is then
// trimmed. It returns the bytes reclaimed, or (0, nil) when no sealed
// segment exists.
//
// The paper notes GC can be delayed under load to save cycles and improve
// reclaimed-bytes-per-segment; the caller owns that policy and simply
// calls CollectSegment when it chooses to collect.
func (s *Store) CollectSegment(relocate func(rec Record, old Address) bool, ch *sim.Charger) (int64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	// Victim: sealed segment with the lowest utilization. Iterate in
	// sorted order for determinism.
	activeSeg := s.segIndex(s.bufStart + int64(len(s.buf)))
	flushedEnd := s.bufStart
	var victims []int64
	for si := range s.segs {
		if si != activeSeg && (si+1)*s.cfg.SegmentBytes <= flushedEnd {
			victims = append(victims, si)
		}
	}
	if len(victims) == 0 {
		s.mu.Unlock()
		return 0, nil
	}
	sort.Slice(victims, func(i, j int) bool {
		a, b := s.segs[victims[i]], s.segs[victims[j]]
		ra := float64(a.liveBytes) / float64(a.totalBytes+1)
		rb := float64(b.liveBytes) / float64(b.totalBytes+1)
		if ra != rb {
			return ra < rb
		}
		return victims[i] < victims[j]
	})
	victim := victims[0]
	total := s.segs[victim].totalBytes
	s.mu.Unlock()

	// Read the whole segment in one large I/O and offer records.
	segOff := victim * s.cfg.SegmentBytes
	segLen := s.cfg.SegmentBytes
	if hw := s.cfg.Device.HighWater(); segOff+segLen > hw {
		segLen = hw - segOff
	}
	var raw []byte
	err := fault.DefaultRetry().Do(&s.stats.Retry, func() error {
		var rerr error
		raw, rerr = s.cfg.Device.ReadAt(segOff, int(segLen), nil)
		return rerr
	})
	if err != nil {
		return 0, err
	}
	relocated := int64(0)
	off := int64(0)
	for off+headerSize <= segLen {
		if raw[off] != magic {
			break
		}
		plen := int64(binary.BigEndian.Uint32(raw[off+10:]))
		if off+headerSize+plen > segLen {
			break
		}
		rec, err := decode(raw[off:off+headerSize+plen], int32(plen))
		if err != nil {
			break
		}
		if rec.Kind != KindPad {
			// Copy payload: raw is reused after trim.
			p := make([]byte, len(rec.Payload))
			copy(p, rec.Payload)
			rec.Payload = p
			if relocate(rec, Address{Off: segOff + off + 1, Len: int32(plen)}) {
				relocated += headerSize + plen
			}
		}
		off += headerSize + plen
	}
	ch.Copy(int(relocated))

	if err := s.cfg.Device.Trim(segOff, s.cfg.SegmentBytes); err != nil {
		return 0, fmt.Errorf("logstore: trim segment %d: %w", victim, err)
	}
	s.cfg.Device.Stats().GCReclaimed.Add(total - relocated)
	s.cfg.Device.Stats().GCWrites.Add(relocated)

	s.mu.Lock()
	delete(s.segs, victim)
	s.mu.Unlock()
	s.stats.GCRuns.Inc()
	s.stats.GCReclaimed.Add(total - relocated)
	s.stats.GCRelocated.Add(relocated)
	return total - relocated, nil
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.flushLocked(nil); err != nil {
		return err
	}
	s.closed = true
	return nil
}
