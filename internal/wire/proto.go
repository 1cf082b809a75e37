// Package wire serves the store over a wire: a length-prefixed,
// CRC-framed binary protocol (internal/wire/frame) with a pipelining
// server front-end over the engine front-end and a retry-storm-proof
// client.
//
// The paper's cost/performance argument assumes a data caching system
// serving real traffic; this package supplies the connection boundary
// that "heavy traffic from millions of users" implies, with the failure
// surface that boundary creates — slow clients, half-closed sockets,
// retry storms, partitions — handled explicitly:
//
//   - Every request carries an idempotency identity (client ID +
//     sequence number). The server holds a dedup window of acked writes,
//     so a retry of an acked Put or Delete is answered from the window
//     without re-applying: retried writes are exactly-once.
//   - Every engine rejection crosses the wire as a typed status code
//     (overload, read-only, circuit-open, too-stale, quarantined,
//     corrupt, deadline), never a torn connection or a silent drop.
//   - Per-connection pipelining is bounded by an in-flight window; a
//     full window stops the read loop, which is exactly TCP backpressure
//     composing with the engine's admission queue behind it.
//   - A client that stops draining responses is evicted when the
//     server's write stalls past a bound; a server that stops answering
//     is abandoned by the client after jittered exponential backoff.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"costperf/internal/engine"
	"costperf/internal/fault"
	"costperf/internal/overload"
	"costperf/internal/repl"
	"costperf/internal/shard"
	"costperf/internal/ssd"
	"costperf/internal/wire/frame"
)

// readBufBytes sizes the per-connection read buffer on both ends: large
// enough that one read syscall takes in a run of pipelined frames, small
// enough that an idle connection costs little. Larger frames bypass it.
const readBufBytes = 4 << 10

// beginFrame reserves a frame header (internal/wire/frame's layout) at
// the end of dst for a payload the caller appends next; sealFrame fills
// the header in. Encoding straight into a send buffer this way skips the
// payload's own allocation and the copy frame.Append would make of it.
func beginFrame(dst []byte) ([]byte, int) {
	var hdr [frame.HeaderLen]byte
	return append(dst, hdr[:]...), len(dst)
}

// sealFrame writes the length and CRC of the payload that follows the
// header beginFrame reserved at b[start:].
func sealFrame(b []byte, start int) {
	payload := b[start+frame.HeaderLen:]
	binary.BigEndian.PutUint32(b[start:start+4], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:start+8], crc32.ChecksumIEEE(payload))
}

// appendRequestFrame appends r to dst as one whole frame.
func appendRequestFrame(dst []byte, r request) []byte {
	b, start := beginFrame(dst)
	b = encodeRequest(b, r)
	sealFrame(b, start)
	return b
}

// Operation codes. The low 5 bits of the op byte carry the code; the
// top 3 bits carry the request's priority class (see classToWire), so
// adding priority to the protocol cost zero header bytes and a legacy
// op byte (top bits zero) still decodes as a normal-class request.
const (
	opGet byte = iota + 1
	opPut
	opDelete
	opScan
	opPing

	opMask = 0x1f // low 5 bits: op code; high 3: priority class
)

// classToWire encodes a priority class into the op byte's top 3 bits:
// 0 means "unspecified" (decodes as ClassNormal, and is what normal
// requests encode so legacy byte streams and fixtures stay identical),
// otherwise the wire value is class+1. ClassProbe is deliberately not
// encodable: probes originate inside the process that owns the breaker,
// never from a remote client.
func classToWire(c overload.Class) byte {
	if c == overload.ClassNormal || c > overload.ClassHigh {
		return 0
	}
	return byte(c) + 1
}

// classFromWire decodes the op byte's top 3 bits. ok is false for wire
// values past the encodable range (6, 7): a damaged or hostile byte,
// not a future class. A remote attempt to claim probe class (5 — only
// producible by a hand-rolled byte, never by classToWire) is clamped to
// ClassHigh rather than rejected: the request is well-formed, it just
// may not starve the breaker's own probes.
func classFromWire(v byte) (overload.Class, bool) {
	switch {
	case v == 0:
		return overload.ClassNormal, true
	case v <= byte(overload.ClassHigh)+1:
		return overload.Class(v - 1), true
	case v == byte(overload.ClassProbe)+1:
		return overload.ClassHigh, true
	default:
		return overload.ClassNormal, false
	}
}

// Status is the wire-level outcome of one request. Every engine-side
// typed error maps onto exactly one status, and the client maps each
// status back onto the original typed sentinel, so errors.Is works the
// same on both sides of the connection.
type Status byte

const (
	// StatusOK: the operation was applied/answered.
	StatusOK Status = iota
	// StatusOverload: shed by the engine's admission queue.
	StatusOverload
	// StatusReadOnly: the store's health has latched degraded.
	StatusReadOnly
	// StatusCircuitOpen: the engine's breaker is failing writes fast.
	StatusCircuitOpen
	// StatusDeadline: the request's deadline expired server-side.
	StatusDeadline
	// StatusCanceled: the request's context was cancelled server-side.
	StatusCanceled
	// StatusTooStale: a standby read exceeded its staleness bound.
	StatusTooStale
	// StatusQuarantined: the touched page is quarantined on both mirror legs.
	StatusQuarantined
	// StatusCorrupt: the store surfaced unrecoverable corruption.
	StatusCorrupt
	// StatusDraining: the server is draining and refuses new work.
	StatusDraining
	// StatusBadRequest: the request payload did not decode.
	StatusBadRequest
	// StatusInternal: any other backend error (message attached).
	StatusInternal
	// StatusMoved: the key's shard changed owners mid-request (a live
	// migration cut over and the cutover wait expired). When the backend
	// exposes its shard map (ShardMapper), the response body carries
	// epoch(8) shards(4) so the client learns the new map without an
	// extra round trip. Appended after StatusInternal to keep the wire
	// values of the original taxonomy stable.
	StatusMoved
)

// String names the status for logs.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverload:
		return "overload"
	case StatusReadOnly:
		return "readonly"
	case StatusCircuitOpen:
		return "circuit-open"
	case StatusDeadline:
		return "deadline"
	case StatusCanceled:
		return "canceled"
	case StatusTooStale:
		return "too-stale"
	case StatusQuarantined:
		return "quarantined"
	case StatusCorrupt:
		return "corrupt"
	case StatusDraining:
		return "draining"
	case StatusBadRequest:
		return "bad-request"
	case StatusInternal:
		return "internal"
	case StatusMoved:
		return "moved"
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// Typed wire-side errors (the engine/storage sentinels cross unchanged).
var (
	// ErrBadMessage reports a payload that did not decode (corrupt-class).
	ErrBadMessage = fmt.Errorf("wire: malformed message (%w)", fault.ErrCorrupt)
	// ErrDraining is surfaced for requests refused by a draining server.
	ErrDraining = errors.New("wire: server draining")
	// ErrUnavailable wraps the last transport error once a client's retry
	// budget is exhausted.
	ErrUnavailable = errors.New("wire: server unavailable")
	// ErrClientClosed is returned by operations on a closed client.
	ErrClientClosed = errors.New("wire: client closed")
	// ErrRemote carries an uncategorized server-side failure.
	ErrRemote = errors.New("wire: remote error")
)

// statusOf maps a backend error onto the status taxonomy. Order matters:
// ErrQuarantined wraps ErrCorrupt, and context errors may arrive wrapped
// by the engine's admission path.
func statusOf(err error) (Status, string) {
	switch {
	case err == nil:
		return StatusOK, ""
	case errors.Is(err, engine.ErrOverload):
		return StatusOverload, ""
	case errors.Is(err, engine.ErrReadOnly):
		return StatusReadOnly, ""
	case errors.Is(err, engine.ErrCircuitOpen):
		return StatusCircuitOpen, ""
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline, ""
	case errors.Is(err, context.Canceled):
		return StatusCanceled, ""
	case errors.Is(err, repl.ErrTooStale):
		return StatusTooStale, ""
	case errors.Is(err, ssd.ErrQuarantined):
		return StatusQuarantined, ""
	case errors.Is(err, fault.ErrCorrupt):
		return StatusCorrupt, ""
	case errors.Is(err, shard.ErrMoved):
		return StatusMoved, ""
	case errors.Is(err, engine.ErrClosed):
		return StatusDraining, ""
	default:
		return StatusInternal, err.Error()
	}
}

// errFromStatus is the client-side inverse of statusOf: each status maps
// back to the typed sentinel callers already know, wrapped with wire
// context.
func errFromStatus(s Status, msg string) error {
	switch s {
	case StatusOK:
		return nil
	case StatusOverload:
		return fmt.Errorf("wire: %w", engine.ErrOverload)
	case StatusReadOnly:
		return fmt.Errorf("wire: %w", engine.ErrReadOnly)
	case StatusCircuitOpen:
		return fmt.Errorf("wire: %w", engine.ErrCircuitOpen)
	case StatusDeadline:
		return fmt.Errorf("wire: server-side %w", context.DeadlineExceeded)
	case StatusCanceled:
		return fmt.Errorf("wire: server-side %w", context.Canceled)
	case StatusTooStale:
		return fmt.Errorf("wire: %w", repl.ErrTooStale)
	case StatusQuarantined:
		return fmt.Errorf("wire: %w", ssd.ErrQuarantined)
	case StatusCorrupt:
		return fmt.Errorf("wire: store corruption (%w)", fault.ErrCorrupt)
	case StatusDraining:
		return ErrDraining
	case StatusBadRequest:
		return ErrBadMessage
	case StatusMoved:
		return fmt.Errorf("wire: %w", shard.ErrMoved)
	default:
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
}

// request is one decoded client request.
//
// Encoded request payload layout (inside one frame envelope):
//
//	op(1) clientID(8) seq(8) deadlineMicros(4) keyLen(4) key
//	  Put:  valLen(4) val
//	  Scan: limit(4)
type request struct {
	Op       byte
	Class    overload.Class // priority class, carried in the op byte's top bits
	ClientID uint64
	Seq      uint64
	Deadline time.Duration // 0 = none
	Key      []byte
	Val      []byte
	Limit    int
}

const reqHeader = 1 + 8 + 8 + 4 + 4

// maxDeadlineMicros caps the deadline field; ~71 minutes is far past any
// sane request deadline.
const maxDeadlineMicros = 1<<32 - 1

func encodeRequest(dst []byte, r request) []byte {
	micros := r.Deadline.Microseconds()
	if micros < 0 {
		micros = 0
	}
	if micros > maxDeadlineMicros {
		micros = maxDeadlineMicros
	}
	var hdr [reqHeader]byte
	hdr[0] = r.Op | classToWire(r.Class)<<5
	binary.BigEndian.PutUint64(hdr[1:9], r.ClientID)
	binary.BigEndian.PutUint64(hdr[9:17], r.Seq)
	binary.BigEndian.PutUint32(hdr[17:21], uint32(micros))
	binary.BigEndian.PutUint32(hdr[21:25], uint32(len(r.Key)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Key...)
	switch r.Op {
	case opPut:
		var vl [4]byte
		binary.BigEndian.PutUint32(vl[:], uint32(len(r.Val)))
		dst = append(dst, vl[:]...)
		dst = append(dst, r.Val...)
	case opScan:
		var lim [4]byte
		binary.BigEndian.PutUint32(lim[:], uint32(r.Limit))
		dst = append(dst, lim[:]...)
	}
	return dst
}

func decodeRequest(b []byte) (request, error) {
	var r request
	if len(b) < reqHeader {
		return r, ErrBadMessage
	}
	r.Op = b[0] & opMask
	if r.Op < opGet || r.Op > opPing {
		return r, ErrBadMessage
	}
	var ok bool
	if r.Class, ok = classFromWire(b[0] >> 5); !ok {
		return r, ErrBadMessage
	}
	if r.Op == opScan && r.Class == overload.ClassNormal {
		// An unspecified class takes the op's natural default: scans are
		// the first rung of the brownout ladder unless the client says
		// otherwise, matching the engine's own untagged-scan behavior.
		// An explicit normal (wire value 3) gets the same: classToWire
		// never sends it, since normal is the untagged default, so a
		// decoded request always re-encodes to itself.
		r.Class = overload.ClassScan
	}
	r.ClientID = binary.BigEndian.Uint64(b[1:9])
	r.Seq = binary.BigEndian.Uint64(b[9:17])
	r.Deadline = time.Duration(binary.BigEndian.Uint32(b[17:21])) * time.Microsecond
	keyLen := int(binary.BigEndian.Uint32(b[21:25]))
	rest := b[reqHeader:]
	if keyLen < 0 || keyLen > len(rest) {
		return r, ErrBadMessage
	}
	r.Key, rest = rest[:keyLen], rest[keyLen:]
	switch r.Op {
	case opPut:
		if len(rest) < 4 {
			return r, ErrBadMessage
		}
		valLen := int(binary.BigEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if valLen < 0 || valLen != len(rest) {
			return r, ErrBadMessage
		}
		r.Val = rest
	case opScan:
		if len(rest) != 4 {
			return r, ErrBadMessage
		}
		r.Limit = int(int32(binary.BigEndian.Uint32(rest)))
	default:
		if len(rest) != 0 {
			return r, ErrBadMessage
		}
	}
	return r, nil
}

// Encoded response payload layout:
//
//	status(1) seq(8) body
//
// body by status/op: OK Get → found(1) val; OK Scan → count(4) then
// count × (kLen(4) k vLen(4) v), then truncated(1); OK Put/Delete/Ping →
// empty; error statuses → UTF-8 message.
const respHeader = 1 + 8

func encodeResponse(dst []byte, seq uint64, s Status, body []byte) []byte {
	var hdr [respHeader]byte
	hdr[0] = byte(s)
	binary.BigEndian.PutUint64(hdr[1:9], seq)
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

func decodeResponse(b []byte) (seq uint64, s Status, body []byte, err error) {
	if len(b) < respHeader {
		return 0, 0, nil, ErrBadMessage
	}
	s = Status(b[0])
	if s > StatusMoved {
		return 0, 0, nil, ErrBadMessage
	}
	seq = binary.BigEndian.Uint64(b[1:9])
	return seq, s, b[respHeader:], nil
}

// An OVERLOAD body is the server's advisory retry-after hint:
// micros(4), big-endian. The server computes it from its limiter's view
// of the backlog (overload.Limiter.RetryAfter), so a shed client backs
// off for as long as the backlog actually needs to drain instead of a
// hardcoded guess — the difference between a thundering-herd retry and
// a paced one. An empty body is legal (backend without an Adviser) and
// means "no hint"; a malformed body is ignored the same way, since a
// hint can never be load-bearing for correctness.
func encodeOverloadBody(d time.Duration) []byte {
	micros := d.Microseconds()
	if micros <= 0 {
		return nil
	}
	if micros > maxDeadlineMicros {
		micros = maxDeadlineMicros
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(micros))
	return b[:]
}

func decodeOverloadBody(b []byte) time.Duration {
	if len(b) != 4 {
		return 0
	}
	return time.Duration(binary.BigEndian.Uint32(b)) * time.Microsecond
}

// A MOVED body is the server's full epoch-numbered shard map
// (shard.EncodeMap): epoch(8) count(4) then count × (start(8) slot(4)).
// Carrying the placement table — not just the epoch and a shard count —
// is what lets a client keep routing knowledge through a resize, where
// the count changes AND the ranges move. An empty body is legal (backend
// without a ShardMapper); anything else must validate as a map, or the
// client learns nothing.
func encodeMovedBody(m *shard.Map) []byte {
	if m == nil {
		return nil
	}
	return shard.EncodeMap(m)
}

func decodeMovedBody(b []byte) (*shard.Map, bool) {
	m, err := shard.DecodeMap(b)
	if err != nil {
		return nil, false
	}
	return m, true
}

// scanPair is one key/value pair crossing the wire in a scan response.
type scanPair struct{ K, V []byte }

func encodeScanBody(pairs []scanPair, truncated bool) []byte {
	n := 5
	for _, p := range pairs {
		n += 8 + len(p.K) + len(p.V)
	}
	body := make([]byte, 0, n)
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(len(pairs)))
	body = append(body, cnt[:]...)
	for _, p := range pairs {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(p.K)))
		body = append(body, l[:]...)
		body = append(body, p.K...)
		binary.BigEndian.PutUint32(l[:], uint32(len(p.V)))
		body = append(body, l[:]...)
		body = append(body, p.V...)
	}
	if truncated {
		body = append(body, 1)
	} else {
		body = append(body, 0)
	}
	return body
}

func decodeScanBody(b []byte) (pairs []scanPair, truncated bool, err error) {
	if len(b) < 5 {
		return nil, false, ErrBadMessage
	}
	count := int(binary.BigEndian.Uint32(b[:4]))
	rest := b[4:]
	// Each pair needs at least its two length fields (8 bytes): a count
	// beyond that is a damaged or hostile field — refuse before allocating.
	if count < 0 || count > len(rest)/8 {
		return nil, false, ErrBadMessage
	}
	pairs = make([]scanPair, 0, count)
	for i := 0; i < count; i++ {
		var p scanPair
		if p.K, rest, err = takeChunk(rest); err != nil {
			return nil, false, err
		}
		if p.V, rest, err = takeChunk(rest); err != nil {
			return nil, false, err
		}
		pairs = append(pairs, p)
	}
	if len(rest) != 1 || rest[0] > 1 {
		return nil, false, ErrBadMessage
	}
	return pairs, rest[0] == 1, nil
}

func takeChunk(b []byte) (chunk, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, ErrBadMessage
	}
	n := int(binary.BigEndian.Uint32(b[:4]))
	b = b[4:]
	if n < 0 || n > len(b) {
		return nil, nil, ErrBadMessage
	}
	return b[:n], b[n:], nil
}
