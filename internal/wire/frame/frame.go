// Package frame is the byte-level framing shared by every link in the
// system that crosses a lossy boundary: the replication ship link
// (internal/repl) and the client-facing wire protocol (internal/wire).
//
// A frame is a length-prefixed, CRC-protected byte payload:
//
//	offset  size  field
//	0       4     payload length N (big-endian uint32)
//	4       4     CRC-32 (IEEE) over the payload
//	8       N     payload
//
// The framing is self-delimiting: a receiver that sees a valid header can
// always find the next frame boundary, and a *whole* frame lost in
// transit leaves the stream decodable — which is exactly the loss model
// fault.NetInjector applies (messages vanish, byte streams do not tear).
// Anything else — a truncated buffer, a flipped bit, a length field
// larger than the negotiated bound — yields a typed ErrCorrupt-class
// error, never a panic and never an unbounded read.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"costperf/internal/fault"
)

// HeaderLen is the fixed frame header size (length + CRC).
const HeaderLen = 8

// MaxBytes is the default payload size bound. A header announcing more
// than the bound is treated as corruption: it is far more likely to be a
// damaged or hostile length field than a legitimate message, and honoring
// it would let one bad frame make the receiver allocate without limit.
const MaxBytes = 1 << 20

// Typed decode errors. All of them wrap fault.ErrCorrupt, so callers that
// already classify storage corruption (fault.Classify) handle wire
// corruption with the same switch.
var (
	// ErrCRC reports a payload that does not match its header checksum.
	ErrCRC = fmt.Errorf("frame: payload failed CRC (%w)", fault.ErrCorrupt)
	// ErrTooBig reports a header announcing a payload over the bound.
	ErrTooBig = fmt.Errorf("frame: announced payload exceeds bound (%w)", fault.ErrCorrupt)
	// ErrTruncated reports a buffer or stream that ends mid-frame.
	ErrTruncated = fmt.Errorf("frame: truncated (%w)", fault.ErrCorrupt)
)

// crcOf is the frame checksum (CRC-32 IEEE, matching the replication
// link's historical choice).
func crcOf(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// Append appends one encoded frame carrying payload to dst and returns
// the extended slice.
func Append(dst, payload []byte) []byte {
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crcOf(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Decode decodes the first frame in b, returning its payload (aliasing b,
// not copied) and the remaining bytes after the frame. max bounds the
// accepted payload size; max <= 0 means MaxBytes.
func Decode(b []byte, max int) (payload, rest []byte, err error) {
	if max <= 0 {
		max = MaxBytes
	}
	if len(b) < HeaderLen {
		return nil, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > uint32(max) {
		return nil, nil, ErrTooBig
	}
	want := binary.BigEndian.Uint32(b[4:8])
	body := b[HeaderLen:]
	if uint32(len(body)) < n {
		return nil, nil, ErrTruncated
	}
	payload = body[:n]
	if crcOf(payload) != want {
		return nil, nil, ErrCRC
	}
	return payload, body[n:], nil
}

// Write writes one frame carrying payload to w as a single Write call.
// Writers of this framing hand a transport one or more whole frames per
// Write, never part of one, so transports that apply per-write fault
// outcomes (fault.Conn) drop, duplicate or hold whole frames.
func Write(w io.Writer, payload []byte) error {
	buf := Append(make([]byte, 0, HeaderLen+len(payload)), payload)
	_, err := w.Write(buf)
	return err
}

// Read reads exactly one frame from r and returns its payload (freshly
// allocated). max bounds the accepted payload size; max <= 0 means
// MaxBytes.
//
// A clean EOF on the first header byte is returned as io.EOF (the peer
// closed between frames); an EOF anywhere else is ErrTruncated, since the
// stream died mid-frame.
func Read(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = MaxBytes
	}
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // io.EOF here is a clean close
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, truncated(err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > uint32(max) {
		return nil, ErrTooBig
	}
	want := binary.BigEndian.Uint32(hdr[4:8])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, truncated(err)
	}
	if crcOf(payload) != want {
		return nil, ErrCRC
	}
	return payload, nil
}

// truncated folds stream-ending errors into ErrTruncated but passes
// through transport errors (deadlines, closed connections) untouched, so
// callers can tell "the stream tore mid-frame" from "the socket failed".
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}
