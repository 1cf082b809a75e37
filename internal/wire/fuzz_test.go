package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"costperf/internal/fault"
	"costperf/internal/overload"
)

// seedRequests is one encoded request per op, the fuzz corpus's start.
func seedRequests() [][]byte {
	var out [][]byte
	for _, r := range []request{
		{Op: opGet, ClientID: 1, Seq: 1, Deadline: time.Millisecond, Key: []byte("k")},
		{Op: opPut, Class: overload.ClassHigh, ClientID: 2, Seq: 2, Key: []byte("key"), Val: []byte("value")},
		{Op: opDelete, Class: overload.ClassLow, ClientID: 3, Seq: 3, Key: []byte("gone")},
		{Op: opScan, ClientID: 4, Seq: 4, Deadline: time.Second, Key: []byte("a"), Limit: 10},
		{Op: opScan, Class: overload.ClassNormal, Seq: 5, Limit: -1},
		{Op: opPing, Seq: 6},
	} {
		out = append(out, encodeRequest(nil, r))
	}
	return out
}

func sameRequest(a, b request) bool {
	return a.Op == b.Op && a.Class == b.Class && a.ClientID == b.ClientID &&
		a.Seq == b.Seq && a.Deadline == b.Deadline && a.Limit == b.Limit &&
		bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Val, b.Val)
}

// FuzzDecodeRequest: no input panics, every refusal is corrupt-class, and
// a decoded request survives a re-encode unchanged. The bytes may differ:
// decoding maps a probe-class claim to high, and a scan that names no
// class or names normal to the scan class.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range seedRequests() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRequest(b)
		if err != nil {
			if !errors.Is(err, fault.ErrCorrupt) {
				t.Fatalf("decode error %v is not corrupt-class", err)
			}
			return
		}
		again, err := decodeRequest(encodeRequest(nil, r))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", r, err)
		}
		if !sameRequest(r, again) {
			t.Fatalf("round trip changed the request: %+v -> %+v", r, again)
		}
	})
}

// FuzzDecodeResponse: no input panics, every refusal is corrupt-class, a
// decoded response re-encodes byte-identical, and so does a body that
// decodes as a scan.
func FuzzDecodeResponse(f *testing.F) {
	scan := encodeScanBody([]scanPair{{K: []byte("a"), V: []byte("1")}, {K: []byte("b")}}, true)
	for _, b := range [][]byte{
		encodeResponse(nil, 1, StatusOK, []byte{1, 'v'}),
		encodeResponse(nil, 2, StatusOK, scan),
		encodeResponse(nil, 3, StatusOK, encodeScanBody(nil, false)),
		encodeResponse(nil, 4, StatusOverload, encodeOverloadBody(time.Millisecond)),
		encodeResponse(nil, 5, StatusInternal, []byte("boom")),
	} {
		f.Add(b)
	}
	for _, b := range seedRequests() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		seq, st, body, err := decodeResponse(b)
		if err != nil {
			if !errors.Is(err, fault.ErrCorrupt) {
				t.Fatalf("decode error %v is not corrupt-class", err)
			}
			return
		}
		if again := encodeResponse(nil, seq, st, body); !bytes.Equal(again, b) {
			t.Fatalf("response re-encodes as %x, want %x", again, b)
		}
		pairs, truncated, err := decodeScanBody(body)
		if err != nil {
			if !errors.Is(err, fault.ErrCorrupt) {
				t.Fatalf("scan body error %v is not corrupt-class", err)
			}
			return
		}
		if again := encodeScanBody(pairs, truncated); !bytes.Equal(again, body) {
			t.Fatalf("scan body re-encodes as %x, want %x", again, body)
		}
	})
}
