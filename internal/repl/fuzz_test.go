package repl

import (
	"bytes"
	"errors"
	"testing"

	"costperf/internal/fault"
	"costperf/internal/wire/frame"
)

// seedLinkMessages are the ship-link corpus seeds: frames with and
// without a payload, acks, an ack whose ok byte is 2, and truncated
// envelopes.
func seedLinkMessages() [][]byte {
	full := Frame{Epoch: 3, From: 100, To: 164, Durable: 164, Payload: bytes.Repeat([]byte{0xab}, 64)}
	full.CRC = frameCRC(full.Payload)
	frames := [][]byte{
		EncodeFrame(full),
		EncodeFrame(Frame{Epoch: 7, From: probeFrom}),
		EncodeAck(Ack{Epoch: 3, Applied: 164, OK: true}),
		EncodeAck(Ack{Epoch: 4, Applied: 100, Reason: "nak: resync"}),
	}
	ok2 := make([]byte, ackHeader)
	ok2[16] = 2
	seeds := append([][]byte{frame.Append(nil, ok2)}, frames...)
	for _, b := range frames {
		seeds = append(seeds, b[:frame.HeaderLen-1], b[:len(b)-1])
	}
	return seeds
}

// FuzzDecodeShipFrame: no input panics, every refusal is corrupt-class,
// and a decoded frame re-encodes byte-identical.
func FuzzDecodeShipFrame(f *testing.F) {
	for _, b := range seedLinkMessages() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeShipFrame(b)
		if err != nil {
			if !errors.Is(err, fault.ErrCorrupt) {
				t.Fatalf("decode error %v is not corrupt-class", err)
			}
			return
		}
		if again := EncodeFrame(fr); !bytes.Equal(again, b) {
			t.Fatalf("frame %+v re-encodes as %x, decoded from %x", fr, again, b)
		}
	})
}

// FuzzDecodeAck: no input panics, every refusal is corrupt-class, and a
// decoded ack re-encodes byte-identical.
func FuzzDecodeAck(f *testing.F) {
	for _, b := range seedLinkMessages() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeAck(b)
		if err != nil {
			if !errors.Is(err, fault.ErrCorrupt) {
				t.Fatalf("decode error %v is not corrupt-class", err)
			}
			return
		}
		if again := EncodeAck(a); !bytes.Equal(again, b) {
			t.Fatalf("ack %+v re-encodes as %x, decoded from %x", a, again, b)
		}
	})
}
