package bwtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"costperf/internal/fault"
	"costperf/internal/llama/logstore"
	"costperf/internal/ssd"
)

// realPageImages checkpoints a small tree with splits and flushed delta
// batches and returns every page image in its log, keyed by subtype.
func realPageImages(tb testing.TB) map[byte][][]byte {
	tb.Helper()
	st, err := logstore.Open(logstore.Config{Device: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(Config{Store: st, MaxPageBytes: 512})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte{byte(i)}, i%7)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tr.FlushAll(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i += 3 {
		if err := tr.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			tb.Fatal(err)
		}
		if err := tr.Insert([]byte(fmt.Sprintf("k%04d", i+1)), []byte("v")); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tr.FlushAll(); err != nil {
		tb.Fatal(err)
	}
	out := map[byte][][]byte{}
	if err := st.Scan(func(rec logstore.Record, _ logstore.Address) bool {
		if len(rec.Payload) > 0 {
			out[rec.Payload[0]] = append(out[rec.Payload[0]], append([]byte(nil), rec.Payload...))
		}
		return true
	}); err != nil {
		tb.Fatal(err)
	}
	for _, kind := range []byte{payloadLeafBase, payloadIndexBase, payloadDeltas} {
		if len(out[kind]) == 0 {
			tb.Fatalf("no subtype %d page in the log", kind)
		}
	}
	return out
}

// uv appends the uvarint encoding of v.
func uv(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// hostileImages are page images whose counts claim far more entries than
// the payload holds, of each subtype.
func hostileImages() map[string][]byte {
	return map[string][]byte{
		"leaf-count-max":   uv([]byte{payloadLeafBase, 0, 0}, math.MaxUint64),
		"leaf-count-2^32":  uv([]byte{payloadLeafBase, 0, 0}, 1<<32),
		"index-count-max":  uv([]byte{payloadIndexBase, 1, 0, 0}, math.MaxUint64),
		"index-count-2^32": uv([]byte{payloadIndexBase, 1, 0, 0}, 1<<32),
		"delta-count-max":  uv([]byte{payloadDeltas, 0, 0}, math.MaxUint64),
		"delta-count-2^32": uv([]byte{payloadDeltas, 0, 0}, 1<<32),
		"empty":            {},
	}
}

// seedPages adds real images of one subtype, their truncations, and the
// hostile images to a fuzz corpus.
func seedPages(f *testing.F, kind byte) {
	for _, p := range realPageImages(f)[kind] {
		f.Add(p)
		for _, cut := range []int{1, 2, len(p) / 2, len(p) - 1} {
			if cut > 0 && cut < len(p) {
				f.Add(p[:cut])
			}
		}
	}
	for _, p := range hostileImages() {
		f.Add(p)
	}
}

// corruptOrSame is the decoders' contract: a refusal is corrupt-class, and
// an accepted image re-encodes byte-identical.
func corruptOrSame(t *testing.T, in []byte, err error, encode func() []byte) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, fault.ErrCorrupt) {
			t.Fatalf("decode error %v is not corrupt-class", err)
		}
		return
	}
	if again := encode(); !bytes.Equal(again, in) {
		t.Fatalf("re-encodes as %x, decoded from %x", again, in)
	}
}

func FuzzDecodeLeafBase(f *testing.F) {
	seedPages(f, payloadLeafBase)
	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := decodeLeafBase(p)
		corruptOrSame(t, p, err, func() []byte { return encodeLeafBase(b) })
	})
}

func FuzzDecodeIndexBase(f *testing.F) {
	seedPages(f, payloadIndexBase)
	f.Fuzz(func(t *testing.T, p []byte) {
		b, level, err := decodeIndexBase(p)
		corruptOrSame(t, p, err, func() []byte { return encodeIndexBase(b, level) })
	})
}

func FuzzDecodeDeltaBatch(f *testing.F) {
	seedPages(f, payloadDeltas)
	f.Fuzz(func(t *testing.T, p []byte) {
		ds, prev, err := decodeDeltaBatch(p)
		corruptOrSame(t, p, err, func() []byte { return encodeDeltaBatch(ds, prev) })
	})
}

// TestDecodersRefuseHostileCounts: a count larger than its payload is a
// typed corrupt error that fault.Classify sees as corrupt, never a panic
// or an allocation sized from the count.
func TestDecodersRefuseHostileCounts(t *testing.T) {
	for name, p := range hostileImages() {
		t.Run(name, func(t *testing.T) {
			var errs []error
			_, err := decodeLeafBase(p)
			errs = append(errs, err)
			_, _, err = decodeIndexBase(p)
			errs = append(errs, err)
			_, _, err = decodeDeltaBatch(p)
			errs = append(errs, err)
			for i, err := range errs {
				if fault.Classify(err) != fault.ClassCorrupt {
					t.Fatalf("decoder %d: %v classifies as %v, want corrupt", i, err, fault.Classify(err))
				}
			}
		})
	}
}
