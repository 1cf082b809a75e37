package logstore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"costperf/internal/ssd"
)

// frame encodes one whole record frame.
func frame(kind Kind, pid uint64, payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	encodeHeader(out, kind, pid, payload)
	copy(out[headerSize:], payload)
	return out
}

// TestWalkCrossesSegmentTail fills a segment to within gap bytes of its end
// and appends one more record, which lands in the next segment. A gap too
// short for a header is unframed zero fill, a longer one a pad frame; the
// walker steps over either, a bound at the segment boundary stops it there,
// and a reopened store resumes at the walker's end.
func TestWalkCrossesSegmentTail(t *testing.T) {
	const seg = 4096
	for _, gap := range []int{5, headerSize - 1, headerSize, 100} {
		dev := ssd.New(ssd.SamsungSSD)
		cfg := Config{Device: dev, BufferBytes: 1024, SegmentBytes: seg}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(1, KindCommit, make([]byte, seg-gap-headerSize), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(2, KindCommit, make([]byte, 200), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		tail := int64(seg + headerSize + 200)

		var kinds []Kind
		w, err := WalkDevice(dev, seg, 0, 0, func(rec Record, off, end int64) error {
			kinds = append(kinds, rec.Kind)
			return nil
		})
		wantKinds := []Kind{KindCommit, KindCommit}
		if gap >= headerSize {
			wantKinds = []Kind{KindCommit, KindPad, KindCommit}
		}
		if err != nil || w != (WalkResult{End: tail, Reason: ReplayCleanEnd}) || !slices.Equal(kinds, wantKinds) {
			t.Fatalf("gap %d: walk = %+v, %v, kinds %v; want end %d clean, kinds %v", gap, w, err, kinds, tail, wantKinds)
		}
		for _, to := range []int64{seg - int64(gap), seg} {
			w, err := WalkDevice(dev, seg, 0, to, nil)
			if err != nil || w != (WalkResult{End: to, Reason: ReplayCleanEnd}) {
				t.Fatalf("gap %d: walk to %d = %+v, %v", gap, to, w, err)
			}
		}
		s2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.Tail(); got != tail {
			t.Fatalf("gap %d: reopened tail %d, want %d", gap, got, tail)
		}
	}
}

// TestWalkBytesStopsAtCutFrame pins the difference between a frame cut by
// the read and a torn one: past the buffer but inside the written log is a
// clean stop, past the written log is a torn tail.
func TestWalkBytesStopsAtCutFrame(t *testing.T) {
	a, b := frame(KindCommit, 0, []byte("first")), frame(KindCommit, 0, []byte("second"))
	log := append(append([]byte(nil), a...), b...)
	cut := log[:len(a)+5]
	if w, err := WalkBytes(cut, 0, int64(len(log)), DefaultSegmentBytes, nil); err != nil || w != (WalkResult{End: int64(len(a)), Reason: ReplayCleanEnd}) {
		t.Fatalf("cut read = %+v, %v", w, err)
	}
	if w, err := WalkBytes(cut, 0, int64(len(cut)), DefaultSegmentBytes, nil); err != nil || w != (WalkResult{End: int64(len(a)), Reason: ReplayTornTail}) {
		t.Fatalf("torn log = %+v, %v", w, err)
	}
	foreign := append(append([]byte(nil), a...), bytes.Repeat([]byte{0x42}, headerSize)...)
	if w, _ := WalkBytes(foreign, 0, int64(len(foreign)), DefaultSegmentBytes, nil); w.Reason != ReplayBadMagic {
		t.Fatalf("foreign byte = %+v", w)
	}
}

// FuzzDecodeRecord holds the one frame decoder to its contract on
// arbitrary bytes: it fails with ErrCorrupt, or returns a record whose
// frame encodes back byte for byte — never a panic. The walker, run over
// the same bytes, must stop inside them and agree with the decoder.
func FuzzDecodeRecord(f *testing.F) {
	valid := frame(KindCommit, 0, []byte("commit body"))
	f.Add(valid)
	f.Add(frame(KindBase, 7, []byte("page image")))
	f.Add(frame(KindDelta, 1, nil))
	f.Add(frame(KindPad, 0, make([]byte, 30)))
	for i := range valid {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0xff
		f.Add(flipped)
		f.Add(valid[:i]) // torn
	}
	f.Add(make([]byte, headerSize)) // zero fill
	f.Add(append(bytes.Clone(valid), valid...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, derr := decode(raw, int32(len(raw)-headerSize))
		if derr != nil {
			if !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("decode failed with %v, want ErrCorrupt", derr)
			}
		} else if got := frame(rec.Kind, rec.PID, rec.Payload); !bytes.Equal(got, raw) {
			t.Fatalf("record %+v re-encodes as %x, decoded from %x", rec, got, raw)
		}
		n := 0
		w, err := WalkBytes(raw, 0, int64(len(raw)), DefaultSegmentBytes, func(Record, int64, int64) error {
			n++
			return nil
		})
		if err != nil || w.End < 0 || w.End > int64(len(raw)) {
			t.Fatalf("walk = %+v, %v over %d bytes", w, err, len(raw))
		}
		if derr == nil && (n != 1 || w != (WalkResult{End: int64(len(raw)), Reason: ReplayCleanEnd})) {
			t.Fatalf("walk over one valid frame = %+v after %d frames", w, n)
		}
	})
}
