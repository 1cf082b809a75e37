package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// legFaults arms one-shot faults on one mirror leg: the next write the leg
// receives is flipped, or its next read fails. Every I/O the mirror makes
// on the leg consumes it, repairs and scrub reads included.
type legFaults struct {
	flipWrites []int64 // bits to flip, one per write
	readErrs   int     // reads to fail
}

func (f *legFaults) WriteFault(off int64, data []byte) FaultOutcome {
	if len(f.flipWrites) == 0 {
		return FaultOutcome{}
	}
	bit := f.flipWrites[0]
	f.flipWrites = f.flipWrites[1:]
	return FaultOutcome{Flip: true, FlipBit: bit}
}

func (f *legFaults) ReadFault(off int64, length int) FaultOutcome {
	if f.readErrs == 0 {
		return FaultOutcome{}
	}
	f.readErrs--
	return FaultOutcome{Err: ErrInjectedRead}
}

// mirrorModel drives a Mirror with seeded operations and checks it
// against a reference byte array.
type mirrorModel struct {
	t      *testing.T
	rng    *rand.Rand
	m      *Mirror
	faults [2]*legFaults
	ref    []byte         // what every verified read must return
	hw     int64          // highest byte written through the mirror
	summed map[int64]bool // pages written since their last full trim
	// damaged lists the legs faults go to: one leg, or both.
	damaged []int
}

const modelBytes = 10 * MirrorPageSize

func newMirrorModel(t *testing.T, seed int64, damaged []int) *mirrorModel {
	mm := &mirrorModel{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		m:       NewMirror(SamsungSSD),
		ref:     make([]byte, modelBytes),
		summed:  map[int64]bool{},
		damaged: damaged,
	}
	for i := range mm.faults {
		mm.faults[i] = &legFaults{}
		mm.m.Leg(i).SetFaultInjector(mm.faults[i])
	}
	return mm
}

// span picks a range [off, off+n) inside the model, at any alignment.
func (mm *mirrorModel) span(limit int64, maxLen int) (int64, int) {
	off := mm.rng.Int63n(limit)
	n := 1 + mm.rng.Intn(maxLen)
	if rest := limit - off; int64(n) > rest {
		n = int(rest)
	}
	return off, n
}

// checkErr accepts err only where damage may cost data: with both legs
// damaged, an error must be one of the device's typed failures.
func (mm *mirrorModel) checkErr(what string, err error) {
	mm.t.Helper()
	if err == nil {
		return
	}
	if len(mm.damaged) == 1 {
		mm.t.Fatalf("%s with one damaged leg: %v", what, err)
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrInjectedRead) {
		mm.t.Fatalf("%s: untyped error %v", what, err)
	}
}

// quarantined returns the pages the mirror has given up on. With one
// damaged leg there must be none.
func (mm *mirrorModel) quarantined() map[int64]bool {
	mm.t.Helper()
	q := map[int64]bool{}
	for _, p := range mm.m.QuarantinedPages() {
		q[p] = true
	}
	if len(q) > 0 && len(mm.damaged) == 1 {
		mm.t.Fatalf("pages %v quarantined with one damaged leg", mm.m.QuarantinedPages())
	}
	return q
}

func (mm *mirrorModel) write() {
	off, n := mm.span(modelBytes, 3*MirrorPageSize)
	data := make([]byte, n)
	mm.rng.Read(data)
	err := mm.m.WriteAt(off, data, nil)
	mm.checkErr(fmt.Sprintf("WriteAt(%d, %d)", off, n), err)
	if err != nil {
		return // a failed write changes neither leg
	}
	copy(mm.ref[off:], data)
	mm.hw = max(mm.hw, off+int64(n))
	for p := off / MirrorPageSize; p*MirrorPageSize < off+int64(n); p++ {
		mm.summed[p] = true
	}
}

func (mm *mirrorModel) trim() {
	off, n := mm.span(modelBytes, 3*MirrorPageSize)
	end := off + int64(n)
	err := mm.m.Trim(off, int64(n))
	mm.checkErr(fmt.Sprintf("Trim(%d, %d)", off, n), err)
	if err != nil {
		return // a failed trim fails before either leg changes
	}
	clear(mm.ref[off:end])
	for p := off / MirrorPageSize; p*MirrorPageSize < end; p++ {
		if off <= p*MirrorPageSize && end >= (p+1)*MirrorPageSize {
			delete(mm.summed, p)
		}
	}
}

func (mm *mirrorModel) read() {
	if mm.hw == 0 {
		return
	}
	off, n := mm.span(mm.hw, 3*MirrorPageSize)
	got, err := mm.m.ReadAt(off, n, nil)
	mm.checkErr(fmt.Sprintf("ReadAt(%d, %d)", off, n), err)
	if err != nil {
		return
	}
	q := mm.quarantined()
	for p := off / MirrorPageSize; p*MirrorPageSize < off+int64(n); p++ {
		if q[p] {
			mm.t.Fatalf("ReadAt(%d, %d) served quarantined page %d", off, n, p)
		}
	}
	if !bytes.Equal(got, mm.ref[off:off+int64(n)]) {
		mm.t.Fatalf("ReadAt(%d, %d) returned bytes that differ from what was written", off, n)
	}
}

func (mm *mirrorModel) scrub() {
	mm.m.ScrubOnce()
	mm.quarantined()
}

// damage hurts one damaged leg: its next write is flipped, its next read
// fails, or a verified page rots on its media.
func (mm *mirrorModel) damage() {
	leg := mm.damaged[mm.rng.Intn(len(mm.damaged))]
	f := mm.faults[leg]
	switch mm.rng.Intn(3) {
	case 0:
		f.flipWrites = append(f.flipWrites, mm.rng.Int63())
	case 1:
		f.readErrs++
	case 2:
		// Rot one byte of a verified page the leg holds. Pages without
		// a checksum are the bare device's trust level, out of scope.
		var pages []int64
		for p := range mm.summed {
			if (p+1)*MirrorPageSize <= mm.m.Leg(leg).HighWater() {
				pages = append(pages, p)
			}
		}
		if len(pages) == 0 {
			return
		}
		slices.Sort(pages) // map order is random; the pick must replay
		p := pages[mm.rng.Intn(len(pages))]
		off := p*MirrorPageSize + mm.rng.Int63n(MirrorPageSize)
		saved := *f
		*f = legFaults{}
		err := mm.m.Leg(leg).WriteAt(off, []byte{mm.ref[off] ^ 0x5a}, nil)
		*f = saved
		if err != nil {
			mm.t.Fatalf("rot leg %d byte %d: %v", leg, off, err)
		}
	}
}

func (mm *mirrorModel) run(steps int) {
	for i := 0; i < steps; i++ {
		switch r := mm.rng.Intn(100); {
		case r < 30:
			mm.write()
		case r < 42:
			mm.trim()
		case r < 72:
			mm.read()
		case r < 77:
			mm.scrub()
		default:
			mm.damage()
		}
	}
	// Disarm, then every byte written must read back: with one damaged
	// leg from the mirror as it is, and after a scrub pass too.
	*mm.faults[0], *mm.faults[1] = legFaults{}, legFaults{}
	mm.scrub()
	if mm.hw == 0 {
		return
	}
	q := mm.quarantined()
	for p := int64(0); p*MirrorPageSize < mm.hw; p++ {
		if q[p] {
			continue
		}
		off, end := p*MirrorPageSize, min((p+1)*MirrorPageSize, mm.hw)
		got, err := mm.m.ReadAt(off, int(end-off), nil)
		if err != nil {
			mm.t.Fatalf("final read of page %d: %v", p, err)
		}
		if !bytes.Equal(got, mm.ref[off:end]) {
			mm.t.Fatalf("final read of page %d differs from what was written", p)
		}
	}
}

// TestMirrorModel runs seeded sequences of writes and trims at arbitrary
// alignments, reads, scrub passes and leg damage (flipped writes, failed
// reads, rotted media) against a reference byte array, in one goroutine
// so a failing seed replays exactly. Every read returns the reference
// bytes or a typed error. With damage on one leg only, nothing fails and
// nothing is quarantined.
func TestMirrorModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("oneleg/seed%02d", seed), func(t *testing.T) {
			newMirrorModel(t, seed, []int{int(seed % 2)}).run(400)
		})
		t.Run(fmt.Sprintf("bothlegs/seed%02d", seed), func(t *testing.T) {
			newMirrorModel(t, seed, []int{0, 1}).run(400)
		})
	}
}
