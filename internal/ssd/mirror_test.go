package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"costperf/internal/metrics"
)

// scriptInjector is a minimal programmable FaultInjector for mirror tests
// (the canonical fault.Injector lives in internal/fault, which imports ssd
// and therefore cannot be used here).
type scriptInjector struct {
	mu      sync.Mutex
	writeN  int64
	readN   int64
	onWrite map[int64]FaultOutcome // keyed by 1-based write ordinal
	onRead  map[int64]FaultOutcome
}

func newScript() *scriptInjector {
	return &scriptInjector{onWrite: map[int64]FaultOutcome{}, onRead: map[int64]FaultOutcome{}}
}

func (s *scriptInjector) WriteFault(off int64, data []byte) FaultOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeN++
	return s.onWrite[s.writeN]
}

func (s *scriptInjector) ReadFault(off int64, length int) FaultOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readN++
	return s.onRead[s.readN]
}

func testMirror() *Mirror { return NewMirror(SamsungSSD) }

func pattern(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestMirrorRoundTrip(t *testing.T) {
	m := testMirror()
	oracle := New(SamsungSSD)
	writes := []struct {
		off int64
		n   int
	}{
		{0, MirrorPageSize},                            // aligned full page
		{MirrorPageSize, 3 * MirrorPageSize},           // aligned multi-page
		{100, 50},                                      // sub-page
		{MirrorPageSize - 10, 20},                      // straddles a page boundary
		{5*MirrorPageSize + 7, 2*MirrorPageSize + 100}, // unaligned multi-page
		{0, 1 << 16},                                   // big overwrite from zero
		{0, 100},                                       // aligned-start sub-page overwrite: tail pre-image required
	}
	for i, w := range writes {
		data := pattern(w.n, int64(i+1))
		if err := m.WriteAt(w.off, data, nil); err != nil {
			t.Fatalf("mirror write %d: %v", i, err)
		}
		if err := oracle.WriteAt(w.off, data, nil); err != nil {
			t.Fatalf("oracle write %d: %v", i, err)
		}
	}
	if m.HighWater() != oracle.HighWater() {
		t.Fatalf("high water: mirror %d oracle %d", m.HighWater(), oracle.HighWater())
	}
	reads := []struct {
		off int64
		n   int
	}{
		{0, int(oracle.HighWater())}, {100, 50}, {MirrorPageSize - 10, 20}, {5 * MirrorPageSize, 4096},
	}
	for i, r := range reads {
		got, err := m.ReadAt(r.off, r.n, nil)
		if err != nil {
			t.Fatalf("mirror read %d: %v", i, err)
		}
		want, err := oracle.ReadAt(r.off, r.n, nil)
		if err != nil {
			t.Fatalf("oracle read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d mismatch at off=%d len=%d", i, r.off, r.n)
		}
	}
	if rep := m.MirrorStats().ReadRepairs.Value(); rep != 0 {
		t.Fatalf("clean run performed %d read repairs", rep)
	}
	// Both legs must hold identical images.
	for _, leg := range []int{0, 1} {
		got, err := m.Leg(leg).ReadAt(0, int(oracle.HighWater()), nil)
		if err != nil {
			t.Fatalf("leg %d read: %v", leg, err)
		}
		want, _ := oracle.ReadAt(0, int(oracle.HighWater()), nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("leg %d diverged from oracle", leg)
		}
	}
}

func TestMirrorReadRepairsSingleLegFlip(t *testing.T) {
	m := testMirror()
	data := pattern(3*MirrorPageSize, 7)
	if err := m.WriteAt(0, data, nil); err != nil {
		t.Fatal(err)
	}
	// Silently corrupt one bit of leg 0's copy of page 1 on the next write
	// it receives (a direct sub-page write to that page).
	inj := newScript()
	inj.onWrite[1] = FaultOutcome{Flip: true, FlipBit: 13}
	m.Leg(0).SetFaultInjector(inj)
	if err := m.WriteAt(MirrorPageSize+64, data[MirrorPageSize+64:MirrorPageSize+96], nil); err != nil {
		t.Fatal(err)
	}
	m.Leg(0).SetFaultInjector(nil)

	failedBefore := m.Leg(0).Stats().FailedReads.Value()
	got, err := m.ReadAt(0, len(data), nil)
	if err != nil {
		t.Fatalf("read over flipped page: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned corrupt data instead of repairing")
	}
	if rep := m.MirrorStats().ReadRepairs.Value(); rep != 1 {
		t.Fatalf("ReadRepairs = %d, want 1", rep)
	}
	if f := m.Leg(0).Stats().FailedReads.Value(); f != failedBefore+1 {
		t.Fatalf("corrupt leg transfer not reclassified: FailedReads %d -> %d", failedBefore, f)
	}
	// The repair healed leg 0: a second read is clean and repairs nothing.
	if _, err := m.ReadAt(0, len(data), nil); err != nil {
		t.Fatal(err)
	}
	if rep := m.MirrorStats().ReadRepairs.Value(); rep != 1 {
		t.Fatalf("second read repaired again (ReadRepairs=%d): leg 0 was not healed", rep)
	}
}

func TestMirrorFailoverOnLegReadError(t *testing.T) {
	m := testMirror()
	data := pattern(2*MirrorPageSize, 3)
	if err := m.WriteAt(0, data, nil); err != nil {
		t.Fatal(err)
	}
	inj := newScript()
	inj.onRead[1] = FaultOutcome{Err: ErrInjectedRead}
	m.Leg(0).SetFaultInjector(inj)
	got, err := m.ReadAt(0, len(data), nil)
	if err != nil {
		t.Fatalf("read with leg-0 I/O error: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read returned wrong data")
	}
	if fo := m.MirrorStats().Failovers.Value(); fo != 1 {
		t.Fatalf("Failovers = %d, want 1", fo)
	}
}

func TestMirrorDualLegCorruptionQuarantines(t *testing.T) {
	m := testMirror()
	var health metrics.Health
	m.AttachHealth(&health)
	data := pattern(2*MirrorPageSize, 11)
	if err := m.WriteAt(0, data, nil); err != nil {
		t.Fatal(err)
	}
	// Flip the same page on both legs via per-leg injectors during a
	// sub-page write to page 0.
	for leg := 0; leg < 2; leg++ {
		inj := newScript()
		inj.onWrite[1] = FaultOutcome{Flip: true, FlipBit: 5}
		m.Leg(leg).SetFaultInjector(inj)
	}
	if err := m.WriteAt(16, data[16:48], nil); err != nil {
		t.Fatal(err)
	}
	m.Leg(0).SetFaultInjector(nil)
	m.Leg(1).SetFaultInjector(nil)

	_, err := m.ReadAt(0, MirrorPageSize, nil)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("dual-leg corruption returned %v, want ErrQuarantined", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("ErrQuarantined must wrap ErrCorrupt for fault classification")
	}
	if !health.Degraded() {
		t.Fatal("attached health did not degrade on quarantine")
	}
	if q := m.MirrorStats().Quarantined.Value(); q != 1 {
		t.Fatalf("Quarantined = %d, want 1", q)
	}
	if pages := m.QuarantinedPages(); len(pages) != 1 || pages[0] != 0 {
		t.Fatalf("QuarantinedPages = %v, want [0]", pages)
	}
	// Still quarantined on the next read; page 1 is unaffected.
	if _, err := m.ReadAt(0, 16, nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second read got %v, want ErrQuarantined", err)
	}
	if _, err := m.ReadAt(MirrorPageSize, MirrorPageSize, nil); err != nil {
		t.Fatalf("healthy neighbour page read failed: %v", err)
	}
	// A sub-page write cannot resurrect the page...
	if err := m.WriteAt(8, []byte("x"), nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("sub-page write into quarantined page got %v, want ErrQuarantined", err)
	}
	// ...but a full-page overwrite supplies fresh data and clears it.
	fresh := pattern(MirrorPageSize, 99)
	if err := m.WriteAt(0, fresh, nil); err != nil {
		t.Fatalf("full-page overwrite of quarantined page: %v", err)
	}
	got, err := m.ReadAt(0, MirrorPageSize, nil)
	if err != nil {
		t.Fatalf("read after overwrite: %v", err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("overwritten page returned stale data")
	}
}

func TestMirrorScrubRepairsLatentFlip(t *testing.T) {
	m := testMirror()
	data := pattern(4*MirrorPageSize, 23)
	if err := m.WriteAt(0, data, nil); err != nil {
		t.Fatal(err)
	}
	// Latent flip on leg 1 (the leg the read path never verifies first):
	// only the scrubber can find it before a failover would.
	inj := newScript()
	inj.onWrite[1] = FaultOutcome{Flip: true, FlipBit: 1000}
	m.Leg(1).SetFaultInjector(inj)
	if err := m.WriteAt(2*MirrorPageSize+10, data[2*MirrorPageSize+10:2*MirrorPageSize+40], nil); err != nil {
		t.Fatal(err)
	}
	m.Leg(1).SetFaultInjector(nil)

	rep := m.ScrubOnce()
	if rep.Repaired != 1 || rep.Quarantined != 0 {
		t.Fatalf("ScrubOnce = %+v, want 1 repaired, 0 quarantined", rep)
	}
	if sr := m.MirrorStats().ScrubRepairs.Value(); sr != 1 {
		t.Fatalf("ScrubRepairs = %d, want 1", sr)
	}
	if p := m.MirrorStats().ScrubPasses.Value(); p != 1 {
		t.Fatalf("ScrubPasses = %d, want 1", p)
	}
	// Idempotent: the next pass finds nothing.
	rep = m.ScrubOnce()
	if rep.Repaired != 0 || rep.Quarantined != 0 {
		t.Fatalf("second ScrubOnce = %+v, want clean", rep)
	}
	// Both legs identical again.
	b0, _ := m.Leg(0).ReadAt(0, len(data), nil)
	b1, _ := m.Leg(1).ReadAt(0, len(data), nil)
	if !bytes.Equal(b0, b1) {
		t.Fatal("legs diverged after scrub repair")
	}
}

func TestMirrorScrubQuarantinesDualCorruption(t *testing.T) {
	m := testMirror()
	var health metrics.Health
	m.AttachHealth(&health)
	data := pattern(2*MirrorPageSize, 31)
	if err := m.WriteAt(0, data, nil); err != nil {
		t.Fatal(err)
	}
	for leg := 0; leg < 2; leg++ {
		inj := newScript()
		inj.onWrite[1] = FaultOutcome{Flip: true, FlipBit: 7}
		m.Leg(leg).SetFaultInjector(inj)
	}
	if err := m.WriteAt(MirrorPageSize+100, data[100:132], nil); err != nil {
		t.Fatal(err)
	}
	m.Leg(0).SetFaultInjector(nil)
	m.Leg(1).SetFaultInjector(nil)

	rep := m.ScrubOnce()
	if rep.Quarantined != 1 {
		t.Fatalf("ScrubOnce = %+v, want 1 quarantined", rep)
	}
	if !health.Degraded() {
		t.Fatal("health did not degrade on scrub quarantine")
	}
	if _, err := m.ReadAt(MirrorPageSize, 10, nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("read of scrub-quarantined page got %v", err)
	}
}

func TestMirrorTornWriteRecoversIntactLeg(t *testing.T) {
	// Simulate a crash mid-mirrored-write: leg 0 takes a torn write and the
	// device errors; leg 1's write fails outright (no media change). The
	// checksums must keep describing the old, intact image on both legs.
	m := testMirror()
	old := pattern(2*MirrorPageSize, 41)
	if err := m.WriteAt(0, old, nil); err != nil {
		t.Fatal(err)
	}
	inj0 := newScript()
	inj0.onWrite[1] = FaultOutcome{Err: ErrInjectedWrite, Tear: true, TearKeep: 100}
	m.Leg(0).SetFaultInjector(inj0)
	inj1 := newScript()
	inj1.onWrite[1] = FaultOutcome{Err: ErrInjectedWrite}
	m.Leg(1).SetFaultInjector(inj1)

	newData := pattern(MirrorPageSize, 43)
	if err := m.WriteAt(0, newData, nil); err == nil {
		t.Fatal("write with both legs failing reported success")
	}
	m.Leg(0).SetFaultInjector(nil)
	m.Leg(1).SetFaultInjector(nil)

	// Reads see the old image: leg 0's torn page fails verification and is
	// served (and repaired) from leg 1.
	got, err := m.ReadAt(0, len(old), nil)
	if err != nil {
		t.Fatalf("read after torn write: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("read did not recover the intact pre-write image")
	}
	if rep := m.MirrorStats().ReadRepairs.Value(); rep != 1 {
		t.Fatalf("ReadRepairs = %d, want 1 (torn page healed from leg 1)", rep)
	}
}

func TestMirrorTornWriteSecondLegKeepsNewImage(t *testing.T) {
	// Leg 0 accepts the write, then leg 1 tears: the new checksums are
	// already installed, so reads serve leg 0's complete new image and
	// heal leg 1.
	m := testMirror()
	old := pattern(MirrorPageSize, 51)
	if err := m.WriteAt(0, old, nil); err != nil {
		t.Fatal(err)
	}
	inj1 := newScript()
	inj1.onWrite[1] = FaultOutcome{Err: ErrInjectedWrite, Tear: true, TearKeep: 64}
	m.Leg(1).SetFaultInjector(inj1)
	newData := pattern(MirrorPageSize, 53)
	if err := m.WriteAt(0, newData, nil); err != nil {
		t.Fatalf("single-leg failure must not fail the mirror write: %v", err)
	}
	m.Leg(1).SetFaultInjector(nil)

	got, err := m.ReadAt(0, MirrorPageSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("read did not serve the acknowledged new image")
	}
	// Scrub heals leg 1 back into sync.
	if rep := m.ScrubOnce(); rep.Repaired != 1 {
		t.Fatalf("scrub after one-leg tear: %+v, want 1 repair", rep)
	}
	b1, _ := m.Leg(1).ReadAt(0, MirrorPageSize, nil)
	if !bytes.Equal(b1, newData) {
		t.Fatal("leg 1 not healed to the new image")
	}
}

func TestMirrorTrimDropsChecksumsAndQuarantine(t *testing.T) {
	m := testMirror()
	data := pattern(3*MirrorPageSize, 61)
	if err := m.WriteAt(0, data, nil); err != nil {
		t.Fatal(err)
	}
	// Quarantine page 1 the hard way.
	for leg := 0; leg < 2; leg++ {
		inj := newScript()
		inj.onWrite[1] = FaultOutcome{Flip: true, FlipBit: 3}
		m.Leg(leg).SetFaultInjector(inj)
	}
	if err := m.WriteAt(MirrorPageSize+5, data[5:37], nil); err != nil {
		t.Fatal(err)
	}
	m.Leg(0).SetFaultInjector(nil)
	m.Leg(1).SetFaultInjector(nil)
	if _, err := m.ReadAt(MirrorPageSize, 8, nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("setup: expected quarantine, got %v", err)
	}

	// Trimming the whole page releases it; the trimmed range reads as
	// zeros with no checksum complaints.
	if err := m.Trim(MirrorPageSize, MirrorPageSize); err != nil {
		t.Fatal(err)
	}
	if pages := m.QuarantinedPages(); len(pages) != 0 {
		t.Fatalf("quarantine survived full trim: %v", pages)
	}
	got, err := m.ReadAt(MirrorPageSize, MirrorPageSize, nil)
	if err != nil {
		t.Fatalf("read of trimmed page: %v", err)
	}
	if !bytes.Equal(got, make([]byte, MirrorPageSize)) {
		t.Fatal("trimmed page not zeroed")
	}
	// Untrimmed neighbours still verify.
	if _, err := m.ReadAt(0, MirrorPageSize, nil); err != nil {
		t.Fatalf("neighbour page after trim: %v", err)
	}
}

func TestMirrorAggregateMeters(t *testing.T) {
	m := testMirror()
	data := pattern(8*MirrorPageSize, 71)
	if err := m.WriteAt(0, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(0, len(data), nil); err != nil {
		t.Fatal(err)
	}
	if m.HighWater() != int64(len(data)) {
		t.Fatalf("HighWater = %d, want %d", m.HighWater(), len(data))
	}
	if fp, leg := m.FootprintBytes(), m.Leg(0).FootprintBytes(); fp != 2*leg {
		t.Fatalf("FootprintBytes = %d, want doubled leg footprint %d", fp, 2*leg)
	}
	if busy := m.BusySeconds(); busy != m.Leg(0).BusySeconds()+m.Leg(1).BusySeconds() {
		t.Fatalf("BusySeconds = %v not the sum of the legs", busy)
	}
	// Logical mirror stats: one write, one read.
	if w, r := m.Stats().Writes.Value(), m.Stats().Reads.Value(); w != 1 || r != 1 {
		t.Fatalf("logical stats writes=%d reads=%d, want 1/1", w, r)
	}
	// Physical: the write landed on both legs.
	if w0, w1 := m.Leg(0).Stats().Writes.Value(), m.Leg(1).Stats().Writes.Value(); w0 != 1 || w1 != 1 {
		t.Fatalf("leg writes = %d/%d, want 1/1", w0, w1)
	}
}

func TestMirrorBackgroundScrubRateLimit(t *testing.T) {
	m := testMirror()
	// 64 checksummed pages of data.
	if err := m.WriteAt(0, pattern(64*MirrorPageSize, 81), nil); err != nil {
		t.Fatal(err)
	}
	const rate = 200.0 // pages/sec -> at most 400 leg reads/sec
	m.StartScrub(rate)
	const wait = 500 * time.Millisecond
	time.Sleep(wait)
	m.StopScrub()
	reads := m.MirrorStats().ScrubReads.Value()
	// Budget: 2 reads per page at `rate` pages/sec, +50% slack for timer
	// coarseness. The scrubber must also have made progress.
	budget := int64(2*rate*wait.Seconds()*1.5) + 2
	if reads > budget {
		t.Fatalf("scrubber issued %d reads in %v, budget %d", reads, wait, budget)
	}
	if reads == 0 {
		t.Fatal("scrubber made no progress")
	}
}

func TestMirrorClosed(t *testing.T) {
	m := testMirror()
	if err := m.WriteAt(0, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(0, []byte("y"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, err := m.ReadAt(0, 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := m.Trim(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("trim after close: %v", err)
	}
}

func TestMirrorConcurrentIO(t *testing.T) {
	m := testMirror()
	m.StartScrub(10000)
	defer m.StopScrub()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 16 * MirrorPageSize
			data := pattern(2*MirrorPageSize+33, int64(w+1))
			for i := 0; i < 20; i++ {
				off := base + int64(i%3)*517
				if err := m.WriteAt(off, data, nil); err != nil {
					errc <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				got, err := m.ReadAt(off, len(data), nil)
				if err != nil {
					errc <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if !bytes.Equal(got, data) {
					errc <- fmt.Errorf("worker %d read mismatch", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
