package ssd

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"costperf/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := New(SamsungSSD)
	data := []byte("hello flash world")
	if err := d.WriteAt(100, data, nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAt(100, len(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestCrossChunkIO(t *testing.T) {
	d := New(SamsungSSD)
	// Write a buffer spanning three chunks.
	data := make([]byte, chunkSize*2+500)
	for i := range data {
		data[i] = byte(i % 251)
	}
	off := int64(chunkSize - 100)
	if err := d.WriteAt(off, data, nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAt(off, len(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk round trip mismatch")
	}
}

func TestReadBeyondHighWater(t *testing.T) {
	d := New(SamsungSSD)
	if err := d.WriteAt(0, []byte("abc"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(0, 10, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestNegativeOffsets(t *testing.T) {
	d := New(SamsungSSD)
	if err := d.WriteAt(-1, []byte("x"), nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := d.ReadAt(-1, 1, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read err = %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := New(SamsungSSD)
	if err := d.WriteAt(0, make([]byte, 4096), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes.Value() != 1 || s.Reads.Value() != 1 {
		t.Fatalf("writes=%d reads=%d, want 1/1", s.Writes.Value(), s.Reads.Value())
	}
	if s.BytesWritten.Value() != 4096 || s.BytesRead.Value() != 4096 {
		t.Fatalf("bytesW=%d bytesR=%d, want 4096/4096", s.BytesWritten.Value(), s.BytesRead.Value())
	}
}

func TestBusyTimeReflectsIOPS(t *testing.T) {
	d := New(SamsungSSD)
	const n = 100
	for i := 0; i < n; i++ {
		if err := d.WriteAt(int64(i)*100, []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	want := float64(n) / SamsungSSD.MaxIOPS
	if got := d.BusySeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("BusySeconds = %v, want %v", got, want)
	}
}

func TestChargerCosts(t *testing.T) {
	s := sim.NewSession(sim.DefaultCosts())
	p := s.Profile()

	user := New(SamsungSSD)
	ch := s.Begin()
	if err := user.WriteAt(0, []byte("abc"), ch); err != nil {
		t.Fatal(err)
	}
	wantUser := p.IOIssueUser + p.ContextSwitch
	if got := ch.Cost(); math.Abs(float64(got-wantUser)) > 1e-9 {
		t.Fatalf("user path cost = %v, want %v", got, wantUser)
	}
	if ch.Class() != sim.OpSS {
		t.Fatalf("class = %v, want SS", ch.Class())
	}
	ch.Abandon()

	kcfg := SamsungSSD
	kcfg.Path = KernelPath
	kernel := New(kcfg)
	ch2 := s.Begin()
	if err := kernel.WriteAt(0, []byte("abc"), ch2); err != nil {
		t.Fatal(err)
	}
	wantKernel := p.IOIssueKernel + p.ContextSwitch
	if got := ch2.Cost(); math.Abs(float64(got-wantKernel)) > 1e-9 {
		t.Fatalf("kernel path cost = %v, want %v", got, wantKernel)
	}
	if float64(wantKernel)/float64(wantUser) < 1.3 {
		t.Fatal("kernel path should be substantially more expensive (paper: ~1/3 path reduction)")
	}
}

func TestFailureInjection(t *testing.T) {
	d := New(SamsungSSD)
	if err := d.WriteAt(0, []byte("abcd"), nil); err != nil {
		t.Fatal(err)
	}
	d.FailNextReads(2)
	for i := 0; i < 2; i++ {
		if _, err := d.ReadAt(0, 4, nil); !errors.Is(err, ErrInjectedRead) {
			t.Fatalf("read %d err = %v, want injected", i, err)
		}
	}
	if _, err := d.ReadAt(0, 4, nil); err != nil {
		t.Fatalf("read after injection window: %v", err)
	}

	d.SetWriteFailureRate(1.0)
	if err := d.WriteAt(0, []byte("x"), nil); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("write err = %v, want injected", err)
	}
	d.SetWriteFailureRate(0)
	if err := d.WriteAt(0, []byte("x"), nil); err != nil {
		t.Fatalf("write after clearing rate: %v", err)
	}
}

func TestClose(t *testing.T) {
	d := New(SamsungSSD)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(0, []byte("x"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("write err = %v, want ErrClosed", err)
	}
	if _, err := d.ReadAt(0, 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("read err = %v, want ErrClosed", err)
	}
}

func TestTrimReleasesChunks(t *testing.T) {
	d := New(SamsungSSD)
	data := make([]byte, chunkSize*4)
	if err := d.WriteAt(0, data, nil); err != nil {
		t.Fatal(err)
	}
	before := d.FootprintBytes()
	d.Trim(0, chunkSize*2)
	after := d.FootprintBytes()
	if after >= before {
		t.Fatalf("footprint %d -> %d, want reduction", before, after)
	}
}

func TestTrimPartialChunkZeroes(t *testing.T) {
	d := New(SamsungSSD)
	if err := d.WriteAt(0, bytes.Repeat([]byte{0xff}, 1024), nil); err != nil {
		t.Fatal(err)
	}
	d.Trim(100, 100)
	got, err := d.ReadAt(0, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got[i] != 0xff {
			t.Fatalf("byte %d clobbered", i)
		}
	}
	for i := 100; i < 200; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d = %x, want zero after trim", i, got[i])
		}
	}
	for i := 200; i < 1024; i++ {
		if got[i] != 0xff {
			t.Fatalf("byte %d clobbered", i)
		}
	}
}

// TestTrimReleasesSharedBoundaryChunk: two extents meet inside a chunk;
// once both are trimmed the chunk holds nothing and must be released, and
// the range must still read as zeros.
func TestTrimReleasesSharedBoundaryChunk(t *testing.T) {
	d := New(SamsungSSD)
	const a, b = chunkSize + chunkSize/2, chunkSize // extents [0, a) and [a, a+b)
	if err := d.WriteAt(0, bytes.Repeat([]byte{0xaa}, a), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(a, bytes.Repeat([]byte{0xbb}, b), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(0, a); err != nil {
		t.Fatal(err)
	}
	if got := d.FootprintBytes(); got != 2*chunkSize {
		t.Fatalf("footprint %d after the first trim, want the 2 chunks the second extent touches", got)
	}
	got, err := d.ReadAt(a, b, nil)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xbb}, b)) {
		t.Fatalf("second extent damaged by its neighbour's trim (err %v)", err)
	}
	if err := d.Trim(a, b); err != nil {
		t.Fatal(err)
	}
	if got := d.FootprintBytes(); got != 0 {
		t.Fatalf("footprint %d after both trims, want 0", got)
	}
	got, err = d.ReadAt(0, a+b, nil)
	if err != nil || !bytes.Equal(got, make([]byte, a+b)) {
		t.Fatalf("trimmed range does not read as zeros (err %v)", err)
	}
}

func TestConcurrentIO(t *testing.T) {
	d := New(SamsungSSD)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 1 << 20
			buf := bytes.Repeat([]byte{byte(w + 1)}, 512)
			for i := 0; i < 50; i++ {
				off := base + int64(i)*512
				if err := d.WriteAt(off, buf, nil); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got, err := d.ReadAt(off, 512, nil)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("worker %d: corrupt read", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDevicePresetsSane(t *testing.T) {
	for _, cfg := range []Config{SamsungSSD, NextGenSSD, EnterpriseHDD, CommodityHDD, NVRAM} {
		if cfg.MaxIOPS <= 0 || cfg.LatencySec <= 0 || cfg.CostPerByte <= 0 {
			t.Errorf("%s: invalid preset %+v", cfg.Name, cfg)
		}
	}
	if NextGenSSD.MaxIOPS <= SamsungSSD.MaxIOPS {
		t.Error("next-gen SSD should have more IOPS (Section 7.1.2)")
	}
	if EnterpriseHDD.MaxIOPS >= SamsungSSD.MaxIOPS/100 {
		t.Error("HDD IOPS should be orders of magnitude below SSD (Section 8.3)")
	}
}

func TestIOPathString(t *testing.T) {
	if UserLevelPath.String() != "user-level" || KernelPath.String() != "kernel" {
		t.Fatal("IOPath strings wrong")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxIOPS=0 did not panic")
		}
	}()
	New(Config{})
}

// Property: any sequence of non-overlapping writes reads back intact.
func TestRoundTripProperty(t *testing.T) {
	f := func(blobs [][]byte) bool {
		d := New(SamsungSSD)
		off := int64(0)
		type ext struct {
			off  int64
			data []byte
		}
		var exts []ext
		for _, b := range blobs {
			if len(b) == 0 {
				continue
			}
			if err := d.WriteAt(off, b, nil); err != nil {
				return false
			}
			exts = append(exts, ext{off, b})
			off += int64(len(b)) + 37 // gap between extents
		}
		for _, e := range exts {
			got, err := d.ReadAt(e.off, len(e.data), nil)
			if err != nil || !bytes.Equal(got, e.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCapacityEnforcedAndTrimFrees pins the simulated-capacity contract:
// writes that need fresh media beyond CapacityBytes fail with the typed
// ErrNoSpace (a persistent fault — retries cannot help), overwrites of
// already-allocated media always fit, and Trim returns media to the free
// pool so writes succeed again.
func TestCapacityEnforcedAndTrimFrees(t *testing.T) {
	d := New(Config{Name: "tiny", MaxIOPS: 1e6, LatencySec: 1e-6, CapacityBytes: 2 * chunkSize})
	buf := make([]byte, chunkSize)
	// Two chunks fit exactly.
	if err := d.WriteAt(0, buf, nil); err != nil {
		t.Fatalf("chunk 0: %v", err)
	}
	if err := d.WriteAt(chunkSize, buf, nil); err != nil {
		t.Fatalf("chunk 1: %v", err)
	}
	// A third fresh chunk is over capacity.
	err := d.WriteAt(2*chunkSize, buf, nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-capacity write = %v, want ErrNoSpace", err)
	}
	if got := d.Stats().FailedWrites.Value(); got != 1 {
		t.Fatalf("FailedWrites = %d, want 1", got)
	}
	// Overwriting allocated media is always in budget.
	if err := d.WriteAt(10, []byte("rewrite"), nil); err != nil {
		t.Fatalf("rewrite within capacity: %v", err)
	}
	// A straddling write that needs one fresh chunk also fails...
	if err := d.WriteAt(2*chunkSize-10, make([]byte, 20), nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("straddling write = %v, want ErrNoSpace", err)
	}
	// ...until Trim frees a chunk.
	if err := d.Trim(0, chunkSize); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if err := d.WriteAt(2*chunkSize, buf, nil); err != nil {
		t.Fatalf("write after trim: %v", err)
	}
	if fp := d.FootprintBytes(); fp != 2*chunkSize {
		t.Fatalf("footprint = %d, want %d", fp, 2*chunkSize)
	}
}
