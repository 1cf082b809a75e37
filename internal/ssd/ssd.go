// Package ssd simulates the secondary-storage devices of the paper: flash
// SSDs (the Samsung drives of Sections 4.1 and 7.1.2), hard disks
// (Section 8.3), and NVRAM-style devices (Section 8.2).
//
// The simulator is deliberately simple — the paper's analysis needs exactly
// three things from a device, and the simulator exposes exactly those:
//
//  1. a maximum I/O rate (IOPS) and the device-busy accounting to tell when
//     a workload becomes I/O bound (Section 2.2 excludes that regime);
//  2. the CPU execution cost of issuing an I/O, which differs between a
//     kernel I/O path and a user-level SPDK-style path (Section 7.1.1);
//  3. purchase-cost parameters ($Fl per byte, $I for IOPS capability) that
//     feed the cost model.
//
// Data is held in a sparse chunked address space so multi-gigabyte virtual
// devices cost only what is actually written.
package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"costperf/internal/metrics"
	"costperf/internal/sim"
)

// IOPath selects the CPU cost profile for issuing I/O.
type IOPath int

const (
	// UserLevelPath models an SPDK-style user-mode I/O path: no
	// protection-boundary crossing (paper Section 7.1.1).
	UserLevelPath IOPath = iota
	// KernelPath models conventional OS-mediated I/O.
	KernelPath
)

// String names the path.
func (p IOPath) String() string {
	if p == KernelPath {
		return "kernel"
	}
	return "user-level"
}

// Config describes a simulated device.
type Config struct {
	// Name labels the device in experiment output.
	Name string
	// MaxIOPS is the device's maximum I/O rate (ops per virtual second).
	MaxIOPS float64
	// LatencySec is the per-I/O device latency in virtual seconds (time the
	// request spends in the device, not CPU time).
	LatencySec float64
	// Path selects the CPU cost charged per I/O issue.
	Path IOPath
	// CostPerByte is the device's purchase cost per byte ($Fl).
	CostPerByte float64
	// IOPSCost is the purchase cost attributed to the device's I/O
	// capability ($I), e.g. SSD price minus flash storage price.
	IOPSCost float64
	// CapacityBytes bounds the media the device will allocate (0 =
	// unbounded). Writes that would allocate past the bound fail with
	// ErrNoSpace; Trim returns media to the free pool. Capacity is
	// accounted in whole sparse chunks, matching FootprintBytes.
	CapacityBytes int64
}

// Paper-grade device presets. Prices follow Section 4.1; IOPS follow
// Sections 4.1, 7.1.2, and 8.3.
var (
	// SamsungSSD is the paper's measured device: 0.5 TB, $I = $50,
	// $Fl = $0.5e-9/byte, 200K IOPS achieved (Section 4.1).
	SamsungSSD = Config{
		Name: "samsung-ssd", MaxIOPS: 2.0e5, LatencySec: 100e-6,
		Path: UserLevelPath, CostPerByte: 0.5e-9, IOPSCost: 50,
	}
	// NextGenSSD is the 500K-IOPS drive of Section 7.1.2 at a similar
	// price point (≈40% cheaper per I/O).
	NextGenSSD = Config{
		Name: "nextgen-ssd", MaxIOPS: 5.0e5, LatencySec: 80e-6,
		Path: UserLevelPath, CostPerByte: 0.5e-9, IOPSCost: 50,
	}
	// EnterpriseHDD is Section 8.3's best-case disk: 200 IOPS, 5 ms.
	EnterpriseHDD = Config{
		Name: "enterprise-hdd", MaxIOPS: 200, LatencySec: 5e-3,
		Path: KernelPath, CostPerByte: 0.03e-9, IOPSCost: 150,
	}
	// CommodityHDD is Section 8.3's commodity disk: 100 IOPS, 10 ms.
	CommodityHDD = Config{
		Name: "commodity-hdd", MaxIOPS: 100, LatencySec: 10e-3,
		Path: KernelPath, CostPerByte: 0.02e-9, IOPSCost: 40,
	}
	// NVRAM approximates Section 8.2: cost and performance between DRAM
	// and flash, accessed without an I/O path.
	NVRAM = Config{
		Name: "nvram", MaxIOPS: 5e6, LatencySec: 1e-6,
		Path: UserLevelPath, CostPerByte: 2e-9, IOPSCost: 0,
	}
)

// Common errors.
var (
	ErrClosed        = errors.New("ssd: device closed")
	ErrOutOfRange    = errors.New("ssd: address out of range")
	ErrInjectedRead  = errors.New("ssd: injected read failure")
	ErrInjectedWrite = errors.New("ssd: injected write failure")
	// ErrNoSpace is returned by writes that would allocate media beyond
	// Config.CapacityBytes. It classifies as persistent (retrying cannot
	// free space), so flush paths latch their store's Health degraded
	// (read-only) instead of panicking or looping.
	ErrNoSpace = errors.New("ssd: device full")
)

// FaultOutcome describes what a fault injector wants to happen to one I/O.
// The zero value means "no fault": the I/O proceeds normally.
type FaultOutcome struct {
	// Err, when non-nil, fails the operation with this error. For writes,
	// nothing reaches the media unless Tear is also set.
	Err error
	// Tear truncates a write: only the first TearKeep bytes reach the
	// media (a torn/prefix-only write, as after power loss mid-flush).
	// With a nil Err the device still reports success — a silently torn
	// write that only checksum verification can catch later.
	Tear     bool
	TearKeep int
	// Flip flips bit FlipBit of the transferred data (modulo its length):
	// on writes the corrupted bytes reach the media, on reads the caller
	// receives them. Models bit rot / firmware corruption.
	Flip    bool
	FlipBit int64
	// ExtraBusySec adds a latency spike to the device-busy accounting.
	ExtraBusySec float64
}

// FaultInjector decides, per I/O, whether and how to misbehave. The
// canonical implementation is internal/fault.Injector; the interface lives
// here so the device does not depend on the fault package. Implementations
// must be safe for concurrent use; the device calls them with its own lock
// held, so they must not call back into the device.
type FaultInjector interface {
	// ReadFault is consulted before a read of length bytes at off.
	ReadFault(off int64, length int) FaultOutcome
	// WriteFault is consulted before a write of data at off.
	WriteFault(off int64, data []byte) FaultOutcome
}

// IOObserver receives one callback per physical I/O attempt the device
// executes. The canonical implementation is internal/obs.Tracer (matched
// structurally so the device does not depend on the obs package): the SSD
// charges the store's tracer with the simulated IOPS cost and busy latency
// of every transfer, including failed attempts that a retry loop will
// re-issue. Implementations must be cheap (atomic adds) and safe for
// concurrent use; the device may invoke them with its own lock held.
type IOObserver interface {
	// ObserveIO reports one attempt: direction, payload bytes moved
	// (0 for failed attempts), device-busy seconds charged, and whether
	// the attempt failed with an injected fault.
	ObserveIO(write bool, bytes int, busySec float64, failed bool)
}

const chunkSize = 1 << 16 // 64 KiB sparse chunks

// Device is a simulated secondary-storage device. It is safe for
// concurrent use.
//
// Accounting note: the high-water mark, device-busy time, and I/O stats
// are atomics rather than lock-guarded fields so that concurrent meter
// readers (the engine front-end, the cost model's rental accounting, and
// experiment harnesses polling mid-run) never tear a counter and never
// contend with the I/O path's data lock.
type Device struct {
	cfg          Config
	busyPerIONos int64 // 1/MaxIOPS in nanoseconds, precomputed

	mu       sync.RWMutex
	chunks   map[int64][]byte
	closed   bool
	injector FaultInjector // programmable fault injection (may be nil)
	observer IOObserver    // per-attempt telemetry sink (may be nil)

	written   atomic.Int64 // high-water mark of bytes addressed
	busyNanos atomic.Int64 // accumulated device-busy virtual nanoseconds

	stats metrics.IOStats
}

// New returns a device with the given configuration.
func New(cfg Config) *Device {
	if cfg.MaxIOPS <= 0 {
		panic(fmt.Sprintf("ssd: non-positive MaxIOPS %v", cfg.MaxIOPS))
	}
	return &Device{
		cfg:          cfg,
		busyPerIONos: int64(1e9/cfg.MaxIOPS + 0.5),
		chunks:       make(map[int64][]byte),
	}
}

// Config returns the device's configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns the device's I/O statistics.
func (d *Device) Stats() *metrics.IOStats { return &d.stats }

// chargeIO accrues the CPU cost of one I/O to the in-flight operation and
// escalates it to an SS operation. A nil charger charges nothing
// (e.g., background flush paths measured separately).
func (d *Device) chargeIO(ch *sim.Charger) {
	p := ch.Profile()
	if d.cfg.Path == KernelPath {
		ch.Add(p.IOIssueKernel)
	} else {
		ch.Add(p.IOIssueUser)
	}
	ch.Add(p.ContextSwitch)
	ch.Escalate(sim.OpSS)
}

// accountBusy charges device-busy time for one I/O.
func (d *Device) accountBusy() {
	d.busyNanos.Add(d.busyPerIONos)
}

// observeLocked reports one physical attempt to the installed observer.
// Caller holds d.mu (observers must be atomic-cheap, see IOObserver).
func (d *Device) observeLocked(write bool, bytes int, busySec float64, failed bool) {
	if d.observer != nil {
		d.observer.ObserveIO(write, bytes, busySec, failed)
	}
}

// BusySeconds returns accumulated device-busy virtual time; the harness
// compares it against elapsed virtual time to detect I/O-bound operation.
// Safe to poll concurrently with in-flight I/O.
func (d *Device) BusySeconds() float64 {
	return float64(d.busyNanos.Load()) / 1e9
}

// Latency returns the device latency per I/O in virtual seconds.
func (d *Device) Latency() float64 { return d.cfg.LatencySec }

// faultOnWriteLocked consults the installed injector, if any. Caller
// holds d.mu.
func (d *Device) faultOnWriteLocked(off int64, data []byte) FaultOutcome {
	if d.injector != nil {
		return d.injector.WriteFault(off, data)
	}
	return FaultOutcome{}
}

func (d *Device) faultOnReadLocked(off int64, length int) FaultOutcome {
	if d.injector != nil {
		return d.injector.ReadFault(off, length)
	}
	return FaultOutcome{}
}

// flipBit flips bit fo.FlipBit (modulo the buffer length) in a copy of b.
func flipBit(b []byte, bit int64) []byte {
	if len(b) == 0 {
		return b
	}
	cp := append([]byte(nil), b...)
	bit %= int64(len(cp) * 8)
	if bit < 0 {
		bit += int64(len(cp) * 8)
	}
	cp[bit/8] ^= 1 << (bit % 8)
	return cp
}

// WriteAt writes data at the given offset as one device write I/O,
// charging ch for the CPU cost (ch may be nil for background writes).
// If the charger carries a cancelled context, the write fails before any
// I/O is issued or busy time accrued: a caller that stopped waiting must
// not keep consuming the device's IOPS budget.
func (d *Device) WriteAt(off int64, data []byte, ch *sim.Charger) error {
	if err := ch.Err(); err != nil {
		return err
	}
	if off < 0 {
		return ErrOutOfRange
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.wouldExceedCapacityLocked(off, len(data)) {
		// A full device rejects the write deterministically, before any
		// injected fault: like a real ENOSPC it still occupied the device
		// for the attempt but moved no payload.
		d.accountBusy()
		d.stats.FailedWrites.Inc()
		d.observeLocked(true, 0, float64(d.busyPerIONos)/1e9, true)
		return fmt.Errorf("%w: write [%d,%d) over capacity %d (footprint %d)",
			ErrNoSpace, off, off+int64(len(data)), d.cfg.CapacityBytes, int64(len(d.chunks))*chunkSize)
	}
	fo := d.faultOnWriteLocked(off, data)
	attemptBusy := float64(d.busyPerIONos) / 1e9
	if fo.ExtraBusySec > 0 {
		d.busyNanos.Add(int64(fo.ExtraBusySec * 1e9))
		attemptBusy += fo.ExtraBusySec
	}
	towrite := data
	if fo.Tear {
		keep := fo.TearKeep
		if keep < 0 {
			keep = 0
		}
		if keep > len(data) {
			keep = len(data)
		}
		towrite = data[:keep]
	}
	if fo.Flip {
		towrite = flipBit(towrite, fo.FlipBit)
	}
	if fo.Tear {
		// Only the prefix hit the media, but the full address range stays
		// readable (as stale/zero bytes), like a real torn sector range —
		// recovery must detect the damage by checksum, not by short read.
		d.raiseHighWater(off + int64(len(data)))
	}
	if fo.Err != nil {
		// A torn write's prefix reached the media before the failure.
		if fo.Tear && len(towrite) > 0 {
			d.writeLocked(off, towrite)
		}
		// The failed attempt still occupied the device and consumed an
		// I/O slot: charge busy time and the physical-attempt counter,
		// but no logical write and no payload bytes — a bounded-retry
		// loop re-issuing this request must not inflate logical counts.
		d.accountBusy()
		d.stats.FailedWrites.Inc()
		d.observeLocked(true, 0, attemptBusy, true)
		return fo.Err
	}
	d.writeLocked(off, towrite)
	d.accountBusy()
	d.stats.Writes.Inc()
	d.stats.BytesWritten.Add(int64(len(data)))
	d.observeLocked(true, len(data), attemptBusy, false)
	d.chargeIO(ch)
	return nil
}

// wouldExceedCapacityLocked reports whether writing [off, off+n) would
// allocate chunks past the configured capacity. Rewrites of already
// allocated chunks are always in budget. Caller holds d.mu.
func (d *Device) wouldExceedCapacityLocked(off int64, n int) bool {
	if d.cfg.CapacityBytes <= 0 || n == 0 {
		return false
	}
	fresh := int64(0)
	for ci := off / chunkSize; ci*chunkSize < off+int64(n); ci++ {
		if _, ok := d.chunks[ci]; !ok {
			fresh++
		}
	}
	return (int64(len(d.chunks))+fresh)*chunkSize > d.cfg.CapacityBytes
}

func (d *Device) raiseHighWater(end int64) {
	for {
		cur := d.written.Load()
		if end <= cur || d.written.CompareAndSwap(cur, end) {
			return
		}
	}
}

func (d *Device) writeLocked(off int64, data []byte) {
	d.raiseHighWater(off + int64(len(data)))
	for len(data) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := chunkSize - co
		if int64(len(data)) < n {
			n = int64(len(data))
		}
		chunk, ok := d.chunks[ci]
		if !ok {
			chunk = make([]byte, chunkSize)
			d.chunks[ci] = chunk
		}
		copy(chunk[co:co+n], data[:n])
		off += n
		data = data[n:]
	}
}

// ReadAt reads length bytes at the given offset as one device read I/O,
// charging ch for the CPU cost. Like WriteAt, a cancelled context on the
// charger fails the read before it reaches the media.
func (d *Device) ReadAt(off int64, length int, ch *sim.Charger) ([]byte, error) {
	if err := ch.Err(); err != nil {
		return nil, err
	}
	if off < 0 || length < 0 {
		return nil, ErrOutOfRange
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	fo := d.faultOnReadLocked(off, length)
	attemptBusy := float64(d.busyPerIONos) / 1e9
	if fo.ExtraBusySec > 0 {
		d.busyNanos.Add(int64(fo.ExtraBusySec * 1e9))
		attemptBusy += fo.ExtraBusySec
	}
	if fo.Err != nil {
		// Failed physical attempt: busy time and attempt counter, no
		// logical read (see WriteAt's failure path).
		d.accountBusy()
		d.stats.FailedReads.Inc()
		d.observeLocked(false, 0, attemptBusy, true)
		d.mu.Unlock()
		return nil, fo.Err
	}
	if hw := d.written.Load(); off+int64(length) > hw {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: read [%d,%d) beyond high-water %d", ErrOutOfRange, off, off+int64(length), hw)
	}
	out := make([]byte, length)
	d.readLocked(off, out)
	if fo.Flip {
		out = flipBit(out, fo.FlipBit)
	}
	d.accountBusy()
	d.stats.Reads.Inc()
	d.stats.BytesRead.Add(int64(length))
	d.observeLocked(false, length, attemptBusy, false)
	d.mu.Unlock()
	d.chargeIO(ch)
	return out, nil
}

func (d *Device) readLocked(off int64, out []byte) {
	for len(out) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := chunkSize - co
		if int64(len(out)) < n {
			n = int64(len(out))
		}
		if chunk, ok := d.chunks[ci]; ok {
			copy(out[:n], chunk[co:co+n])
		} else {
			for i := int64(0); i < n; i++ {
				out[i] = 0
			}
		}
		off += n
		out = out[n:]
	}
}

// zeroChunk is what an absent chunk reads as.
var zeroChunk [chunkSize]byte

// Trim releases the storage backing [off, off+length) back to the device
// (log-structured GC uses this after reclaiming a segment). A partial chunk
// at a boundary is zeroed, and released too once nothing but zeros is left
// in it — a chunk shared by two trimmed neighbours must not stay allocated
// forever. Trimming a closed device returns ErrClosed without mutating the
// freed state.
func (d *Device) Trim(off int64, length int64) error {
	if off < 0 || length < 0 {
		return ErrOutOfRange
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	end := off + length
	for ci := off / chunkSize; ci*chunkSize < end; ci++ {
		cs, ce := ci*chunkSize, (ci+1)*chunkSize
		if cs >= off && ce <= end {
			delete(d.chunks, ci)
			continue
		}
		chunk, ok := d.chunks[ci]
		if !ok {
			continue
		}
		zs, ze := off, end
		if zs < cs {
			zs = cs
		}
		if ze > ce {
			ze = ce
		}
		// An absent chunk reads as zeros, so an all-zero one can go.
		if bytes.Equal(chunk[:zs-cs], zeroChunk[:zs-cs]) && bytes.Equal(chunk[ze-cs:], zeroChunk[ze-cs:]) {
			delete(d.chunks, ci)
			continue
		}
		clear(chunk[zs-cs : ze-cs])
	}
	return nil
}

// FootprintBytes returns the bytes of simulated media currently allocated.
func (d *Device) FootprintBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.chunks)) * chunkSize
}

// HighWater returns the highest written address (the log tail for
// log-structured users). Safe to poll concurrently with in-flight I/O.
func (d *Device) HighWater() int64 {
	return d.written.Load()
}

// SetFaultInjector installs (or, with nil, removes) a programmable fault
// injector consulted on every I/O. See internal/fault for the canonical
// deterministic implementation.
func (d *Device) SetFaultInjector(fi FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.injector = fi
}

// SetObserver installs (or, with nil, removes) a per-attempt I/O telemetry
// sink. See internal/obs.Tracer for the canonical implementation.
func (d *Device) SetObserver(o IOObserver) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.observer = o
}

// Close marks the device closed; subsequent I/O fails with ErrClosed.
func (d *Device) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
