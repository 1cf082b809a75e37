package ssd

import (
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"sort"
	"sync"
	"time"

	"costperf/internal/metrics"
	"costperf/internal/sim"
)

// Dev is the device surface every disk-backed store in this repository
// programs against: the plain simulated *Device and the self-healing
// *Mirror both satisfy it, so stores pick redundancy at construction time
// without code changes.
type Dev interface {
	Config() Config
	Stats() *metrics.IOStats
	WriteAt(off int64, data []byte, ch *sim.Charger) error
	ReadAt(off int64, length int, ch *sim.Charger) ([]byte, error)
	Trim(off, length int64) error
	BusySeconds() float64
	Latency() float64
	FootprintBytes() int64
	HighWater() int64
	SetFaultInjector(FaultInjector)
	SetObserver(IOObserver)
	Close() error
}

var (
	_ Dev = (*Device)(nil)
	_ Dev = (*Mirror)(nil)
)

// Corruption errors. ErrQuarantined wraps ErrCorrupt, so a single
// errors.Is(err, ssd.ErrCorrupt) classifies both; internal/fault maps them
// to ClassCorrupt (never retried — retrying cannot repair media).
var (
	// ErrCorrupt reports a payload that failed per-page checksum
	// verification with no intact copy available to serve instead.
	ErrCorrupt = errors.New("ssd: page failed checksum verification")
	// ErrQuarantined reports an access to a page disabled after both
	// mirror legs failed verification — the data is lost until the page
	// is fully overwritten or trimmed.
	ErrQuarantined = fmt.Errorf("%w (quarantined: corrupt on both legs)", ErrCorrupt)
)

// MirrorPageSize is the verification granularity of a Mirror: one CRC is
// kept per 4 KiB page, matching the btree page size and the flash mapping
// unit real drives checksum at.
const MirrorPageSize = 4096

// crcTable is the Castagnoli polynomial — hardware-accelerated on the
// platforms the paper measures, and a different polynomial from the IEEE
// CRCs the store formats use, so a mirror checksum can never accidentally
// validate a store-level frame (or vice versa).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func pageSum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Mirror is a self-healing pair of Devices behind the Dev surface.
//
// Every write goes to both legs (the honest 2x IOPS and rent tax of
// mirroring); a per-4KiB-page CRC computed from the caller's buffer is
// recorded once either leg has durably accepted the write. Reads are
// served from leg 0, verified page-by-page against the recorded sums, and
// transparently healed: an I/O error fails over to leg 1, a checksum
// mismatch is re-read from leg 1 and the good copy written back
// (read-repair). A background scrubber (StartScrub) walks the checksummed
// page set under a token bucket and repairs latent flips before any
// reader sees them. Pages that fail verification on BOTH legs are
// quarantined: subsequent reads fail with ErrQuarantined, every attached
// Health latches degraded (read-only), and only a full-page overwrite or
// trim clears the entry.
//
// Mirror is safe for concurrent use. Its mutex serializes the
// verify/repair critical sections; the legs keep their own locks and
// atomic meters.
type Mirror struct {
	legs [2]*Device

	mu      sync.Mutex
	sums    map[int64]uint32   // page index -> CRC32-C of the full 4 KiB page
	quar    map[int64]struct{} // pages corrupt on both legs
	healths []*metrics.Health  // latched read-only on quarantine
	closed  bool

	stats  metrics.IOStats // logical mirror-level I/O (one per caller request)
	mstats metrics.MirrorStats

	scrubMu   sync.Mutex
	scrubStop chan struct{}
	scrubDone chan struct{}
}

// NewMirror returns a mirror over two fresh Devices with the given
// configuration.
func NewMirror(cfg Config) *Mirror {
	return NewMirrorOf(New(cfg), New(cfg))
}

// NewMirrorOf returns a mirror over two existing legs — tests use this to
// install per-leg fault injectors.
func NewMirrorOf(a, b *Device) *Mirror {
	if a == nil || b == nil {
		panic("ssd: nil mirror leg")
	}
	return &Mirror{
		legs: [2]*Device{a, b},
		sums: make(map[int64]uint32),
		quar: make(map[int64]struct{}),
	}
}

// Leg returns one of the underlying devices (0 or 1) so harnesses can
// inject faults into, or inspect, a single leg.
func (m *Mirror) Leg(i int) *Device { return m.legs[i] }

// Config returns leg 0's configuration with the name marked as mirrored.
// Purchase-cost parameters are per leg; the cost model doubles the rent
// explicitly (core.Costs.WithReplication).
func (m *Mirror) Config() Config {
	cfg := m.legs[0].Config()
	cfg.Name += "+mirror"
	return cfg
}

// Stats returns the mirror's logical I/O statistics: one read/write per
// caller request regardless of how many physical leg transfers it took.
// Per-leg physical counters stay on Leg(i).Stats().
func (m *Mirror) Stats() *metrics.IOStats { return &m.stats }

// MirrorStats returns the self-healing counters.
func (m *Mirror) MirrorStats() *metrics.MirrorStats { return &m.mstats }

// AttachHealth registers a health indicator to latch degraded (read-only)
// when a page is quarantined — dual-leg corruption means data loss, and
// the store must stop accepting writes it can no longer protect.
func (m *Mirror) AttachHealth(h *metrics.Health) {
	if h == nil {
		return
	}
	m.mu.Lock()
	m.healths = append(m.healths, h)
	m.mu.Unlock()
}

// QuarantinedPages returns the sorted indexes of quarantined pages.
func (m *Mirror) QuarantinedPages() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.quar))
	for p := range m.quar {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quarantineLocked disables a page and degrades every attached health.
func (m *Mirror) quarantineLocked(page int64, reason string) {
	if _, ok := m.quar[page]; !ok {
		m.quar[page] = struct{}{}
		m.mstats.Quarantined.Inc()
	}
	for _, h := range m.healths {
		h.Degrade(reason)
	}
}

// readLegRangeLocked reads [start,end) from one leg, clamping to that
// leg's high-water mark and zero-filling the remainder — the legs can have
// different high-water marks after a torn or failed write, and bytes a leg
// never stored read as zeros (exactly what its media would return).
func (m *Mirror) readLegRangeLocked(leg int, start, end int64, ch *sim.Charger) ([]byte, error) {
	out := make([]byte, end-start)
	hw := m.legs[leg].HighWater()
	if hw > end {
		hw = end
	}
	if hw > start {
		b, err := m.legs[leg].ReadAt(start, int(hw-start), ch)
		if err != nil {
			return nil, err
		}
		copy(out, b)
	}
	return out, nil
}

// readLegPageLocked reads one full page from one leg (clamped/zero-filled
// like readLegRangeLocked).
func (m *Mirror) readLegPageLocked(leg int, page int64, ch *sim.Charger) ([]byte, error) {
	start := page * MirrorPageSize
	return m.readLegRangeLocked(leg, start, start+MirrorPageSize, ch)
}

// preimageLocked returns the current verified contents of one page, for
// the read-modify-write a sub-page write needs before new checksums can be
// computed. Pages with no recorded sum (never written through the mirror,
// or trimmed) are returned unverified — the same trust level a bare
// device offers.
func (m *Mirror) preimageLocked(page int64, ch *sim.Charger) ([]byte, error) {
	sum, verifiable := m.sums[page]
	b0, err0 := m.readLegPageLocked(0, page, ch)
	if err0 == nil && (!verifiable || pageSum(b0) == sum) {
		return b0, nil
	}
	// Leg 0 unreadable or corrupt: try leg 1.
	if err0 != nil {
		m.mstats.Failovers.Inc()
	} else {
		m.legs[0].Stats().ReclassifyRead()
	}
	b1, err1 := m.readLegPageLocked(1, page, ch)
	if err1 == nil && (!verifiable || pageSum(b1) == sum) {
		if err0 == nil {
			// Leg 0 was readable but corrupt: heal it now so the
			// subsequent sub-page write lands on repaired media.
			if m.legs[0].WriteAt(page*MirrorPageSize, b1, nil) == nil {
				m.mstats.ReadRepairs.Inc()
			}
		}
		return b1, nil
	}
	if err0 == nil && err1 == nil {
		// Both legs readable, both corrupt: the page is gone.
		m.quarantineLocked(page, fmt.Sprintf("mirror: page %d corrupt on both legs", page))
		return nil, fmt.Errorf("%w: page %d", ErrQuarantined, page)
	}
	if err1 != nil {
		return nil, err1
	}
	return nil, fmt.Errorf("%w: page %d unverifiable during read-modify-write", ErrCorrupt, page)
}

// WriteAt writes data to both legs as one logical mirror write. The
// caller's charger is charged for both leg I/Os — the doubled CPU, busy
// time, and IOPS are the real price of mirroring and feed the cost model
// unfudged. The write succeeds if either leg accepted it (the stale leg is
// healed lazily by read-repair or the scrubber); it fails only when both
// legs failed, and no checksum is recorded in that case, so recovery
// verifies against the pre-crash page images.
func (m *Mirror) WriteAt(off int64, data []byte, ch *sim.Charger) error {
	if err := ch.Err(); err != nil {
		return err
	}
	if off < 0 {
		return ErrOutOfRange
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(data) == 0 {
		if err := m.legs[0].WriteAt(off, data, ch); err != nil {
			return err
		}
		return m.legs[1].WriteAt(off, data, ch)
	}

	first := off / MirrorPageSize
	last := (off + int64(len(data)) - 1) / MirrorPageSize
	start, end := first*MirrorPageSize, (last+1)*MirrorPageSize
	fullyCovers := func(p int64) bool {
		return off <= p*MirrorPageSize && off+int64(len(data)) >= (p+1)*MirrorPageSize
	}
	for p := first; p <= last; p++ {
		if _, q := m.quar[p]; q && !fullyCovers(p) {
			m.stats.FailedWrites.Inc()
			return fmt.Errorf("%w: sub-page write into page %d", ErrQuarantined, p)
		}
	}

	// Assemble the aligned image the new page checksums cover. Only a
	// partial head or tail page needs its pre-image read back (and
	// verified); fully overwritten pages are taken from the caller.
	buf := make([]byte, end-start)
	if off > start {
		pre, err := m.preimageLocked(first, ch)
		if err != nil {
			m.stats.FailedWrites.Inc()
			return err
		}
		copy(buf[:MirrorPageSize], pre)
	}
	// The tail page needs its pre-image whenever the write ends short of a
	// page boundary — including the single-page aligned-start case, which
	// the head branch above does not cover.
	if tail := off + int64(len(data)); tail < end && (last != first || off == start) {
		pre, err := m.preimageLocked(last, ch)
		if err != nil {
			m.stats.FailedWrites.Inc()
			return err
		}
		copy(buf[end-start-MirrorPageSize:], pre)
	}
	copy(buf[off-start:], data)

	newSums := make(map[int64]uint32, last-first+1)
	for p := first; p <= last; p++ {
		o := (p - first) * MirrorPageSize
		newSums[p] = pageSum(buf[o : o+MirrorPageSize])
	}
	install := func() {
		for p, s := range newSums {
			m.sums[p] = s
			if fullyCovers(p) {
				delete(m.quar, p) // fresh data on both... at least one leg
			}
		}
	}

	// Write the legs in order, recording the new checksums as soon as the
	// FIRST leg has durably accepted the data: if leg 1 then tears or
	// crashes, the sums still match leg 0 and verified reads serve it. If
	// leg 0 fails first, the old sums stay and keep matching leg 1's
	// intact old image — either way exactly one consistent (sums, leg)
	// pair survives any single fault.
	err0 := m.legs[0].WriteAt(off, data, ch)
	if err0 == nil {
		install()
	}
	err1 := m.legs[1].WriteAt(off, data, ch)
	if err0 != nil && err1 == nil {
		install()
	}
	if err0 != nil && err1 != nil {
		m.stats.FailedWrites.Inc()
		return err0
	}
	m.stats.Writes.Inc()
	m.stats.BytesWritten.Add(int64(len(data)))
	return nil
}

// ReadAt reads length bytes as one logical mirror read, serving from
// leg 0 and verifying every covered page against its recorded checksum.
// Leg I/O errors fail over to leg 1; checksum mismatches are re-read from
// leg 1, served from the verified copy, and repaired back onto leg 0.
// Only when both legs fail verification does the caller see an error —
// ErrQuarantined, after the page has been disabled and every attached
// Health degraded.
func (m *Mirror) ReadAt(off int64, length int, ch *sim.Charger) ([]byte, error) {
	if err := ch.Err(); err != nil {
		return nil, err
	}
	if off < 0 || length < 0 {
		return nil, ErrOutOfRange
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	hw := m.legs[0].HighWater()
	if h1 := m.legs[1].HighWater(); h1 > hw {
		hw = h1
	}
	if off+int64(length) > hw {
		return nil, fmt.Errorf("%w: read [%d,%d) beyond high-water %d", ErrOutOfRange, off, off+int64(length), hw)
	}
	if length == 0 {
		return []byte{}, nil
	}

	first := off / MirrorPageSize
	last := (off + int64(length) - 1) / MirrorPageSize
	for p := first; p <= last; p++ {
		if _, q := m.quar[p]; q {
			m.stats.FailedReads.Inc()
			return nil, fmt.Errorf("%w: page %d", ErrQuarantined, p)
		}
	}

	start, end := first*MirrorPageSize, (last+1)*MirrorPageSize
	src := 0
	buf, err := m.readLegRangeLocked(0, start, end, ch)
	if err != nil {
		m.mstats.Failovers.Inc()
		src = 1
		buf, err = m.readLegRangeLocked(1, start, end, ch)
		if err != nil {
			m.stats.FailedReads.Inc()
			return nil, err
		}
	}

	for p := first; p <= last; p++ {
		sum, ok := m.sums[p]
		if !ok {
			continue // never written through the mirror (gap or torn tail): unverifiable
		}
		o := (p - first) * MirrorPageSize
		if pageSum(buf[o:o+MirrorPageSize]) == sum {
			continue
		}
		// The serving leg's transfer carried a corrupt payload: it must
		// count as a failed physical read, not a logical one.
		m.legs[src].Stats().ReclassifyRead()
		if src != 0 {
			// Already on the fallback leg (leg 0's I/O failed outright),
			// so there is no second copy to cross-check. Leg 0's media
			// state is unknown — fail typed, but do not quarantine.
			m.stats.FailedReads.Inc()
			return nil, fmt.Errorf("%w: page %d failed verification on fallback leg", ErrCorrupt, p)
		}
		alt, altErr := m.readLegPageLocked(1, p, ch)
		if altErr != nil {
			m.stats.FailedReads.Inc()
			return nil, altErr
		}
		if pageSum(alt) != sum {
			m.legs[1].Stats().ReclassifyRead()
			m.quarantineLocked(p, fmt.Sprintf("mirror: page %d corrupt on both legs", p))
			m.stats.FailedReads.Inc()
			return nil, fmt.Errorf("%w: page %d", ErrQuarantined, p)
		}
		copy(buf[o:o+MirrorPageSize], alt)
		if m.legs[0].WriteAt(p*MirrorPageSize, alt, nil) == nil {
			m.mstats.ReadRepairs.Inc()
		}
	}

	m.mstats.VerifiedReads.Inc()
	m.stats.Reads.Inc()
	m.stats.BytesRead.Add(int64(length))
	return buf[off-start : off-start+int64(length)], nil
}

// Trim forwards to both legs. A fully covered page loses its checksum
// (it re-verifies from its next write) and leaves quarantine. A partly
// covered page is re-summed from its verified image with the trimmed
// range zeroed, so its surviving bytes stay verified; if it fails
// verification on both legs it is quarantined, as a read would, and if
// neither leg can read it the trim fails before either leg changes.
func (m *Mirror) Trim(off, length int64) error {
	if off < 0 || length < 0 {
		return ErrOutOfRange
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	end := off + length
	resums := map[int64]uint32{}
	for p := off / MirrorPageSize; p*MirrorPageSize < end; p++ {
		ps, pe := p*MirrorPageSize, (p+1)*MirrorPageSize
		_, summed := m.sums[p]
		_, quarantined := m.quar[p]
		if !summed || quarantined || off <= ps && end >= pe {
			continue
		}
		if img, err := m.preimageLocked(p, nil); err == nil {
			clear(img[max(off, ps)-ps : min(end, pe)-ps])
			resums[p] = pageSum(img)
		} else if !errors.Is(err, ErrQuarantined) {
			return err
		}
	}
	if err := m.legs[0].Trim(off, length); err != nil {
		return err
	}
	if err := m.legs[1].Trim(off, length); err != nil {
		return err
	}
	for p := off / MirrorPageSize; p*MirrorPageSize < end; p++ {
		delete(m.sums, p)
		if off <= p*MirrorPageSize && end >= (p+1)*MirrorPageSize {
			delete(m.quar, p)
		}
	}
	maps.Copy(m.sums, resums)
	return nil
}

// BusySeconds returns the summed busy time of both legs — mirrored writes
// genuinely occupy two devices.
func (m *Mirror) BusySeconds() float64 {
	return m.legs[0].BusySeconds() + m.legs[1].BusySeconds()
}

// Latency returns the per-I/O latency (both legs share a config).
func (m *Mirror) Latency() float64 { return m.legs[0].Latency() }

// FootprintBytes returns the summed allocated media of both legs — the
// doubled rent the cost model charges for mirroring.
func (m *Mirror) FootprintBytes() int64 {
	return m.legs[0].FootprintBytes() + m.legs[1].FootprintBytes()
}

// HighWater returns the higher of the two legs' high-water marks: a torn
// write that reached only one leg still extends the addressable range,
// exactly as on a bare device.
func (m *Mirror) HighWater() int64 {
	hw := m.legs[0].HighWater()
	if h1 := m.legs[1].HighWater(); h1 > hw {
		hw = h1
	}
	return hw
}

// SetFaultInjector installs the injector on both legs. A shared
// deterministic injector sees the legs' interleaved I/O stream, so an
// injected fault (a flip, a torn write, a crash point) lands on exactly
// one leg's copy of a request — the single-fault scenarios mirroring
// exists to absorb. Use Leg(i).SetFaultInjector for per-leg programs.
func (m *Mirror) SetFaultInjector(fi FaultInjector) {
	m.legs[0].SetFaultInjector(fi)
	m.legs[1].SetFaultInjector(fi)
}

// SetObserver installs the telemetry sink on both legs: obs sees every
// physical attempt, including the mirror's doubled writes and the
// scrubber's verification reads.
func (m *Mirror) SetObserver(o IOObserver) {
	m.legs[0].SetObserver(o)
	m.legs[1].SetObserver(o)
}

// Close stops the scrubber and closes both legs.
func (m *Mirror) Close() error {
	m.StopScrub()
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	err0 := m.legs[0].Close()
	err1 := m.legs[1].Close()
	if err0 != nil {
		return err0
	}
	return err1
}

// ScrubReport summarizes one synchronous scrub pass.
type ScrubReport struct {
	Pages       int // checksummed pages examined
	Repaired    int // pages healed from the intact leg
	Quarantined int // pages found corrupt on both legs
}

// scrubPageList snapshots the checksummed, non-quarantined pages in
// address order.
func (m *Mirror) scrubPageList() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.sums))
	for p := range m.sums {
		if _, q := m.quar[p]; !q {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scrubPage verifies one page on both legs and heals or quarantines it.
// The scrubber charges no CPU (nil charger) — it is background work — but
// its reads still consume device busy time and IOPS, which is what the
// token bucket bounds.
func (m *Mirror) scrubPage(page int64) (repaired, quarantined bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, false
	}
	sum, ok := m.sums[page]
	if !ok {
		return false, false
	}
	if _, q := m.quar[page]; q {
		return false, false
	}
	b0, err0 := m.readLegPageLocked(0, page, nil)
	b1, err1 := m.readLegPageLocked(1, page, nil)
	m.mstats.ScrubReads.Add(2)
	ok0 := err0 == nil && pageSum(b0) == sum
	ok1 := err1 == nil && pageSum(b1) == sum
	switch {
	case ok0 && ok1:
	case ok0:
		if err1 == nil {
			m.legs[1].Stats().ReclassifyRead()
		}
		if m.legs[1].WriteAt(page*MirrorPageSize, b0, nil) == nil {
			m.mstats.ScrubRepairs.Inc()
			repaired = true
		}
	case ok1:
		if err0 == nil {
			m.legs[0].Stats().ReclassifyRead()
		}
		if m.legs[0].WriteAt(page*MirrorPageSize, b1, nil) == nil {
			m.mstats.ScrubRepairs.Inc()
			repaired = true
		}
	default:
		if err0 == nil {
			m.legs[0].Stats().ReclassifyRead()
		}
		if err1 == nil {
			m.legs[1].Stats().ReclassifyRead()
		}
		m.quarantineLocked(page, fmt.Sprintf("scrub: page %d corrupt on both legs", page))
		quarantined = true
	}
	return repaired, quarantined
}

// ScrubOnce runs one full synchronous scrub pass with no rate limiting —
// deterministic tests and recovery paths use it to force latent-error
// detection right now.
func (m *Mirror) ScrubOnce() ScrubReport {
	var r ScrubReport
	for _, p := range m.scrubPageList() {
		rep, q := m.scrubPage(p)
		r.Pages++
		if rep {
			r.Repaired++
		}
		if q {
			r.Quarantined++
		}
	}
	m.mstats.ScrubPasses.Inc()
	return r
}

// StartScrub launches the background scrubber at the given budget in
// pages per (wall-clock) second. Each scrubbed page costs one read per
// leg, so the scrubber's device traffic is bounded by 2*pagesPerSec IOPS.
// The token bucket is a ticker: one page per tick, so a long pass can
// never burst past the budget and an idle mirror spends nothing but the
// tick. Calling StartScrub on a running scrubber or with a non-positive
// rate is a no-op.
func (m *Mirror) StartScrub(pagesPerSec float64) {
	if pagesPerSec <= 0 {
		return
	}
	m.scrubMu.Lock()
	defer m.scrubMu.Unlock()
	if m.scrubStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.scrubStop, m.scrubDone = stop, done
	interval := time.Duration(float64(time.Second) / pagesPerSec)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	go m.scrubLoop(interval, stop, done)
}

func (m *Mirror) scrubLoop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		pages := m.scrubPageList()
		if len(pages) == 0 {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			continue
		}
		for _, p := range pages {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			m.scrubPage(p)
		}
		m.mstats.ScrubPasses.Inc()
	}
}

// StopScrub stops the background scrubber and waits for it to exit. Safe
// to call when no scrubber is running.
func (m *Mirror) StopScrub() {
	m.scrubMu.Lock()
	stop, done := m.scrubStop, m.scrubDone
	m.scrubStop, m.scrubDone = nil, nil
	m.scrubMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
