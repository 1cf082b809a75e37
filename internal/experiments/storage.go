package experiments

import (
	"fmt"
	"math/rand"

	"costperf/internal/btree"
	"costperf/internal/deuteronomy"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// ---------------------------------------------------------------------------
// D4: page-size and utilization model (paper Section 4.1): classic B-tree
// pages average just under 70% utilization of 4K blocks (P_s ≈ 2.7 KB);
// Bw-tree variable-size pages are ~100% utilized when flushed.

// PageModelResult is the D4 experiment output.
type PageModelResult struct {
	Keys                  int
	BTreeUtilization      float64 // content / 4K block
	BTreeAvgPageBytes     float64 // the paper's P_s
	BwStorageUtilization  float64 // content bytes / bytes written per flush
	BwAvgPageContentBytes float64
}

// MeasurePageModel fills both trees with random-order inserts and
// measures fill factors and flushed-page sizes.
func MeasurePageModel(keys int, valueSize int) (*PageModelResult, error) {
	// Classic B-tree.
	bdev := ssd.New(ssd.SamsungSSD)
	bt, err := btree.New(btree.Config{Device: bdev, PoolPages: 1 << 16})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < keys; i++ {
		id := uint64(rng.Int63())
		if err := bt.Insert(workload.Key(id), workload.ValueFor(id, valueSize)); err != nil {
			return nil, err
		}
	}
	util, err := bt.Utilization()
	if err != nil {
		return nil, err
	}
	ps, err := bt.AveragePageBytes()
	if err != nil {
		return nil, err
	}

	// Bw-tree over the log store: flushed bytes vs content bytes.
	s, err := newStack(sim.NewSession(sim.DefaultCosts()), nil)
	if err != nil {
		return nil, err
	}
	rng = rand.New(rand.NewSource(5))
	for i := 0; i < keys; i++ {
		id := uint64(rng.Int63())
		if err := s.Tree.Insert(workload.Key(id), workload.ValueFor(id, valueSize)); err != nil {
			return nil, err
		}
	}
	// Consolidate + flush everything; compare content to written bytes.
	written0 := s.Log.Stats().BytesAppended.Value()
	var content int64
	for _, pid := range s.Tree.Pages() {
		if err := s.Tree.FlushPage(pid); err != nil {
			return nil, err
		}
	}
	content = int64(s.Tree.AveragePageBytes() * float64(len(s.Tree.Pages())))
	written := s.Log.Stats().BytesAppended.Value() - written0

	res := &PageModelResult{
		Keys:                  keys,
		BTreeUtilization:      util,
		BTreeAvgPageBytes:     ps,
		BwAvgPageContentBytes: s.Tree.AveragePageBytes(),
	}
	if written > 0 {
		res.BwStorageUtilization = float64(content) / float64(written)
	}
	return res, nil
}

// String renders the D4 result.
func (r *PageModelResult) String() string {
	return fmt.Sprintf(`D4: page-size model (%d keys)
  classic B-tree: utilization %.3f of 4K blocks (paper ≈ ln2 = 0.69), avg content %.0f B (paper P_s ≈ 2700)
  Bw-tree:        flushed-storage utilization %.3f (paper ≈ 1.0, variable-size pages), avg page content %.0f B
`, r.Keys, r.BTreeUtilization, r.BTreeAvgPageBytes, r.BwStorageUtilization, r.BwAvgPageContentBytes)
}

// ---------------------------------------------------------------------------
// D5: log-structuring shrinks write I/O (paper Section 6.1): large write
// buffers turn many page writes into few device writes, and variable-size
// pages write ~30% fewer bytes than fixed 4K blocks.

// WriteReductionResult is the D5 experiment output.
type WriteReductionResult struct {
	Updates            int
	BTreeDeviceWrites  int64
	BTreeBytesWritten  int64
	BwDeviceWrites     int64
	BwBytesWritten     int64
	WriteIOReduction   float64 // btree writes / bwtree writes
	WriteByteReduction float64 // btree bytes / bwtree bytes
}

// MeasureWriteReduction runs an identical update-heavy workload against a
// classic B-tree (fixed blocks, per-page write-back) and the Bw-tree over
// the log store (batched variable-size flushes).
func MeasureWriteReduction(keys, updates, valueSize int) (*WriteReductionResult, error) {
	// Classic B-tree with a pool small enough to force write-backs.
	bdev := ssd.New(ssd.SamsungSSD)
	bt, err := btree.New(btree.Config{Device: bdev, PoolPages: 64})
	if err != nil {
		return nil, err
	}
	for i := 0; i < keys; i++ {
		if err := bt.Insert(workload.Key(uint64(i)), workload.ValueFor(uint64(i), valueSize)); err != nil {
			return nil, err
		}
	}
	if err := bt.FlushAll(); err != nil {
		return nil, err
	}
	bw0, bb0 := bdev.Stats().Writes.Value(), bdev.Stats().BytesWritten.Value()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < updates; i++ {
		id := uint64(rng.Int63n(int64(keys)))
		if err := bt.Insert(workload.Key(id), workload.ValueFor(id+uint64(i), valueSize)); err != nil {
			return nil, err
		}
	}
	if err := bt.FlushAll(); err != nil {
		return nil, err
	}
	btWrites := bdev.Stats().Writes.Value() - bw0
	btBytes := bdev.Stats().BytesWritten.Value() - bb0

	// Bw-tree over log store.
	s, err := newStack(sim.NewSession(sim.DefaultCosts()), nil)
	if err != nil {
		return nil, err
	}
	if err := load(s, uint64(keys), valueSize); err != nil {
		return nil, err
	}
	dw0, db0 := s.Device.Stats().Writes.Value(), s.Device.Stats().BytesWritten.Value()
	rng = rand.New(rand.NewSource(9))
	for i := 0; i < updates; i++ {
		id := uint64(rng.Int63n(int64(keys)))
		if err := s.Tree.Insert(workload.Key(id), workload.ValueFor(id+uint64(i), valueSize)); err != nil {
			return nil, err
		}
	}
	if err := settle(s); err != nil {
		return nil, err
	}
	bwWrites := s.Device.Stats().Writes.Value() - dw0
	bwBytes := s.Device.Stats().BytesWritten.Value() - db0

	res := &WriteReductionResult{
		Updates:           updates,
		BTreeDeviceWrites: btWrites, BTreeBytesWritten: btBytes,
		BwDeviceWrites: bwWrites, BwBytesWritten: bwBytes,
	}
	if bwWrites > 0 {
		res.WriteIOReduction = float64(btWrites) / float64(bwWrites)
	}
	if bwBytes > 0 {
		res.WriteByteReduction = float64(btBytes) / float64(bwBytes)
	}
	return res, nil
}

// String renders the D5 result.
func (r *WriteReductionResult) String() string {
	return fmt.Sprintf(`D5: write I/O reduction via log-structuring (%d updates)
  classic B-tree: %d device writes, %d bytes
  Bw-tree/LLAMA:  %d device writes, %d bytes
  reduction: %.1fx fewer write I/Os, %.2fx fewer bytes (paper: large buffers + ~30%% from variable pages)
`, r.Updates, r.BTreeDeviceWrites, r.BTreeBytesWritten, r.BwDeviceWrites, r.BwBytesWritten,
		r.WriteIOReduction, r.WriteByteReduction)
}

// ---------------------------------------------------------------------------
// D6: blind updates avoid read I/O (paper Section 6.2).

// BlindUpdateResult is the D6 experiment output.
type BlindUpdateResult struct {
	Writes            int
	ReadIOsBlind      int64
	ReadIOsReadModify int64
}

// MeasureBlindUpdates evicts the whole tree and compares device read I/Os
// for blind writes versus read-modify-writes over the same keys.
func MeasureBlindUpdates(keys, writes int) (*BlindUpdateResult, error) {
	s, err := newStack(sim.NewSession(sim.DefaultCosts()), nil)
	if err != nil {
		return nil, err
	}
	if err := load(s, uint64(keys), 64); err != nil {
		return nil, err
	}
	if err := evictAll(s, false); err != nil {
		return nil, err
	}
	r0 := s.Device.Stats().Reads.Value()
	for i := 0; i < writes; i++ {
		id := uint64(i) % uint64(keys)
		if err := s.Tree.BlindWrite(workload.Key(id), workload.ValueFor(id+1, 64)); err != nil {
			return nil, err
		}
	}
	blindReads := s.Device.Stats().Reads.Value() - r0

	if err := evictAll(s, false); err != nil {
		return nil, err
	}
	r1 := s.Device.Stats().Reads.Value()
	for i := 0; i < writes; i++ {
		id := uint64(i) % uint64(keys)
		// Read-modify-write: the traditional path.
		if _, _, err := s.Tree.Get(workload.Key(id)); err != nil {
			return nil, err
		}
		if err := s.Tree.Insert(workload.Key(id), workload.ValueFor(id+2, 64)); err != nil {
			return nil, err
		}
	}
	rmwReads := s.Device.Stats().Reads.Value() - r1

	return &BlindUpdateResult{Writes: writes, ReadIOsBlind: blindReads, ReadIOsReadModify: rmwReads}, nil
}

// String renders the D6 result.
func (r *BlindUpdateResult) String() string {
	return fmt.Sprintf(`D6: blind updates avoid read I/O (%d writes to evicted pages)
  blind updates:      %d read I/Os (paper: 0 — no base page needed)
  read-modify-write:  %d read I/Os
`, r.Writes, r.ReadIOsBlind, r.ReadIOsReadModify)
}

// ---------------------------------------------------------------------------
// D8: the log-GC trade-off (paper Section 6.1): delaying GC increases
// reclaimed bytes per collected segment.

// GCTradeoffResult is the D8 experiment output.
type GCTradeoffResult struct {
	EagerRuns        int64
	EagerReclaimed   int64
	EagerRelocated   int64
	DelayedRuns      int64
	DelayedReclaimed int64
	DelayedRelocated int64
	EagerPerRun      float64
	DelayedPerRun    float64
}

// MeasureGCTradeoff runs the same update workload twice: once collecting
// after every flush wave (eager) and once collecting only at the end
// (delayed), comparing reclaimed bytes per GC run.
func MeasureGCTradeoff(keys, rounds int) (*GCTradeoffResult, error) {
	run := func(eager bool) (*deuteronomy.Stack, error) {
		s, err := newStack(sim.NewSession(sim.DefaultCosts()), nil)
		if err != nil {
			return nil, err
		}
		if err := load(s, uint64(keys), 200); err != nil {
			return nil, err
		}
		for round := 0; round < rounds; round++ {
			for i := 0; i < keys; i += 3 {
				id := uint64(i)
				if err := s.Tree.Insert(workload.Key(id), workload.ValueFor(id+uint64(round), 200)); err != nil {
					return nil, err
				}
			}
			if err := settle(s); err != nil {
				return nil, err
			}
			if eager {
				if _, err := s.Log.CollectSegment(s.Tree.RelocateForGC, nil); err != nil {
					return nil, err
				}
			}
		}
		if !eager {
			for i := 0; i < rounds; i++ {
				if _, err := s.Log.CollectSegment(s.Tree.RelocateForGC, nil); err != nil {
					return nil, err
				}
			}
		}
		return s, nil
	}
	eager, err := run(true)
	if err != nil {
		return nil, err
	}
	delayed, err := run(false)
	if err != nil {
		return nil, err
	}
	res := &GCTradeoffResult{
		EagerRuns:        eager.Log.Stats().GCRuns.Value(),
		EagerReclaimed:   eager.Log.Stats().GCReclaimed.Value(),
		EagerRelocated:   eager.Log.Stats().GCRelocated.Value(),
		DelayedRuns:      delayed.Log.Stats().GCRuns.Value(),
		DelayedReclaimed: delayed.Log.Stats().GCReclaimed.Value(),
		DelayedRelocated: delayed.Log.Stats().GCRelocated.Value(),
	}
	if res.EagerRuns > 0 {
		res.EagerPerRun = float64(res.EagerReclaimed) / float64(res.EagerRuns)
	}
	if res.DelayedRuns > 0 {
		res.DelayedPerRun = float64(res.DelayedReclaimed) / float64(res.DelayedRuns)
	}
	return res, nil
}

// String renders the D8 result.
func (r *GCTradeoffResult) String() string {
	return fmt.Sprintf(`D8: log GC trade-off (Section 6.1)
  eager:   %d runs, %d B reclaimed (%.0f B/run), %d B relocated
  delayed: %d runs, %d B reclaimed (%.0f B/run), %d B relocated
  (paper: delaying GC increases reclaimed space per segment)
`, r.EagerRuns, r.EagerReclaimed, r.EagerPerRun, r.EagerRelocated,
		r.DelayedRuns, r.DelayedReclaimed, r.DelayedPerRun, r.DelayedRelocated)
}
