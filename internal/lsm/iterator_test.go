package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"costperf/internal/fault"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// drain adds the cursors to it, newest first, and pulls it dry.
func drain(t *testing.T, it *mergeIter, srcs ...cursor) []kv {
	t.Helper()
	for _, c := range srcs {
		it.add(c)
	}
	var out []kv
	for {
		e, ok, err := it.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestMergeIterNewestWins(t *testing.T) {
	tr, dev := newTree(t)
	newer := []kv{{key: []byte("a"), val: []byte("new")}, {key: []byte("c"), tombstone: true}}
	older := []kv{{key: []byte("a"), val: []byte("old")}, {key: []byte("b"), val: []byte("b1")}, {key: []byte("c"), val: []byte("c1")}}
	nt, off, err := writeTable(dev, 1, 0, newer, 0)
	if err != nil {
		t.Fatal(err)
	}
	ot, _, err := writeTable(dev, 2, 0, older, off)
	if err != nil {
		t.Fatal(err)
	}
	cursors := func() (cursor, cursor) {
		return tr.newTableCursor([]*sstable{nt}, nil, 0, nil, nil), tr.newTableCursor([]*sstable{ot}, nil, 0, nil, nil)
	}
	n, o := cursors()
	out := drain(t, &mergeIter{}, n, o)
	if len(out) != 3 {
		t.Fatalf("merged %d entries, want 3", len(out))
	}
	if string(out[0].val) != "new" {
		t.Fatalf("a = %q, want newest", out[0].val)
	}
	if string(out[1].key) != "b" || !out[2].tombstone {
		t.Fatalf("merged %+v: want b, then c's tombstone kept without dropTombs", out[1:])
	}
	n, o = cursors()
	out = drain(t, &mergeIter{dropTombs: true}, n, o)
	if len(out) != 2 {
		t.Fatalf("dropTombs merged %d entries, want 2", len(out))
	}
}

// scanRows collects a scan's rows as "key=value" strings.
func scanRows(t *testing.T, tr *Tree, start []byte, limit int) []string {
	t.Helper()
	var rows []string
	if err := tr.Scan(start, limit, func(k, v []byte) bool {
		rows = append(rows, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestScanMatchesSortedMapOracle mixes puts, deletes and bounded and
// unbounded scans over a tree small enough to spread over four levels, and
// checks every scan against a sorted map.
func TestScanMatchesSortedMapOracle(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tr, err := New(Config{Device: ssd.New(ssd.SamsungSSD), MemtableBytes: 2 << 10, L0Tables: 2, LevelBytesBase: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		check := func(limit int) {
			start := fmt.Sprintf("key-%05d", rng.Intn(2100)-50)
			var want []string
			for k, v := range model {
				if k >= start {
					want = append(want, k+"="+v)
				}
			}
			sort.Strings(want)
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			got := scanRows(t, tr, []byte(start), limit)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d: scan(%s, %d) = %d rows %v, want %d rows %v", seed, start, limit, len(got), got, len(want), want)
			}
		}
		for op := 0; op < 12000; op++ {
			k := fmt.Sprintf("key-%05d", rng.Intn(2000))
			switch r := rng.Intn(100); {
			case r < 60:
				v := fmt.Sprintf("v%d-%0*d", op, rng.Intn(40), 0)
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			case r < 85:
				// Deletes come in runs, so scans meet long tombstone stretches.
				id := rng.Intn(2000)
				for j := 0; j < 1+rng.Intn(30); j++ {
					k := fmt.Sprintf("key-%05d", id+j)
					if err := tr.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				}
			case r < 99:
				check(1 + rng.Intn(40))
			default:
				check(0)
			}
		}
		if levelsInUse(tr) < 3 {
			t.Fatalf("seed %d: tables per level %v: want three or more levels in use", seed, tr.TableCount())
		}
		check(0)
	}
}

// levelsInUse counts the levels that hold a table.
func levelsInUse(tr *Tree) int {
	levels := 0
	for _, n := range tr.TableCount() {
		if n > 0 {
			levels++
		}
	}
	return levels
}

// pushDown flushes the memtable and compacts all of L0 into L1.
func pushDown(tb testing.TB, tr *Tree) {
	tb.Helper()
	if err := tr.Flush(); err != nil {
		tb.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.levels[0]) == 0 {
		return
	}
	if err := tr.compactLocked(0, nil); err != nil {
		tb.Fatal(err)
	}
}

// boundaryTree holds keys 0..999 in several L1 tables and nothing else.
func boundaryTree(t *testing.T) (*Tree, *ssd.Device) {
	t.Helper()
	dev := ssd.New(ssd.SamsungSSD)
	tr, err := New(Config{Device: dev, MemtableBytes: 8 << 10, L0Tables: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		if err := tr.Put(workload.Key(i), workload.ValueFor(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	pushDown(t, tr)
	if tc := tr.TableCount(); tc[0] != 0 || tc[1] < 3 {
		t.Fatalf("tables per level %v: want several L1 tables only", tc)
	}
	return tr, dev
}

// scanIDs returns the key ids a scan visits and the device reads it made.
func scanIDs(t *testing.T, tr *Tree, dev *ssd.Device, start []byte, limit int) (ids []uint64, reads int64) {
	t.Helper()
	before := dev.Stats().Reads.Value()
	if err := tr.Scan(start, limit, func(k, v []byte) bool {
		id := workload.KeyID(k)
		if !bytes.Equal(v, workload.ValueFor(id, 64)) {
			t.Fatalf("key %d carries another key's value", id)
		}
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids, dev.Stats().Reads.Value() - before
}

func wantRange(t *testing.T, got []uint64, first, n uint64) {
	t.Helper()
	if uint64(len(got)) != n {
		t.Fatalf("scan visited %d keys %v, want %d from %d", len(got), got, n, first)
	}
	for i, id := range got {
		if id != first+uint64(i) {
			t.Fatalf("scan visited %v, want %d consecutive keys from %d", got, n, first)
		}
	}
}

func TestScanTombstoneRunForcesRefill(t *testing.T) {
	tr, dev := boundaryTree(t)
	// 90 tombstones in L0 shadow L1's keys 10..99; a limit-20 scan from 0
	// reads ahead 20 records per fetch, so it has to go back for more.
	for i := uint64(10); i < 100; i++ {
		if err := tr.Delete(workload.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got, reads := scanIDs(t, tr, dev, workload.Key(0), 20)
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan across the tombstone run = %v, want %v", got, want)
	}
	// Two sources; the tombstone table alone needs 90/20 fetches.
	if reads < 5 || reads > 8 {
		t.Fatalf("scan made %d device reads, want refills (5..8)", reads)
	}
}

func TestScanCrossesLevelTableBoundary(t *testing.T) {
	tr, dev := boundaryTree(t)
	last := workload.KeyID(tr.levels[1][0].max)
	got, reads := scanIDs(t, tr, dev, workload.Key(last-4), 20)
	wantRange(t, got, last-4, 20)
	if reads != 2 {
		t.Fatalf("scan over one table boundary made %d reads, want 2", reads)
	}
}

func TestScanEdges(t *testing.T) {
	tr, dev := boundaryTree(t)
	got, _ := scanIDs(t, tr, dev, nil, 5)
	wantRange(t, got, 0, 5)
	got, _ = scanIDs(t, tr, dev, []byte{}, 5)
	wantRange(t, got, 0, 5)
	got, reads := scanIDs(t, tr, dev, workload.Key(5000), 5)
	if len(got) != 0 || reads != 0 {
		t.Fatalf("scan above the last key visited %v with %d reads, want nothing", got, reads)
	}
	got, _ = scanIDs(t, tr, dev, workload.Key(990), 50)
	wantRange(t, got, 990, 10)
	got, _ = scanIDs(t, tr, dev, workload.Key(0), 0) // limit 0: unlimited
	wantRange(t, got, 0, 1000)
	got, _ = scanIDs(t, tr, dev, workload.Key(400), -1)
	wantRange(t, got, 400, 600)
	got, _ = scanIDs(t, tr, dev, workload.Key(400), math.MaxInt)
	wantRange(t, got, 400, 600)

	// fn returning false ends the scan, and the reads with it.
	before := dev.Stats().Reads.Value()
	calls := 0
	if err := tr.Scan(nil, 0, func(_, _ []byte) bool { calls++; return calls < 3 }); err != nil {
		t.Fatal(err)
	}
	if reads := dev.Stats().Reads.Value() - before; calls != 3 || reads != 1 {
		t.Fatalf("stopped scan: %d calls, %d reads; want 3 calls, 1 read", calls, reads)
	}
}

func TestScanRowsStayValidAfterScan(t *testing.T) {
	// Rows alias fetched buffers; a callback may keep them.
	tr, _ := boundaryTree(t)
	var keys, vals [][]byte
	if err := tr.Scan(nil, 0, func(k, v []byte) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i += 10 { // churn the tree and the heap
		if err := tr.Put(workload.Key(i), []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}
	pushDown(t, tr)
	for i := range keys {
		id := uint64(i)
		if workload.KeyID(keys[i]) != id || !bytes.Equal(vals[i], workload.ValueFor(id, 64)) {
			t.Fatalf("retained row %d changed after the scan", i)
		}
	}
}

func TestScansConcurrentWithWriters(t *testing.T) {
	// Even ids are fixed; writers put and delete odd ids only. Every scan
	// must be ordered and hold every even id of its range, whatever flushes
	// and compactions run beside it.
	tr, _ := newTree(t)
	const n = 2000
	for i := uint64(0); i < n; i += 2 {
		if err := tr.Put(workload.Key(i), workload.ValueFor(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var writers, scanners sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				id := uint64(rng.Intn(n/2))*2 + 1
				var err error
				if rng.Intn(3) == 0 {
					err = tr.Delete(workload.Key(id))
				} else {
					err = tr.Put(workload.Key(id), workload.ValueFor(id, 32))
				}
				if err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 3; s++ {
		scanners.Add(1)
		go func(s int) {
			defer scanners.Done()
			rng := rand.New(rand.NewSource(int64(100 + s)))
			for !stop.Load() {
				start := uint64(rng.Intn(n))
				limit := rng.Intn(60) // 0: to the end
				nextEven := (start + 1) / 2 * 2
				prev, rows := int64(-1), 0
				err := tr.Scan(workload.Key(start), limit, func(k, v []byte) bool {
					id := workload.KeyID(k)
					rows++
					if int64(id) <= prev || id < start || !bytes.Equal(v, workload.ValueFor(id, 32)) {
						t.Errorf("scan from %d: bad row %d after %d", start, id, prev)
						return false
					}
					if id%2 == 0 {
						if id != nextEven {
							t.Errorf("scan from %d: fixed key %d missing (got %d)", start, nextEven, id)
							return false
						}
						nextEven += 2
					}
					prev = int64(id)
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if (limit == 0 || rows < limit) && nextEven < n {
					t.Errorf("scan from %d (limit %d) ended after %d rows before fixed key %d", start, limit, rows, nextEven)
					return
				}
			}
		}(s)
	}
	writers.Wait()
	stop.Store(true)
	scanners.Wait()
}

// TestBoundedScanIOIndependentOfTreeSize is the O(limit) claim: a 50-row
// scan costs about the same device work over 2 K keys as over 40 K.
func TestBoundedScanIOIndependentOfTreeSize(t *testing.T) {
	const limit, hot = 50, 2_000
	measure := func(keys int) (bytesPerScan, readsPerScan float64) {
		dev := ssd.New(ssd.SamsungSSD)
		tr, err := New(Config{Device: dev, MemtableBytes: 16 << 10, L0Tables: 4, LevelBytesBase: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		// Load, then overwrite the first hot keys at random, so that several
		// levels hold versions of the keys the scans cover.
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < keys+hot; i++ {
			id := uint64(i)
			if i >= keys {
				id = uint64(rng.Intn(hot))
			}
			if err := tr.Put(workload.Key(id), workload.ValueFor(id, 64)); err != nil {
				t.Fatal(err)
			}
		}
		const scans = 40
		var bytesRead, reads int64
		for s := 0; s < scans; s++ {
			first := uint64(s * (hot - limit) / scans)
			b0, r0 := dev.Stats().BytesRead.Value(), dev.Stats().Reads.Value()
			got, _ := scanIDs(t, tr, dev, workload.Key(first), limit)
			wantRange(t, got, first, limit)
			b, r := dev.Stats().BytesRead.Value()-b0, dev.Stats().Reads.Value()-r0
			bytesRead, reads = bytesRead+b, reads+r

			// No deletes, so no refills: one fetch per source, plus one per
			// table boundary the scan crosses in a level.
			tr.mu.RLock()
			bound := int64(len(tr.levels[0]))
			lo, hi := workload.Key(first), workload.Key(first+limit-1)
			for _, tables := range tr.levels[1:] {
				for _, tb := range tables {
					if tb.overlaps(lo, hi) {
						bound++
					}
				}
			}
			tr.mu.RUnlock()
			if r > bound {
				t.Fatalf("%d keys: scan from %d made %d reads, more than its %d sources and table crossings", keys, first, r, bound)
			}
			if maxBytes := bound * limit * 128; b > maxBytes {
				t.Fatalf("%d keys: scan from %d read %d bytes, want <= %d", keys, first, b, maxBytes)
			}
		}
		return float64(bytesRead) / scans, float64(reads) / scans
	}
	smallB, smallR := measure(hot)
	largeB, largeR := measure(40_000)
	t.Logf("limit-%d scan: %.0f B, %.1f reads at 2K keys; %.0f B, %.1f reads at 40K keys", limit, smallB, smallR, largeB, largeR)
	if largeB >= 2*smallB || smallB >= 2*largeB {
		t.Fatalf("device bytes per scan: %.0f at 2K keys, %.0f at 40K: want within 2x", smallB, largeB)
	}
	if largeR >= 2*smallR || smallR >= 2*largeR {
		t.Fatalf("device reads per scan: %.1f at 2K keys, %.1f at 40K: want within 2x", smallR, largeR)
	}
}

func TestScanCancelledBeforeNextFetch(t *testing.T) {
	tr, dev := boundaryTree(t)
	last := workload.KeyID(tr.levels[1][0].max)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := dev.Stats().Reads.Value()
	rows := 0
	err := tr.ScanCtx(ctx, workload.Key(last-4), 20, func(_, _ []byte) bool {
		rows++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan = %v, want context.Canceled", err)
	}
	// The first fetch's five rows are served; the next table is never read.
	if reads := dev.Stats().Reads.Value() - before; rows != 5 || reads != 1 {
		t.Fatalf("cancelled scan: %d rows, %d reads; want 5 rows, 1 read", rows, reads)
	}
}

func TestScanRetriesTransientFaultOnSecondFetch(t *testing.T) {
	tr, dev := boundaryTree(t)
	last := workload.KeyID(tr.levels[1][0].max)
	inj := fault.NewInjector(1)
	inj.FailRead(2, fault.ClassTransient)
	dev.SetFaultInjector(inj)
	got, _ := scanIDs(t, tr, dev, workload.Key(last-4), 20)
	wantRange(t, got, last-4, 20)
	if tr.Stats().Retry.Absorbed.Value() != 1 || dev.Stats().FailedReads.Value() != 1 {
		t.Fatalf("absorbed %d faults, %d failed reads; want 1 and 1",
			tr.Stats().Retry.Absorbed.Value(), dev.Stats().FailedReads.Value())
	}
}

func TestScanDetectsBitFlipInFetchedRecord(t *testing.T) {
	tr, dev := boundaryTree(t)
	inj := fault.NewInjector(1)
	// The third record of the fetch: two rows are served before it.
	inj.FlipBitOnRead(1, int64(tr.levels[1][0].recStart(2)+recordCRCSize+2)*8)
	dev.SetFaultInjector(inj)
	before := dev.Stats().Reads.Value()
	rows := 0
	err := tr.Scan(nil, 10, func(_, _ []byte) bool { rows++; return true })
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, fault.ErrCorrupt) {
		t.Fatalf("scan over a flipped bit = %v, want ErrCorrupt", err)
	}
	if rows != 2 {
		t.Fatalf("scan served %d rows before the corrupt record, want 2", rows)
	}
	// The transfer completed but failed verification: a failed read.
	if reads, failed := dev.Stats().Reads.Value()-before, dev.Stats().FailedReads.Value(); reads != 0 || failed != 1 {
		t.Fatalf("corrupt fetch counted as %d reads, %d failed reads; want 0 and 1", reads, failed)
	}
}
