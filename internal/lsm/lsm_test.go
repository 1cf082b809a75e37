package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

func newTree(t *testing.T) (*Tree, *ssd.Device) {
	t.Helper()
	dev := ssd.New(ssd.SamsungSSD)
	tr, err := New(Config{
		Device:         dev,
		MemtableBytes:  8 << 10, // small to force flushes/compactions
		L0Tables:       3,
		LevelBytesBase: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, dev
}

func TestMemtableBasics(t *testing.T) {
	m := newMemtable()
	m.put([]byte("b"), []byte("2"), false, nil)
	m.put([]byte("a"), []byte("1"), false, nil)
	m.put([]byte("c"), []byte("3"), false, nil)
	if v, tomb, found := m.get([]byte("b"), nil); !found || tomb || string(v) != "2" {
		t.Fatalf("get b = %q,%v,%v", v, tomb, found)
	}
	if _, _, found := m.get([]byte("zz"), nil); found {
		t.Fatal("found absent key")
	}
	// Ordered iteration.
	var keys []string
	for e := m.first(); e != nil; e = e.next[0] {
		keys = append(keys, string(e.key))
	}
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("order = %v", keys)
	}
	// Overwrite and tombstone.
	m.put([]byte("a"), []byte("1v2"), false, nil)
	m.put([]byte("b"), nil, true, nil)
	if v, _, _ := m.get([]byte("a"), nil); string(v) != "1v2" {
		t.Fatal("overwrite failed")
	}
	if _, tomb, found := m.get([]byte("b"), nil); !found || !tomb {
		t.Fatal("tombstone lost")
	}
	if m.count != 3 {
		t.Fatalf("count = %d, want 3", m.count)
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add(bloomHashes(workload.Key(uint64(i))))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain(bloomHashes(workload.Key(uint64(i)))) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	fp := 0
	for i := 10000; i < 20000; i++ {
		if b.mayContain(bloomHashes(workload.Key(uint64(i)))) {
			fp++
		}
	}
	if rate := float64(fp) / 10000; rate > 0.05 {
		t.Fatalf("false positive rate %v too high", rate)
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	tr, dev := newTree(t)
	entries := []kv{
		{key: []byte("a"), val: []byte("1")},
		{key: []byte("b"), val: nil, tombstone: true},
		{key: []byte("c"), val: bytes.Repeat([]byte("x"), 500)},
	}
	tbl, next, err := writeTable(dev, 1, 0, entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != tbl.dataLen {
		t.Fatalf("next offset %d != dataLen %d", next, tbl.dataLen)
	}
	if string(tbl.min) != "a" || string(tbl.max) != "c" {
		t.Fatalf("key range [%q, %q]", tbl.min, tbl.max)
	}
	get := func(key string) (kv, bool, error) {
		var sp obs.Span
		h1, h2 := bloomHashes([]byte(key))
		return tr.tableGet(tbl, []byte(key), h1, h2, nil, &sp)
	}
	for _, e := range entries {
		got, found, err := get(string(e.key))
		if err != nil || !found {
			t.Fatalf("get %q: %v %v", e.key, found, err)
		}
		if got.tombstone != e.tombstone || !bytes.Equal(got.val, e.val) {
			t.Fatalf("get %q = %+v", e.key, got)
		}
	}
	if _, found, _ := get("zz"); found {
		t.Fatal("found absent key")
	}
	// An unbounded cursor reads the whole table in one I/O.
	before := dev.Stats().Reads.Value()
	all := drain(t, &mergeIter{}, tr.newTableCursor([]*sstable{tbl}, nil, 0, nil, nil))
	if len(all) != 3 || !all[1].tombstone || string(all[2].key) != "c" {
		t.Fatalf("cursor over the table = %+v", all)
	}
	if got := dev.Stats().Reads.Value() - before; got != 1 {
		t.Fatalf("whole-table cursor issued %d reads, want 1", got)
	}
}

// TestRecordFramingUnchanged pins the on-device record bytes to what the
// bytes.Buffer encoder this tree started with produced, so tables written
// before appendRecord replaced it still open.
func TestRecordFramingUnchanged(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i)
	}
	for _, c := range []struct {
		e      kv
		prefix string // hex of the record, or of its first bytes
	}{
		{kv{key: []byte("key-00042"), val: []byte("some value")}, "cc2e815f00096b65792d30303034320a736f6d652076616c7565"},
		{kv{key: []byte("gone"), tombstone: true}, "b21ea31c0104676f6e6500"},
		{kv{key: []byte("k"), val: long}, "6aa6cf1f00016bac02000102"},
	} {
		rec := appendRecord(nil, c.e)
		if got := fmt.Sprintf("%x", rec); !strings.HasPrefix(got, c.prefix) || len(rec) != recordSize(c.e) {
			t.Fatalf("record for %q = %s (%d bytes), want %s... in %d bytes", c.e.key, got, len(rec), c.prefix, recordSize(c.e))
		}
		e, n, err := parseRecord(rec)
		if err != nil || n != len(rec) || !bytes.Equal(e.key, c.e.key) || !bytes.Equal(e.val, c.e.val) || e.tombstone != c.e.tombstone {
			t.Fatalf("record for %q decodes as %+v, %d, %v", c.e.key, e, n, err)
		}
	}
}

func TestPutGetThroughFlushesAndCompactions(t *testing.T) {
	tr, _ := newTree(t)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Put(workload.Key(uint64(i)), workload.ValueFor(uint64(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().Flushes.Value() == 0 {
		t.Fatal("no memtable flushes")
	}
	if tr.Stats().Compactions.Value() == 0 {
		t.Fatal("no compactions")
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(workload.Key(uint64(i)))
		if err != nil || !ok {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, workload.ValueFor(uint64(i), 64)) {
			t.Fatalf("key %d corrupt", i)
		}
	}
	// Levels 1+ must be range-disjoint.
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	for lvl := 1; lvl < len(tr.levels); lvl++ {
		tables := tr.levels[lvl]
		for i := 1; i < len(tables); i++ {
			if bytes.Compare(tables[i-1].max, tables[i].min) >= 0 {
				t.Fatalf("level %d tables overlap", lvl)
			}
		}
	}
}

func TestOverwritesAndDeletesAcrossLevels(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 2000; i++ {
		if err := tr.Put(workload.Key(uint64(i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a subset and delete another after data reached deep levels.
	for i := 0; i < 2000; i += 4 {
		if err := tr.Put(workload.Key(uint64(i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 2000; i += 4 {
		if err := tr.Delete(workload.Key(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		v, ok, err := tr.Get(workload.Key(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 0:
			if !ok || string(v) != "v2" {
				t.Fatalf("key %d = %q,%v want v2", i, v, ok)
			}
		case 1:
			if ok {
				t.Fatalf("deleted key %d resurrected", i)
			}
		default:
			if !ok || string(v) != "v1" {
				t.Fatalf("key %d = %q,%v want v1", i, v, ok)
			}
		}
	}
}

func TestScanMergedOrder(t *testing.T) {
	tr, _ := newTree(t)
	const n = 3000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if err := tr.Put(workload.Key(uint64(i)), workload.ValueFor(uint64(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 10 {
		if err := tr.Delete(workload.Key(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var prev []byte
	count := 0
	if err := tr.Scan(nil, 0, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatal("scan out of order")
		}
		if workload.KeyID(k)%10 == 0 {
			t.Fatalf("deleted key %d in scan", workload.KeyID(k))
		}
		prev = append(prev[:0], k...)
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := n - n/10
	if count != want {
		t.Fatalf("scan visited %d, want %d", count, want)
	}
	// Bounded scan.
	var got []uint64
	if err := tr.Scan(workload.Key(101), 4, func(k, _ []byte) bool {
		got = append(got, workload.KeyID(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 101 {
		t.Fatalf("bounded scan = %v", got)
	}
}

func TestBlindWritesNoReadIO(t *testing.T) {
	// LSM updates never read the device (paper Section 6.2), except when a
	// flush triggers compaction.
	tr, dev := newTree(t)
	for i := 0; i < 200; i++ {
		if err := tr.Put(workload.Key(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Under the flush threshold: zero reads.
	if dev.Stats().Reads.Value() != 0 {
		t.Fatalf("puts issued %d reads", dev.Stats().Reads.Value())
	}
}

func TestLargeWritesOnly(t *testing.T) {
	// All device writes are whole tables (log-structuring).
	tr, dev := newTree(t)
	for i := 0; i < 3000; i++ {
		if err := tr.Put(workload.Key(uint64(i)), workload.ValueFor(uint64(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	w := dev.Stats().Writes.Value()
	if w == 0 {
		t.Fatal("no writes")
	}
	if avg := dev.Stats().BytesWritten.Value() / w; avg < 1024 {
		t.Fatalf("average device write = %d bytes; LSM writes should be large", avg)
	}
}

func TestBloomSkipsColdTables(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 3000; i++ {
		if err := tr.Put(workload.Key(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Misses on absent keys should mostly be answered by blooms.
	before := tr.Stats().TableReads.Value()
	for i := 100000; i < 100500; i++ {
		if _, ok, err := tr.Get(workload.Key(uint64(i))); err != nil || ok {
			t.Fatalf("absent key found: %v %v", ok, err)
		}
	}
	reads := tr.Stats().TableReads.Value() - before
	if tr.Stats().BloomSkips.Value() == 0 {
		t.Fatal("bloom filters never consulted")
	}
	if reads > 100 {
		t.Fatalf("%d table reads for 500 absent keys; blooms should skip most", reads)
	}
}

func TestCostAccountingColdVsWarm(t *testing.T) {
	sess := sim.NewSession(sim.DefaultCosts())
	dev := ssd.New(ssd.SamsungSSD)
	tr, err := New(Config{Device: dev, MemtableBytes: 8 << 10, L0Tables: 3,
		LevelBytesBase: 64 << 10, Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Put(workload.Key(uint64(i)), workload.ValueFor(uint64(i), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sess.Tracker().Reset()
	for i := 0; i < 500; i++ {
		if _, _, err := tr.Get(workload.Key(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	tk := sess.Tracker()
	if tk.Ops(sim.OpSS) == 0 {
		t.Fatal("cold gets recorded no SS operations")
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 1000; i++ {
		if err := tr.Put(workload.Key(uint64(i)), []byte("init")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				id := uint64(rng.Intn(1000))
				switch rng.Intn(3) {
				case 0:
					if err := tr.Put(workload.Key(id), []byte(fmt.Sprintf("w%d", w))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 1:
					if _, _, err := tr.Get(workload.Key(id)); err != nil {
						t.Errorf("get: %v", err)
						return
					}
				case 2:
					if err := tr.Scan(workload.Key(id), 5, func(_, _ []byte) bool { return true }); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestOrderedMapEquivalence(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16
		Val  uint16
	}
	f := func(ops []op) bool {
		dev := ssd.New(ssd.SamsungSSD)
		tr, err := New(Config{Device: dev, MemtableBytes: 2 << 10, L0Tables: 2, LevelBytesBase: 8 << 10})
		if err != nil {
			return false
		}
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%05d", o.Key%300)
			v := fmt.Sprintf("val-%d", o.Val)
			switch o.Kind % 3 {
			case 0:
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
				model[k] = v
			case 1:
				if err := tr.Delete([]byte(k)); err != nil {
					return false
				}
				delete(model, k)
			case 2:
				got, ok, err := tr.Get([]byte(k))
				if err != nil {
					return false
				}
				want, wok := model[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			}
		}
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		okAll := true
		err = tr.Scan(nil, 0, func(k, v []byte) bool {
			if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
				okAll = false
				return false
			}
			i++
			return true
		})
		return err == nil && okAll && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil device accepted")
	}
}

// TestSteadyOverwriteKeepsDeviceFootprintBounded: compaction trims every
// table it replaces, and neighbouring tables share device chunks, so the
// device must release a chunk once both neighbours are gone. Otherwise the
// footprint grows with every put while the live tables stay the same size.
func TestSteadyOverwriteKeepsDeviceFootprintBounded(t *testing.T) {
	dev := ssd.New(ssd.SamsungSSD)
	tr, err := New(Config{Device: dev}) // default tables span several device chunks
	if err != nil {
		t.Fatal(err)
	}
	const keys, rounds = 10_000, 20
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < keys*rounds; i++ {
		id := uint64(rng.Intn(keys))
		if err := tr.Put(workload.Key(id), workload.ValueFor(id, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().Compactions.Value() < 10 {
		t.Fatalf("only %d compactions: not a steady state", tr.Stats().Compactions.Value())
	}
	live, footprint := tr.DiskBytes(), dev.FootprintBytes()
	if bound := 3*live + tablesBase; footprint > bound {
		t.Fatalf("device footprint %d for %d bytes of live tables: want <= %d", footprint, live, bound)
	}
}
