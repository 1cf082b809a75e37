package lsm

import (
	"math/rand"
	"testing"

	"costperf/internal/ssd"
	"costperf/internal/workload"
)

func benchLSM(b *testing.B) *Tree {
	b.Helper()
	tr, err := New(Config{Device: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkPut(b *testing.B) {
	tr := benchLSM(b)
	val := workload.ValueFor(1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(workload.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetAcrossLevels(b *testing.B) {
	tr := benchLSM(b)
	const keys = 50000
	for i := uint64(0); i < keys; i++ {
		if err := tr.Put(workload.Key(i), workload.ValueFor(i, 100)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Get(workload.Key(uint64(i) % keys)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetAbsentViaBlooms(b *testing.B) {
	tr := benchLSM(b)
	const keys = 50000
	for i := uint64(0); i < keys; i++ {
		if err := tr.Put(workload.Key(i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := tr.Get(workload.Key(uint64(i) + 10*keys)); err != nil || ok {
			b.Fatal("absent key found")
		}
	}
}

func BenchmarkMemtablePut(b *testing.B) {
	m := newMemtable()
	val := []byte("value-payload-100bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.put(workload.Key(uint64(i)), val, false, nil)
	}
}

// benchScanTree loads keys in order and then overwrites at least as many at
// random, so that L0, L1 and L2 all hold versions of every key range. It returns
// the tree and its device, whose read bytes the benchmarks report.
func benchScanTree(b *testing.B, keys int) (*Tree, *ssd.Device) {
	b.Helper()
	dev := ssd.New(ssd.SamsungSSD)
	tr, err := New(Config{Device: dev})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2*keys || tr.TableCount()[0] < 2; i++ {
		id := uint64(i)
		if i >= keys {
			id = uint64(rng.Intn(keys))
		}
		if err := tr.Put(workload.Key(id), workload.ValueFor(id, 100)); err != nil {
			b.Fatal(err)
		}
	}
	if levelsInUse(tr) < 3 {
		b.Fatalf("tables per level %v: want three levels in use", tr.TableCount())
	}
	return tr, dev
}

// reportDeviceBytes reports the device bytes the timed ops read, per op.
func reportDeviceBytes(b *testing.B, read int64) {
	b.ReportMetric(float64(read)/float64(b.N), "device-B/op")
}

func BenchmarkScanBounded(b *testing.B) {
	const keys, limit = 50_000, 50
	tr, dev := benchScanTree(b, keys)
	b.ReportAllocs()
	before := dev.Stats().BytesRead.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		err := tr.Scan(workload.Key(uint64(i)*7919%(keys-limit)), limit, func(_, _ []byte) bool { rows++; return true })
		if err != nil || rows != limit {
			b.Fatalf("scan: %d rows, %v", rows, err)
		}
	}
	reportDeviceBytes(b, dev.Stats().BytesRead.Value()-before)
}

func BenchmarkScanFull(b *testing.B) {
	const keys = 50_000
	tr, dev := benchScanTree(b, keys)
	b.ReportAllocs()
	before := dev.Stats().BytesRead.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		err := tr.Scan(nil, 0, func(_, _ []byte) bool { rows++; return true })
		if err != nil || rows != keys {
			b.Fatalf("scan: %d rows, %v", rows, err)
		}
	}
	reportDeviceBytes(b, dev.Stats().BytesRead.Value()-before)
}

// BenchmarkCompaction times one L0 -> L1 compaction: four L0 tables of
// random overwrites merged into an L1 that holds every key.
func BenchmarkCompaction(b *testing.B) {
	const keys = 10_000
	dev := ssd.New(ssd.SamsungSSD)
	tr, err := New(Config{Device: dev, L0Tables: 1 << 30}) // compact only when told to
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	fill := func(id uint64) {
		if err := tr.Put(workload.Key(id), workload.ValueFor(id, 100)); err != nil {
			b.Fatal(err)
		}
	}
	for id := uint64(0); id < keys; id++ {
		fill(id)
	}
	pushDown(b, tr)
	b.ReportAllocs()
	var read int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for tr.TableCount()[0] < 4 { // ends on a flush, so the memtable is empty
			fill(uint64(rng.Intn(keys)))
		}
		before := dev.Stats().BytesRead.Value()
		b.StartTimer()
		pushDown(b, tr)
		read += dev.Stats().BytesRead.Value() - before
	}
	reportDeviceBytes(b, read)
}
