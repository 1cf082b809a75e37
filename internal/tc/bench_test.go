package tc

import (
	"testing"

	"costperf/internal/ssd"
	"costperf/internal/workload"
)

func benchTC(b *testing.B) *TC {
	b.Helper()
	c, err := New(Config{DC: newBenchDC(), LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// newBenchDC avoids testing.T plumbing in benchmarks.
func newBenchDC() *memDC { return newMemDC() }

func BenchmarkCommitSingleWrite(b *testing.B) {
	c := benchTC(b)
	val := workload.ValueFor(1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := c.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(workload.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitHotKey commits single writes to one key. Commit trims the
// chain as it installs, so B/op stays flat as b.N grows.
func BenchmarkCommitHotKey(b *testing.B) {
	c := benchTC(b)
	key, val := workload.Key(1), workload.ValueFor(1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := c.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(key, val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadVersionStoreHit(b *testing.B) {
	c := benchTC(b)
	const keys = 10000
	for i := uint64(0); i < keys; i++ {
		tx, _ := c.Begin()
		tx.Write(workload.Key(i), workload.ValueFor(i, 100))
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := c.Begin()
		if _, _, err := tx.Read(workload.Key(uint64(i) % keys)); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
	}
}

func BenchmarkReadThroughReadCache(b *testing.B) {
	dc := newBenchDC()
	const keys = 10000
	for i := uint64(0); i < keys; i++ {
		dc.m[string(workload.Key(i))] = workload.ValueFor(i, 100)
	}
	c, err := New(Config{DC: dc, LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		b.Fatal(err)
	}
	// Prime the read cache.
	warm, _ := c.Begin()
	for i := uint64(0); i < keys; i++ {
		if _, _, err := warm.Read(workload.Key(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := c.Begin()
		if _, _, err := tx.Read(workload.Key(uint64(i) % keys)); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
	}
}

func BenchmarkRecoveryReplay(b *testing.B) {
	logDev := ssd.New(ssd.SamsungSSD)
	c, err := New(Config{DC: newBenchDC(), LogDevice: logDev})
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		tx, _ := c.Begin()
		tx.Write(workload.Key(i), workload.ValueFor(i, 50))
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Recover(logDev, newBenchDC()); err != nil {
			b.Fatal(err)
		}
	}
}
