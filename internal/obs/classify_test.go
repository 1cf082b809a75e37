package obs_test

import (
	"fmt"
	"testing"

	"costperf/internal/btree"
	"costperf/internal/bwtree"
	"costperf/internal/llama/logstore"
	"costperf/internal/lsm"
	"costperf/internal/masstree"
	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
)

// classifyCase is one store operation with a known answer: whether it
// reads the device.
type classifyCase struct {
	name     string
	wantMiss bool
	op       func() error
}

// checkClassified runs c once on fresh counters and checks that the two
// per-operation records agree with the device: an operation that read the
// device is a miss in obs and an SS operation in the session's tracker,
// and one served from memory is a hit and an MM operation. s is nil for a
// traced but uncharged store.
func checkClassified(t *testing.T, tr *obs.Tracer, s *sim.Session, dev *ssd.Device, c classifyCase) {
	t.Helper()
	tr.Reset()
	if s != nil {
		s.Tracker().Reset()
	}
	reads0 := dev.Stats().Reads.Value()
	if err := c.op(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if read := dev.Stats().Reads.Value() != reads0; read != c.wantMiss {
		t.Fatalf("%s: device read = %v, the case expects %v", c.name, read, c.wantMiss)
	}
	snap := tr.Snapshot()
	wantHits, wantMisses := int64(1), int64(0)
	if c.wantMiss {
		wantHits, wantMisses = 0, 1
	}
	if snap.Hits != wantHits || snap.Misses != wantMisses {
		t.Errorf("%s: obs hits/misses = %d/%d, want %d/%d", c.name, snap.Hits, snap.Misses, wantHits, wantMisses)
	}
	if s == nil {
		return
	}
	tk := s.Tracker()
	if mm, ss := tk.Ops(sim.OpMM), tk.Ops(sim.OpSS); mm != wantHits || ss != wantMisses {
		t.Errorf("%s: tracker MM/SS = %d/%d, want %d/%d", c.name, mm, ss, wantHits, wantMisses)
	}
}

// forEachCharging runs fn for a charged store (a live Session) and for a
// traced but uncharged one (nil Session).
func forEachCharging(t *testing.T, fn func(t *testing.T, s *sim.Session)) {
	t.Run("charged", func(t *testing.T) { fn(t, sim.NewSession(sim.DefaultCosts())) })
	t.Run("uncharged", func(t *testing.T) { fn(t, nil) })
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }

// TestMissIsDeviceTransfer checks the one classification rule on every
// store that can reach the device, and on MassTree, which cannot: a span
// is a miss exactly when its operation reached the device, whatever path
// got it there.
func TestMissIsDeviceTransfer(t *testing.T) {
	t.Run("bwtree", func(t *testing.T) {
		forEachCharging(t, func(t *testing.T, s *sim.Session) {
			dev := ssd.New(ssd.SamsungSSD)
			ls, err := logstore.Open(logstore.Config{Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer("bwtree")
			tree, err := bwtree.New(bwtree.Config{Store: ls, Session: s, Obs: tr})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := tree.Insert(key(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			get := func() error {
				v, ok, err := tree.Get(key(7))
				if err == nil && (!ok || string(v) != "v") {
					err = fmt.Errorf("get = %q, %v", v, ok)
				}
				return err
			}
			evict := func() {
				t.Helper()
				for _, pid := range tree.Pages() {
					if err := tree.EvictPage(pid, false); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkClassified(t, tr, s, dev, classifyCase{"resident page", false, get})
			// The evicted page's image is still in the log store's write
			// buffer: loading it does not reach the device.
			evict()
			checkClassified(t, tr, s, dev, classifyCase{"page loaded from the write buffer", false, get})
			evict()
			if err := ls.Flush(nil); err != nil {
				t.Fatal(err)
			}
			checkClassified(t, tr, s, dev, classifyCase{"page loaded from the device", true, get})
		})
	})

	t.Run("btree", func(t *testing.T) {
		forEachCharging(t, func(t *testing.T, s *sim.Session) {
			dev := ssd.New(ssd.SamsungSSD)
			tr := obs.NewTracer("btree")
			tree, err := btree.New(btree.Config{Device: dev, PoolPages: 4, Session: s, Obs: tr})
			if err != nil {
				t.Fatal(err)
			}
			const n = 2000
			for i := 0; i < n; i++ {
				if err := tree.Insert(key(i), []byte("value-0123456789")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.FlushAll(); err != nil {
				t.Fatal(err)
			}
			get := func(i int) func() error {
				return func() error {
					_, ok, err := tree.Get(key(i))
					if err == nil && !ok {
						err = fmt.Errorf("key %d missing", i)
					}
					return err
				}
			}
			if err := get(0)(); err != nil {
				t.Fatal(err)
			}
			checkClassified(t, tr, s, dev, classifyCase{"pool hit", false, get(0)})
			// A four-page pool holds key 0's path and the last inserted
			// leaf, not the middle key's leaf.
			checkClassified(t, tr, s, dev, classifyCase{"pool miss", true, get(n / 2)})
		})
	})

	t.Run("lsm", func(t *testing.T) {
		forEachCharging(t, func(t *testing.T, s *sim.Session) {
			dev := ssd.New(ssd.SamsungSSD)
			tr := obs.NewTracer("lsm")
			tree, err := lsm.New(lsm.Config{Device: dev, Session: s, Obs: tr})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if err := tree.Put(key(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tree.Put(key(1000), []byte("m")); err != nil {
				t.Fatal(err)
			}
			get := func(k []byte, want bool) func() error {
				return func() error {
					_, ok, err := tree.Get(k)
					if err == nil && ok != want {
						err = fmt.Errorf("get %s found = %v, want %v", k, ok, want)
					}
					return err
				}
			}
			// An absent key whose bloom probe passes: the resident index
			// answers it, so no table record is read.
			var phantom []byte
			for i := 0; phantom == nil; i++ {
				if i == 100000 {
					t.Fatal("no bloom false positive in 100000 absent keys")
				}
				k := []byte(fmt.Sprintf("absent-%06d", i))
				reads0 := tree.Stats().TableReads.Value()
				if err := get(k, false)(); err != nil {
					t.Fatal(err)
				}
				if tree.Stats().TableReads.Value() != reads0 {
					phantom = k
				}
			}
			checkClassified(t, tr, s, dev, classifyCase{"memtable hit", false, get(key(1000), true)})
			checkClassified(t, tr, s, dev, classifyCase{"bloom false positive", false, get(phantom, false)})
			checkClassified(t, tr, s, dev, classifyCase{"table record read", true, get(key(42), true)})
		})
	})

	t.Run("logstore", func(t *testing.T) {
		// The log store charges its caller's operation: "charged" here
		// means the caller passes a session's charger.
		forEachCharging(t, func(t *testing.T, s *sim.Session) {
			dev := ssd.New(ssd.SamsungSSD)
			tr := obs.NewTracer("logstore")
			ls, err := logstore.Open(logstore.Config{Device: dev, Obs: tr})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := ls.Append(1, logstore.KindBase, []byte("payload"), nil)
			if err != nil {
				t.Fatal(err)
			}
			read := func() error {
				ch := s.Begin()
				rec, err := ls.Read(addr, ch)
				if err == nil && string(rec.Payload) != "payload" {
					err = fmt.Errorf("read %q", rec.Payload)
				}
				ch.Settle()
				return err
			}
			checkClassified(t, tr, s, dev, classifyCase{"read from the write buffer", false, read})
			if err := ls.Flush(nil); err != nil {
				t.Fatal(err)
			}
			checkClassified(t, tr, s, dev, classifyCase{"read from the device", true, read})
		})
	})

	t.Run("masstree", func(t *testing.T) {
		forEachCharging(t, func(t *testing.T, s *sim.Session) {
			tr := obs.NewTracer("masstree")
			tree := masstree.New(s)
			tree.SetObs(tr)
			tree.Put(key(1), []byte("v"))
			get := func() error {
				if _, ok := tree.Get(key(1)); !ok {
					return fmt.Errorf("key missing")
				}
				return nil
			}
			checkClassified(t, tr, s, ssd.New(ssd.SamsungSSD), classifyCase{"main-memory get", false, get})
		})
	})
}
