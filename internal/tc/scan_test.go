package tc

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"costperf/internal/bwtree"
	"costperf/internal/obs"
	"costperf/internal/ssd"
)

// scanDC wraps memDC with an ordered Scan for scan tests.
type scanDC struct{ *memDC }

func (d *scanDC) Scan(start []byte, limit int, fn func(k, v []byte) bool) error {
	d.mu.Lock()
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		if bytes.Compare([]byte(k), start) >= 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	snapshot := make(map[string][]byte, len(keys))
	for _, k := range keys {
		snapshot[k] = d.m[k]
	}
	d.mu.Unlock()
	n := 0
	for _, k := range keys {
		if limit > 0 && n >= limit {
			return nil
		}
		if !fn([]byte(k), snapshot[k]) {
			return nil
		}
		n++
	}
	return nil
}

func newScanTC(t *testing.T) (*TC, *scanDC) {
	t.Helper()
	dc := &scanDC{newMemDC()}
	c, err := New(Config{DC: dc, LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		t.Fatal(err)
	}
	return c, dc
}

func collect(t *testing.T, tx *Tx, start string, limit int) []string {
	t.Helper()
	var got []string
	if err := tx.Scan([]byte(start), limit, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestScanNoScannerDC(t *testing.T) {
	c := newTC(t, newMemDC()) // plain memDC has no Scan
	tx, _ := c.Begin()
	if err := tx.Scan(nil, 0, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrNoScan) {
		t.Fatalf("err = %v, want ErrNoScan", err)
	}
}

func TestScanMergesAllSources(t *testing.T) {
	c, dc := newScanTC(t)
	// DC-only data (pre-existing, no versions).
	dc.m["a"] = []byte("dc")
	dc.m["d"] = []byte("dc")
	// Committed version (also posted to DC as a blind update).
	w, _ := c.Begin()
	w.Write([]byte("b"), []byte("committed"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ := c.Begin()
	// Own write, not yet committed.
	tx.Write([]byte("c"), []byte("own"))
	got := collect(t, tx, "", 0)
	want := []string{"a=dc", "b=committed", "c=own", "d=dc"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestScanSnapshotVisibility(t *testing.T) {
	c, dc := newScanTC(t)
	dc.m["k1"] = []byte("v0")
	w0, _ := c.Begin()
	w0.Write([]byte("k2"), []byte("v0"))
	if err := w0.Commit(); err != nil {
		t.Fatal(err)
	}
	reader, _ := c.Begin()
	// Post-snapshot commits: an overwrite, a delete, and a brand-new key.
	w, _ := c.Begin()
	w.Write([]byte("k2"), []byte("v1"))
	w.Write([]byte("k3"), []byte("new"))
	w.Delete([]byte("k1")) // DC still has k1? blind delete removes it from DC
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, reader, "", 0)
	// The snapshot sees k2=v0; k3 invisible. k1's delete postdates the
	// snapshot, so the version store must resurrect it... but k1 had no
	// version (DC-only), so the delete version with commitTS > snapshot
	// leaves the pre-image to the DC — which no longer has it. This is the
	// documented limit of blind updates to the DC: the version store only
	// guarantees snapshot reads for data that has a version at-or-below
	// the snapshot or is untouched. k2 must be v0 and k3 absent.
	for _, g := range got {
		if g == "k2=v1" {
			t.Fatalf("snapshot saw post-snapshot overwrite: %v", got)
		}
		if g == "k3=new" {
			t.Fatalf("snapshot saw post-snapshot insert: %v", got)
		}
	}
	found := false
	for _, g := range got {
		if g == "k2=v0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missed k2=v0: %v", got)
	}
	// A fresh snapshot sees the new world.
	r2, _ := c.Begin()
	got2 := collect(t, r2, "", 0)
	want := []string{"k2=v1", "k3=new"}
	if fmt.Sprint(got2) != fmt.Sprint(want) {
		t.Fatalf("fresh scan = %v, want %v", got2, want)
	}
}

func TestScanOwnDeleteMasksDC(t *testing.T) {
	c, dc := newScanTC(t)
	dc.m["x"] = []byte("dc")
	tx, _ := c.Begin()
	tx.Delete([]byte("x"))
	got := collect(t, tx, "", 0)
	if len(got) != 0 {
		t.Fatalf("scan = %v, want empty (own delete masks DC)", got)
	}
}

func TestScanStartAndLimit(t *testing.T) {
	c, dc := newScanTC(t)
	for i := 0; i < 10; i++ {
		dc.m[fmt.Sprintf("k%02d", i)] = []byte("v")
	}
	tx, _ := c.Begin()
	tx.Write([]byte("k035"), []byte("own")) // sorts between k03 and k04
	got := collect(t, tx, "k03", 3)
	want := []string{"k03=v", "k035=own", "k04=v"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	c, dc := newScanTC(t)
	for i := 0; i < 10; i++ {
		dc.m[fmt.Sprintf("k%02d", i)] = []byte("v")
	}
	tx, _ := c.Begin()
	n := 0
	if err := tx.Scan(nil, 0, func(_, _ []byte) bool { n++; return n < 4 }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("visited %d", n)
	}
}

func TestScanOverBwTree(t *testing.T) {
	// Full-stack: transactional scans over the real data component.
	tree, err := bwtree.New(bwtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("tc")
	c, err := New(Config{DC: tree, LogDevice: ssd.New(ssd.SamsungSSD), Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	setup, _ := c.Begin()
	for i := 0; i < 500; i++ {
		setup.Write([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	c.GC() // push visibility authority to the DC
	tx, _ := c.Begin()
	tx.Write([]byte("key-0100x"), []byte("inserted"))
	tx.Delete([]byte("key-0101"))
	var got []string
	if err := tx.Scan([]byte("key-0100"), 4, func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"key-0100", "key-0100x", "key-0102", "key-0103"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	if n := tr.Snapshot().ByOp["scan"]; n != 1 {
		t.Fatalf("scan spans = %d, want 1", n)
	}
}

func TestScanDoneTx(t *testing.T) {
	c, _ := newScanTC(t)
	tx, _ := c.Begin()
	tx.Abort()
	if err := tx.Scan(nil, 0, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
}

// Property: a committed-state scan equals a sorted model of all commits.
func TestScanModelProperty(t *testing.T) {
	type op struct {
		Key uint8
		Val uint16
		Del bool
	}
	f := func(ops []op) bool {
		c, _ := func() (*TC, *scanDC) {
			dc := &scanDC{newMemDC()}
			tc, err := New(Config{DC: dc, LogDevice: ssd.New(ssd.SamsungSSD)})
			if err != nil {
				panic(err)
			}
			return tc, dc
		}()
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%03d", o.Key)
			v := fmt.Sprintf("v%d", o.Val)
			tx, err := c.Begin()
			if err != nil {
				return false
			}
			if o.Del {
				tx.Delete([]byte(k))
				delete(model, k)
			} else {
				tx.Write([]byte(k), []byte(v))
				model[k] = v
			}
			if err := tx.Commit(); err != nil {
				return false
			}
		}
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		tx, err := c.Begin()
		if err != nil {
			return false
		}
		i := 0
		okAll := true
		err = tx.Scan(nil, 0, func(k, v []byte) bool {
			if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
				okAll = false
				return false
			}
			i++
			return true
		})
		return err == nil && okAll && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A scan by a snapshot older than a commit overwriting or deleting a
// DC-only key still sees the DC's pre-image instead of masking the key.
func TestScanSnapshotKeepsDCOnlyKey(t *testing.T) {
	for _, del := range []bool{false, true} {
		t.Run(fmt.Sprintf("delete=%v", del), func(t *testing.T) {
			c, dc := newScanTC(t)
			dc.m["a"] = []byte("old")
			dc.m["k"] = []byte("old")
			reader, _ := c.Begin()
			w, _ := c.Begin()
			if del {
				w.Delete([]byte("k"))
			} else {
				w.Write([]byte("k"), []byte("new"))
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			got := collect(t, reader, "", 0)
			if want := []string{"a=old", "k=old"}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("snapshot scan = %v, want %v", got, want)
			}
		})
	}
}
