package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"costperf/internal/engine"
	"costperf/internal/tc"
)

// flakyScanDC wraps MassDC with a scanner that, once armed, yields a few
// pairs and then fails — a shard going down mid-scan, deterministically.
type flakyScanDC struct {
	*MassDC
	armed atomic.Bool
	after int
	fail  error
}

func (d *flakyScanDC) Scan(start []byte, limit int, fn func(k, v []byte) bool) error {
	if !d.armed.Load() {
		return d.MassDC.Scan(start, limit, fn)
	}
	n := 0
	if err := d.MassDC.Scan(start, limit, func(k, v []byte) bool {
		if n >= d.after {
			return false
		}
		n++
		return fn(k, v)
	}); err != nil {
		return err
	}
	return d.fail
}

func loadRouter(t *testing.T, r *Router, keys int) {
	t.Helper()
	ctx := testCtx()
	for i := 0; i < keys; i++ {
		if err := r.Put(ctx, key(i), val(i, 0)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

func collectScan(t *testing.T, r *Router, start []byte, limit int) ([]string, error) {
	t.Helper()
	var got []string
	var prev []byte
	err := r.Scan(testCtx(), start, limit, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("merge order violated: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		got = append(got, string(k))
		return true
	})
	return got, err
}

func TestScatterGatherScanMergesInOrder(t *testing.T) {
	forEachDC(t, testScatterGatherScanMergesInOrder)
}

func testScatterGatherScanMergesInOrder(t *testing.T, newDC func(int) tc.DataComponent) {
	const keys = 300
	r := newTestRouter(t, 4, withDC(newDC))
	loadRouter(t, r, keys)

	got, err := collectScan(t, r, nil, 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != keys {
		t.Fatalf("scan returned %d keys, want %d", len(got), keys)
	}
	for i, k := range got {
		if k != string(key(i)) {
			t.Fatalf("position %d = %q, want %q", i, k, key(i))
		}
	}

	// Start offset and limit behave like a single store's scan.
	got, err = collectScan(t, r, key(100), 25)
	if err != nil {
		t.Fatalf("bounded scan: %v", err)
	}
	if len(got) != 25 || got[0] != string(key(100)) || got[24] != string(key(124)) {
		t.Fatalf("bounded scan = %d keys [%s..%s]", len(got), got[0], got[len(got)-1])
	}

	// Early stop from the callback is a success, not an error.
	n := 0
	if err := r.Scan(testCtx(), nil, 0, func(k, v []byte) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatalf("early-stop scan: %v", err)
	}
	if n != 10 {
		t.Fatalf("early-stop visited %d, want 10", n)
	}
}

func TestScatterGatherShardDownMidScanIsPartial(t *testing.T) {
	const n, keys = 4, 400
	errDown := errors.New("test: shard storage died mid-scan")
	flaky := map[int]*flakyScanDC{}
	r := newTestRouter(t, n, func(c *Config) {
		c.NewDC = func(shard int) tc.DataComponent {
			d := &flakyScanDC{MassDC: NewMassDC(), after: 3, fail: errDown}
			flaky[shard] = d
			return d
		}
	})
	loadRouter(t, r, keys)

	const bad = 1
	flaky[bad].armed.Store(true)

	got, err := collectScan(t, r, nil, 0)
	var pse *PartialScanError
	if !errors.As(err, &pse) || !errors.Is(err, ErrPartialScan) {
		t.Fatalf("scan with shard %d down = %v, want *PartialScanError", bad, err)
	}
	if len(pse.Failed) != 1 || pse.Failed[0].Shard != bad || !errors.Is(pse.Failed[0].Err, errDown) {
		t.Fatalf("partial error names %+v, want shard %d / errDown", pse.Failed, bad)
	}
	if r.Stats().PartialScans.Value() != 1 {
		t.Fatalf("PartialScans = %d, want 1", r.Stats().PartialScans.Value())
	}

	// The surviving shards' data is complete and correctly merged: every
	// key not owned by the failed shard is present, in global order
	// (collectScan already asserted ordering).
	seen := map[string]bool{}
	for _, k := range got {
		seen[k] = true
	}
	for i := 0; i < keys; i++ {
		k := string(key(i))
		if SlotOf(key(i), n) == bad {
			continue
		}
		if !seen[k] {
			t.Fatalf("surviving shard's key %q missing from partial result", k)
		}
	}

	// Healed shard: the next scan is whole again.
	flaky[bad].armed.Store(false)
	got, err = collectScan(t, r, nil, 0)
	if err != nil || len(got) != keys {
		t.Fatalf("scan after heal = %d keys, err %v", len(got), err)
	}
}

func TestScatterGatherFailFast(t *testing.T) {
	const n = 3
	r := newTestRouter(t, n, func(c *Config) { c.FailFastScans = true })
	loadRouter(t, r, 150)

	const bad = 2
	if err := r.Engine(bad).Close(); err != nil {
		t.Fatalf("close shard engine: %v", err)
	}
	err := r.Scan(testCtx(), nil, 0, func(k, v []byte) bool { return true })
	if err == nil {
		t.Fatal("fail-fast scan returned nil with a shard down")
	}
	if errors.Is(err, ErrPartialScan) {
		t.Fatalf("fail-fast scan returned the partial-tolerant error: %v", err)
	}
	if !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("fail-fast scan = %v, want the shard's own error", err)
	}
}

func TestPartialScanErrorRendering(t *testing.T) {
	e := &PartialScanError{Failed: []ShardError{{Shard: 3, Err: errors.New("boom")}}}
	if !errors.Is(e, ErrPartialScan) {
		t.Fatal("PartialScanError does not unwrap to ErrPartialScan")
	}
	s := e.Error()
	if want := "shard"; len(s) == 0 || !bytes.Contains([]byte(s), []byte(want)) {
		t.Fatalf("error string %q", s)
	}
	if !bytes.Contains([]byte(s), []byte(fmt.Sprintf("%d: boom", 3))) {
		t.Fatalf("error string %q does not name the failed shard", s)
	}
}
