package costperf

import (
	"bytes"
	"errors"
	"testing"

	"costperf/internal/bwtree"
)

// checkpointed loads n keys into a fresh stack and checkpoints it.
func checkpointed(t *testing.T, n uint64) *Deuteronomy {
	t.Helper()
	d, err := NewDeuteronomy(DeuteronomyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := d.Put(Key(i), ValueFor(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRecoveredStackHonoursMemoryBudget: a stack reopened with a memory
// budget evicts down to it, as a freshly built one does.
func TestRecoveredStackHonoursMemoryBudget(t *testing.T) {
	const keys = 20000
	d := checkpointed(t, keys)
	budget := d.Tree.FootprintBytes() / 4
	r, err := OpenDeuteronomy(d.Device, DeuteronomyOptions{MemoryBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < keys; i++ {
		if _, ok, err := r.Get(Key(i)); err != nil || !ok {
			t.Fatalf("recovered key %d: ok=%v err=%v", i, ok, err)
		}
	}
	evicted, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if fp := r.Tree.FootprintBytes(); fp > budget {
		t.Fatalf("recovered stack holds %d bytes after Sweep, budget %d (%d evictions)", fp, budget, evicted)
	}
}

// TestOpenWithoutCheckpointFails: a device that holds log bytes but no
// checkpoint is refused, whichever wrapper opens it.
func TestOpenWithoutCheckpointFails(t *testing.T) {
	d, err := NewDeuteronomy(DeuteronomyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if err := d.Put(Key(i), ValueFor(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range d.Tree.Pages() {
		if err := d.Tree.FlushPage(pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Log.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDeuteronomy(d.Device, DeuteronomyOptions{}); !errors.Is(err, bwtree.ErrNoCheckpoint) {
		t.Fatalf("OpenDeuteronomy = %v, want ErrNoCheckpoint", err)
	}
	if _, err := NewDeuteronomy(DeuteronomyOptions{Device: d.Device}); !errors.Is(err, bwtree.ErrNoCheckpoint) {
		t.Fatalf("NewDeuteronomy = %v, want ErrNoCheckpoint", err)
	}
}

// TestCreatedAndRecoveredStacksServeIdenticalGets: the recovered stack
// answers every Get, hit or miss, exactly as the stack it recovers.
func TestCreatedAndRecoveredStacksServeIdenticalGets(t *testing.T) {
	const keys = 2000
	d := checkpointed(t, keys)
	r, err := OpenDeuteronomy(d.Device, DeuteronomyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < keys+100; i++ {
		v1, ok1, err1 := d.Get(Key(i))
		v2, ok2, err2 := r.Get(Key(i))
		if err1 != nil || err2 != nil || ok1 != ok2 || !bytes.Equal(v1, v2) {
			t.Fatalf("key %d: created %q/%v/%v, recovered %q/%v/%v", i, v1, ok1, err1, v2, ok2, err2)
		}
	}
}
