package recordcache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestRingBasics(t *testing.T) {
	r, err := NewRing(1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get([]byte("a")); ok {
		t.Fatal("empty ring hit")
	}
	r.Add([]byte("a"), []byte("1"))
	if v, ok := r.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("get = %q,%v", v, ok)
	}
	r.Add([]byte("a"), []byte("2")) // supersede
	if v, _ := r.Get([]byte("a")); string(v) != "2" {
		t.Fatalf("superseded value = %q", v)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	r.Invalidate([]byte("a"))
	if _, ok := r.Get([]byte("a")); ok {
		t.Fatal("invalidated key hit")
	}
	if r.UsedBytes() != 0 {
		t.Fatalf("used = %d after invalidate", r.UsedBytes())
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r, err := NewRing(5 * 80) // room for ~5 records of ~80 bytes
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.Add([]byte(fmt.Sprintf("key%02d", i)), []byte("valuepayload"))
	}
	// Oldest must be gone, newest present.
	if _, ok := r.Get([]byte("key00")); ok {
		t.Fatal("oldest record survived wrap")
	}
	if _, ok := r.Get([]byte("key09")); !ok {
		t.Fatal("newest record evicted")
	}
	if r.Stats().Evictions.Value() == 0 {
		t.Fatal("no evictions counted")
	}
	if r.UsedBytes() > 5*80 {
		t.Fatalf("used %d over budget", r.UsedBytes())
	}
}

func TestRingHitDoesNotPromote(t *testing.T) {
	r, err := NewRing(3 * 75)
	if err != nil {
		t.Fatal(err)
	}
	r.Add([]byte("a"), []byte("1"))
	r.Add([]byte("b"), []byte("2"))
	r.Get([]byte("a")) // would promote in an LRU
	r.Add([]byte("c"), []byte("3"))
	r.Add([]byte("d"), []byte("4"))
	// FIFO: a leaves first despite the recent hit.
	if _, ok := r.Get([]byte("a")); ok {
		t.Fatal("ring promoted on hit (should be FIFO)")
	}
}

func TestBadBudget(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Fatal("zero ring budget accepted")
	}
	if _, err := NewRing(-5); err == nil {
		t.Fatal("negative ring budget accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r, _ := NewRing(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i%50))
				r.Add(k, []byte("v"))
				r.Get(k)
			}
		}(w)
	}
	wg.Wait()
}

// Property: budgets are never exceeded.
func TestBudgetInvariantProperty(t *testing.T) {
	f := func(keys []uint8, budgetRaw uint16) bool {
		budget := int64(budgetRaw)%2000 + 200
		r, err := NewRing(budget)
		if err != nil {
			return false
		}
		for _, k := range keys {
			key := []byte(fmt.Sprintf("key-%d", k))
			val := make([]byte, int(k)%100)
			r.Add(key, val)
			// The budget may be exceeded only while a single record is
			// larger than the budget; our records never are.
			if r.Len() > 1 && r.UsedBytes() > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
