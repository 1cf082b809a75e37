package integration

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"costperf/internal/fault"
	"costperf/internal/shard"
)

// resizeChaos selects what a seed throws at the resize arc. Each run is
// a split followed by a merge of the children; a seed crashes one of the
// two state machines at one of its five crashable phase boundaries
// (prepare..seal — a crash after install is a completed resize), or runs
// crash-free. Every seed also runs a lossy, periodically partitioned
// stream link and concurrent writers hitting the resizing range.
type resizeChaos struct {
	splitCrash shard.Phase // boundary to die at during the split; -1 = none
	mergeCrash shard.Phase // boundary to die at during the merge; -1 = none
}

func (c resizeChaos) String() string {
	switch {
	case c.splitCrash >= 0:
		return "split-crash-" + c.splitCrash.String()
	case c.mergeCrash >= 0:
		return "merge-crash-" + c.mergeCrash.String()
	default:
		return "nocrash"
	}
}

// resizeChaosForSeed cycles 5 split boundaries + 5 merge boundaries + 1
// crash-free control, so a 100-seed sweep hits every boundary ~9x.
func resizeChaosForSeed(seed int64) resizeChaos {
	switch k := seed % 11; {
	case k < 5:
		return resizeChaos{splitCrash: shard.Phase(k), mergeCrash: -1}
	case k < 10:
		return resizeChaos{splitCrash: -1, mergeCrash: shard.Phase(k - 5)}
	default:
		return resizeChaos{splitCrash: -1, mergeCrash: -1}
	}
}

// TestShardResizeChaosSweep is the acceptance soak for elastic resize:
// a seeded sweep where every run splits one shard and merges the
// children back while concurrent writers keep hitting the moving range,
// the stream link drops, duplicates, reorders, and periodically
// partitions, and most seeds kill one of the two state machines at a
// phase boundary and resume it blind. After the arc it asserts
//
//   - zero lost acked writes: every write the router acknowledged reads
//     back byte-identical,
//   - exactly-once application: the full scatter-gather dump equals the
//     acked-state oracle exactly, in global order,
//   - every stale owner is fenced: the split source and both merge
//     sources reject commits with ErrMoved forever,
//   - bounded movement: a hash moves owner between map epochs iff it
//     lies inside the split range — the ~1/N fraction the map promises,
//   - writers only ever failed with the moved-class family, and only on
//     keys inside the resizing range.
//
// CHECK_RESIZE=1 in scripts/check.sh runs the full 100 seeds under
// -race; plain `go test` runs an 11-seed slice (3 in -short).
func TestShardResizeChaosSweep(t *testing.T) {
	sweep{
		first: 1, n: 11, short: 3, soak: 100, parallel: true,
		name: func(seed int64) string { return fmt.Sprintf("seed%03d-%s", seed, resizeChaosForSeed(seed)) },
	}.run(t, func(t *testing.T, seed int64) {
		runShardResizeSeed(t, seed, resizeChaosForSeed(seed))
	})
}

const resizeShards = 4

func runShardResizeSeed(t *testing.T, seed int64, chaos resizeChaos) {
	rng := rand.New(rand.NewSource(seed))
	r, err := shard.New(shard.Config{Shards: resizeShards, Seed: seed})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	defer r.Close()

	oracle := newAckedOracle()
	preload(t, seed, r.Put, oracle)

	// The resizing range: the source shard's slice of the hash space.
	// The split moves exactly this range to the children and the merge
	// moves it back to one slot, so it bounds both operations' blast
	// radius for the whole run.
	srcSlot := int(seed) % resizeShards
	before := r.Map()
	srcIdx := -1
	for i, e := range before.Entries {
		if e.Slot == srcSlot {
			srcIdx = i
		}
	}
	lo, hi := before.Range(srcIdx)

	// Writers may fail only on keys that hash into the resizing range.
	writers := startWriters(seed, r.Put, oracle, func(key []byte) bool {
		return shard.InRange(shard.Hash(key), lo, hi)
	})

	// Every seed streams over a lossy link that partitions in bounded,
	// healed episodes while either state machine is in flight.
	link := fault.NewNetInjector(seed)
	link.SetRates(0.05*rng.Float64(), 0.05*rng.Float64(), 0.05*rng.Float64())

	// ---- Split, crashed and resumed blind. ----
	splitCrash := &phaseCrash{at: chaos.splitCrash}
	s, err := r.Split(shard.SplitConfig{Shard: srcSlot, Net: link, OnPhase: splitCrash.onPhase})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	driveCutover(t, seed, "split", link, splitCrash, s.Run, s.Done)
	low, high := s.Slots()

	// Bounded movement: between the epoch-0 and epoch-1 maps, a hash
	// changes owner iff it lies in the split range — so the moved
	// fraction is exactly the range's share of the space, ≈1/N.
	after := r.Map()
	if after.Epoch != 1 {
		t.Fatalf("post-split epoch = %d, want 1", after.Epoch)
	}
	for i := 0; i < 1<<14; i++ {
		h := uint64(i) << 50
		moved := before.Slot(h) != after.Slot(h)
		if moved != shard.InRange(h, lo, hi) {
			t.Fatalf("hash %#x: moved=%v, inside split range=%v", h, moved, shard.InRange(h, lo, hi))
		}
	}

	// ---- Merge the children back, crashed and resumed blind. ----
	mergeCrash := &phaseCrash{at: chaos.mergeCrash}
	m, err := r.Merge(shard.MergeConfig{Left: low, Right: high, Net: link, OnPhase: mergeCrash.onPhase})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	driveCutover(t, seed, "merge", link, mergeCrash, m.Run, m.Done)
	writers.finish(t)

	if got := r.MapEpoch(); got != 2 {
		t.Fatalf("map epoch = %d, want 2", got)
	}
	if got := r.Stats().Splits.Value(); got != 1 {
		t.Fatalf("splits = %d, want 1", got)
	}
	if got := r.Stats().Merges.Value(); got != 1 {
		t.Fatalf("merges = %d, want 1", got)
	}
	if got := r.Shards(); got != resizeShards {
		t.Fatalf("shards = %d, want %d", got, resizeShards)
	}

	// Every stale owner is fenced forever: the split source and both
	// merge sources reject commits with ErrMoved.
	lt, rt := m.SourceTCs()
	checkFenced(t, "split-source", s.SourceTC(), shard.ErrMoved)
	checkFenced(t, "merge-left", lt, shard.ErrMoved)
	checkFenced(t, "merge-right", rt, shard.ErrMoved)

	// Zero lost acked writes, and exactly-once application: the full
	// scatter-gather scan equals the oracle in global order.
	ctx := context.Background()
	oracle.verifyReads(t, func(k []byte) ([]byte, bool, error) { return r.Get(ctx, k) })
	oracle.verifyScan(t, func(fn func(k, v []byte) bool) error { return r.Scan(ctx, nil, 0, fn) })
}
