package integration

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"costperf/internal/fault"
	"costperf/internal/shard"
)

// migChaos selects what a seed throws at the migration. Seeds cycle
// through a crash at every phase boundary of the state machine, plus a
// crash-free control; every seed additionally runs a lossy, periodically
// partitioned migration link and concurrent writers hitting the moving
// shard.
type migChaos struct {
	crashAt shard.Phase // boundary to die at; -1 = no injected crash
}

func (c migChaos) String() string {
	if c.crashAt < 0 {
		return "nocrash"
	}
	return "crash-" + c.crashAt.String()
}

// chaosForSeed derives the per-seed scenario: 6 phase boundaries + 1
// crash-free case, cycled so a 100-seed sweep hits every boundary ~14x.
func chaosForSeed(seed int64) migChaos {
	k := seed % 7
	if k == 6 {
		return migChaos{crashAt: -1}
	}
	return migChaos{crashAt: shard.Phase(k)}
}

// TestShardMigrationChaosSweep is the acceptance soak for live shard
// migration: a seeded sweep where every run migrates a shard while
// concurrent writers keep hitting it, the migration link drops,
// duplicates, reorders, and periodically partitions, and most seeds kill
// the migration at one of its phase boundaries and resume it. After the
// cutover it asserts
//
//   - zero lost acked writes: every write the router acknowledged reads
//     back byte-identical,
//   - exactly-once application: the full scatter-gather dump equals the
//     oracle exactly — no duplicated or resurrected versions survive the
//     blind-redo resumes,
//   - the stale owner is fenced: commits on the source TC fail with
//     ErrMoved forever,
//   - shards that were not moving never returned a single error.
//
// CHECK_SHARD=1 in scripts/check.sh runs the full 100 seeds under -race;
// plain `go test` runs a 12-seed slice (3 in -short).
func TestShardMigrationChaosSweep(t *testing.T) {
	sweep{
		first: 1, n: 12, short: 3, soak: 100, parallel: true,
		name: func(seed int64) string { return fmt.Sprintf("seed%03d-%s", seed, chaosForSeed(seed)) },
	}.run(t, func(t *testing.T, seed int64) {
		runShardMigrationSeed(t, seed, chaosForSeed(seed))
	})
}

const migShards = 4

func runShardMigrationSeed(t *testing.T, seed int64, chaos migChaos) {
	rng := rand.New(rand.NewSource(seed))
	r, err := shard.New(shard.Config{Shards: migShards, Seed: seed})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	defer r.Close()

	oracle := newAckedOracle()
	preload(t, seed, r.Put, oracle)

	// Writers may fail only on keys that route to the moving shard.
	moving := int(seed) % migShards
	writers := startWriters(seed, r.Put, oracle, func(key []byte) bool {
		return shard.SlotOf(key, migShards) == moving
	})

	// The migration link is lossy for every seed and partitions in
	// bounded episodes while the move is in flight.
	link := fault.NewNetInjector(seed)
	link.SetRates(0.05*rng.Float64(), 0.05*rng.Float64(), 0.05*rng.Float64())
	crash := &phaseCrash{at: chaos.crashAt}
	m, err := r.Migrate(shard.MigrateConfig{Shard: moving, Net: link, OnPhase: crash.onPhase})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	driveCutover(t, seed, "migration", link, crash, m.Run, m.Done)
	writers.finish(t)

	if got := r.MapEpoch(); got != 1 {
		t.Fatalf("map epoch = %d, want 1", got)
	}
	if got := r.Stats().Migrations.Value(); got != 1 {
		t.Fatalf("migrations = %d, want 1", got)
	}

	// The stale owner is fenced: its TC rejects commits forever.
	checkFenced(t, "source", m.SourceTC(), shard.ErrMoved)

	// Zero lost acked writes, and exactly-once application: the full
	// scatter-gather scan equals the oracle, with no duplicated or
	// resurrected versions surviving the blind-redo resumes.
	ctx := context.Background()
	oracle.verifyReads(t, func(k []byte) ([]byte, bool, error) { return r.Get(ctx, k) })
	oracle.verifyScan(t, func(fn func(k, v []byte) bool) error { return r.Scan(ctx, nil, 0, fn) })
}
