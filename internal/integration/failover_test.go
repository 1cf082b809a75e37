package integration

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"costperf/internal/fault"
	"costperf/internal/repl"
	"costperf/internal/shard"
	"costperf/internal/ssd"
)

// failoverMode selects what kind of disaster a seed runs into.
type failoverMode int

const (
	modeForcedPromotion   failoverMode = iota // operator-initiated switch
	modePrimaryCrash                          // primary log device dies mid-ship
	modePartitionedSwitch                     // promotion forced during a partition
	failoverModes
)

func (m failoverMode) String() string {
	switch m {
	case modeForcedPromotion:
		return "forced"
	case modePrimaryCrash:
		return "crash"
	case modePartitionedSwitch:
		return "partitioned"
	}
	return "?"
}

// TestFailoverChaosSweep is the acceptance soak: a seeded sweep of lossy
// networks (drops, duplicates, reorders, partitions), a mid-ship primary
// crash or a forced promotion per seed, asserting after failover that
//
//   - no write the cluster ever acknowledged is lost,
//   - the demoted primary's commits are fenced by the epoch gate,
//   - the standby's applied LSN converged to the primary's durable LSN
//     (when the primary's log survived to be compared against), and
//   - PITR to a checkpoint recorded mid-run is byte-identical against the
//     acked-state oracle snapshotted at the same moment.
//
// CHECK_FAILOVER=1 in scripts/check.sh runs the full 100 seeds under
// -race; plain `go test` runs a 12-seed slice (3 in -short).
func TestFailoverChaosSweep(t *testing.T) {
	mode := func(seed int64) failoverMode { return failoverMode(seed % int64(failoverModes)) }
	sweep{
		first: 1, n: 12, short: 3, soak: 100, parallel: true,
		name: func(seed int64) string { return fmt.Sprintf("seed%03d-%s", seed, mode(seed)) },
	}.run(t, func(t *testing.T, seed int64) {
		runFailoverSeed(t, seed, mode(seed))
	})
}

func runFailoverSeed(t *testing.T, seed int64, mode failoverMode) {
	rng := rand.New(rand.NewSource(seed))
	net := fault.NewNetInjector(seed)
	// Lossy from the start: up to ~8% drops, duplicates, and reorders.
	net.SetRates(0.08*rng.Float64(), 0.08*rng.Float64(), 0.08*rng.Float64())

	primaryLog := ssd.New(ssd.Config{Name: "plog", MaxIOPS: 1e6, LatencySec: 1e-6})
	standbyLog := ssd.New(ssd.Config{Name: "slog", MaxIOPS: 1e6, LatencySec: 1e-6})
	inj := fault.NewInjector(seed)
	primaryLog.SetFaultInjector(inj)

	cluster, err := repl.NewCluster(repl.ClusterConfig{
		PrimaryDC: shard.NewMassDC(), PrimaryLog: primaryLog,
		StandbyDC: shard.NewMassDC(), StandbyLog: standbyLog,
		Net:          net,
		CommitWait:   5 * time.Second,
		AutoFailover: true,
		WatchEvery:   time.Millisecond,
		PromoteDrain: 2 * time.Second,
		BatchBytes:   256 + rng.Intn(512),
		AckTimeout:   2 * time.Millisecond,
		RetryBase:    200 * time.Microsecond,
		RetryMax:     2 * time.Millisecond,
		Seed:         seed,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()

	ctx := context.Background()
	oracle := newAckedOracle()
	key := func(i int) []byte { return []byte(fmt.Sprintf("s%03d-k%04d", seed, i)) }

	write := func(i int) {
		t.Helper()
		v := make([]byte, 1+rng.Intn(120))
		for j := range v {
			v[j] = byte(rng.Intn(256))
		}
		if err := cluster.Put(ctx, key(i), v); err == nil {
			oracle.ack(key(i), v)
		}
	}

	// Phase 1: steady writes under the lossy link, with a bounded partition
	// episode thrown in (it heals by itself, so the phase always converges).
	phase1 := 40 + rng.Intn(40)
	for i := 0; i < phase1; i++ {
		if i == phase1/2 {
			net.PartitionFor(int64(1 + rng.Intn(15)))
		}
		write(i)
	}

	// Checkpoint: the writer is quiesced (we are it), so the standby's
	// applied state equals the acked oracle right now.
	ck := cluster.Standby().MarkCheckpoint()
	pitrOracle := oracle.snapshot()

	// Phase 2: overwrite and churn past the checkpoint.
	for i := 0; i < 30+rng.Intn(30); i++ {
		write(rng.Intn(phase1 + 50))
	}

	// Disaster.
	oldPrimary := cluster.Primary()
	oldDurable := oldPrimary.DurableLSN()
	switch mode {
	case modeForcedPromotion:
		if err := cluster.Promote(); err != nil {
			t.Fatalf("forced promotion: %v", err)
		}
	case modePrimaryCrash:
		// The primary's log device dies mid-ship: a torn final flush, then
		// every I/O fails. Auto-failover must kick in. Scheduled events are
		// keyed by absolute write count since installation, so target the
		// write after everything the run has already done.
		_, writesSoFar := inj.Counts()
		inj.CrashAtWrite(writesSoFar+1, rng.Intn(64))
		deadline := time.Now().Add(10 * time.Second)
		for !cluster.Promoted() {
			_ = cluster.Put(ctx, []byte("poke"), []byte("x")) // never acked pre-promotion; ignore
			if time.Now().After(deadline) {
				t.Fatal("auto failover never promoted after primary crash")
			}
			time.Sleep(time.Millisecond)
		}
	case modePartitionedSwitch:
		// Promotion forced while the link is dead: the drain can only cover
		// what was already acked — which is exactly the durability contract.
		net.Partition()
		if err := cluster.Promote(); err != nil {
			t.Fatalf("partitioned promotion: %v", err)
		}
		net.Heal()
	}

	if !cluster.Promoted() || cluster.Epoch() != 2 {
		t.Fatalf("promoted=%v epoch=%d after %s", cluster.Promoted(), cluster.Epoch(), mode)
	}

	// Stale-primary writes are fenced by the epoch gate.
	checkFenced(t, "stale primary", oldPrimary, repl.ErrFenced)

	// Convergence: when the old primary's log survived intact and the link
	// was up for the drain, the standby applied everything durable.
	if mode == modeForcedPromotion {
		if got := cluster.Standby().AppliedLSN(); got != oldDurable {
			t.Fatalf("standby applied %d, want primary durable %d", got, oldDurable)
		}
	}

	// Zero lost acknowledged writes: every oracle key reads back identical
	// through the promoted cluster.
	oracle.verifyReads(t, func(k []byte) ([]byte, bool, error) { return cluster.Get(ctx, k) })

	// The promoted cluster accepts writes and remains consistent.
	if err := cluster.Put(ctx, []byte("epilogue"), []byte("ok")); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
	if v, ok, _ := cluster.Get(ctx, []byte("epilogue")); !ok || string(v) != "ok" {
		t.Fatal("write after failover not readable")
	}

	// PITR to the recorded checkpoint is byte-identical vs the oracle
	// snapshot taken at mark time — even though the promoted TC has
	// continued appending to the same standby log since.
	dst := shard.NewMassDC()
	res, err := cluster.Standby().PITRToLSN(ck.LSN, dst)
	if err != nil {
		t.Fatalf("PITRToLSN(%d): %v", ck.LSN, err)
	}
	if res.Replay.TruncatedAt != ck.LSN {
		t.Fatalf("PITR reconstructed to %d, want %d", res.Replay.TruncatedAt, ck.LSN)
	}
	pitrOracle.verifyScan(t, func(fn func(k, v []byte) bool) error { return dst.Scan(nil, 0, fn) })

	// Timestamps stayed monotonic across failover: a fresh commit on the
	// promoted TC must postdate everything the standby applied.
	if ts := cluster.Standby().MaxAppliedTS(); ts > 0 {
		tcNow := cluster.Primary()
		tx, err := tcNow.Begin()
		if err != nil {
			t.Fatalf("begin on promoted primary: %v", err)
		}
		tx.Write([]byte("ts-probe"), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit on promoted primary: %v", err)
		}
	}

	// The fenced counter moved (the zombie commit above at minimum).
	if cluster.Stats().FencedWrites.Value() == 0 {
		t.Fatal("no fenced writes counted for the demoted primary")
	}
	if cluster.Stats().Promotions.Value() != 1 {
		t.Fatalf("promotions = %d, want 1", cluster.Stats().Promotions.Value())
	}
}
