package integration

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"costperf/internal/fault"
	"costperf/internal/masstree"
	"costperf/internal/repl"
	"costperf/internal/ssd"
)

// failoverFull runs the full 100-seed soak (scripts/check.sh sets it under
// the CHECK_FAILOVER=1 gate); the default keeps tier-1 runs quick.
var failoverFull = flag.Bool("failover.full", false, "run the full 100-seed failover soak")

// mtDC adapts the main-memory MassTree to tc.DataComponent (+ Scanner),
// so both replicas of the cluster run a real index as their data
// component and the chaos sweep's oracle uses the same structure.
type mtDC struct{ t *masstree.Tree }

func newMtDC() *mtDC { return &mtDC{t: masstree.New(nil)} }

func (d *mtDC) Get(key []byte) ([]byte, bool, error) {
	v, ok := d.t.Get(key)
	return v, ok, nil
}
func (d *mtDC) BlindWrite(key, val []byte) error { d.t.Put(key, val); return nil }
func (d *mtDC) Delete(key []byte) error          { d.t.Delete(key); return nil }
func (d *mtDC) Scan(start []byte, limit int, fn func(key, val []byte) bool) error {
	d.t.Scan(start, limit, fn)
	return nil
}

// dump materializes a MassTree's full contents for byte-wise comparison.
func (d *mtDC) dump() map[string][]byte {
	out := map[string][]byte{}
	d.t.Scan(nil, 0, func(k, v []byte) bool {
		out[string(k)] = append([]byte(nil), v...)
		return true
	})
	return out
}

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
//   - PITR to a checkpoint recorded mid-run is byte-identical against a
//     MassTree oracle snapshotted at the same moment.
//
// CHECK_FAILOVER=1 in scripts/check.sh runs the full 100 seeds under
// -race; plain `go test` runs a 12-seed slice (3 in -short).
func TestFailoverChaosSweep(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	if *failoverFull {
		seeds = 100
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		mode := failoverMode(seed % int64(failoverModes))
		t.Run(fmt.Sprintf("seed%03d-%s", seed, mode), func(t *testing.T) {
			t.Parallel()
			runFailoverSeed(t, seed, mode)
		})
	}
}

func runFailoverSeed(t *testing.T, seed int64, mode failoverMode) {
	rng := rand.New(rand.NewSource(seed))
	net := fault.NewNetInjector(seed)
	// Lossy from the start: up to ~8% drops, duplicates, and reorders.
	net.SetRates(0.08*rng.Float64(), 0.08*rng.Float64(), 0.08*rng.Float64())

	primaryDC, standbyDC := newMtDC(), newMtDC()
	primaryLog := ssd.New(ssd.Config{Name: "plog", MaxIOPS: 1e6, LatencySec: 1e-6})
	standbyLog := ssd.New(ssd.Config{Name: "slog", MaxIOPS: 1e6, LatencySec: 1e-6})
	inj := fault.NewInjector(seed)
	primaryLog.SetFaultInjector(inj)

	cluster, err := repl.NewCluster(repl.ClusterConfig{
		PrimaryDC: primaryDC, PrimaryLog: primaryLog,
		StandbyDC: standbyDC, StandbyLog: standbyLog,
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
	oracle := newMtDC() // records ONLY acknowledged writes
	key := func(i int) []byte { return []byte(fmt.Sprintf("s%03d-k%04d", seed, i)) }

	write := func(i int) {
		t.Helper()
		v := make([]byte, 1+rng.Intn(120))
		for j := range v {
			v[j] = byte(rng.Intn(256))
		}
		if err := cluster.Put(ctx, key(i), v); err == nil {
			oracle.t.Put(key(i), v)
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
	pitrOracle := oracle.dump()

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
	if tx, err := oldPrimary.Begin(); err == nil {
		tx.Write([]byte("zombie"), []byte("write"))
		if err := tx.Commit(); !errors.Is(err, repl.ErrFenced) {
			t.Fatalf("stale-primary commit = %v, want ErrFenced", err)
		}
	}

	// Convergence: when the old primary's log survived intact and the link
	// was up for the drain, the standby applied everything durable.
	if mode == modeForcedPromotion {
		if got := cluster.Standby().AppliedLSN(); got != oldDurable {
			t.Fatalf("standby applied %d, want primary durable %d", got, oldDurable)
		}
	}

	// Zero lost acknowledged writes: every oracle key reads back identical
	// through the promoted cluster.
	for k, want := range oracle.dump() {
		got, ok, err := cluster.Get(ctx, []byte(k))
		if err != nil {
			t.Fatalf("get %q after failover: %v", k, err)
		}
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("acked write %q lost or changed after failover (ok=%v)", k, ok)
		}
	}

	// The promoted cluster accepts writes and remains consistent.
	if err := cluster.Put(ctx, []byte("epilogue"), []byte("ok")); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
	if v, ok, _ := cluster.Get(ctx, []byte("epilogue")); !ok || string(v) != "ok" {
		t.Fatal("write after failover not readable")
	}

	// PITR to the recorded checkpoint is byte-identical vs the MassTree
	// oracle snapshot taken at mark time — even though the promoted TC has
	// continued appending to the same standby log since.
	dst := newMtDC()
	res, err := cluster.Standby().PITRToLSN(ck.LSN, dst)
	if err != nil {
		t.Fatalf("PITRToLSN(%d): %v", ck.LSN, err)
	}
	if res.Replay.TruncatedAt != ck.LSN {
		t.Fatalf("PITR reconstructed to %d, want %d", res.Replay.TruncatedAt, ck.LSN)
	}
	got := dst.dump()
	if len(got) != len(pitrOracle) {
		t.Fatalf("PITR state has %d keys, oracle %d", len(got), len(pitrOracle))
	}
	for k, want := range pitrOracle {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("PITR key %q = %x, oracle %x", k, got[k], want)
		}
	}

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
