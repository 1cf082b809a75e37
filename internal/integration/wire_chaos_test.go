package integration

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/engine"
	"costperf/internal/fault"
	"costperf/internal/masstree"
	"costperf/internal/wire"
)

// Chaos-through-the-network harness: real connections (net.Pipe wrapped in
// fault.Conn on both ends, each direction with its own seeded injector)
// between resilient wire clients and a wire server fronting the engine.
// The network drops, duplicates, reorders, half-closes, and stalls frames;
// mid-run a partition eats a burst of requests and triggers a retry storm.
// Invariants checked per seed:
//
//   - Exactly-once writes: every (key, version) the store applied was
//     applied exactly once, even though clients retried through drops,
//     partitions, and evicted connections — the server's dedup window
//     absorbs the duplicates.
//   - Zero lost acked writes: every version a client saw acknowledged was
//     applied, and each key's final stored version sits between the
//     highest acked and highest issued version for that key.
//   - Read monotonicity: a read never observes a version older than the
//     highest version acked before the read started.
//   - Bounded retry amplification: frames sent stay within a small
//     constant factor of logical operations, even across the induced
//     retry storm.
//   - Clean teardown: the server drains gracefully (in-flight work
//     finishes and acks) and no goroutines survive the sweep.
//
// CHECK_WIRE=1 in scripts/check.sh runs the full 50 seeds under -race;
// plain `go test` runs a 10-seed slice (3 in -short).

const (
	wireChaosKeys      = 24
	wireChaosWriters   = 4
	wireChaosReaders   = 2
	wireChaosOpsPerWkr = 80
	wireChaosWatchdog  = 90 * time.Second
)

func TestWireChaosSweep(t *testing.T) {
	sweep{
		first: 1, n: 10, short: 3, soak: 50,
		name:     func(seed int64) string { return fmt.Sprintf("seed%03d", seed) },
		watchdog: wireChaosWatchdog, leakCheck: true,
	}.run(t, runWireChaosSeed)
}

func wireKey(idx int) []byte { return []byte(fmt.Sprintf("w%04d", idx)) }

func runWireChaosSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	// Engine over MassTree, tight enough that pipelined load queues and
	// occasionally sheds — overload must cross the wire typed, not wedge.
	tree := masstree.New(nil)
	applied := newApplyLedger(engine.WrapMassTree(tree))
	eng, err := engine.New(engine.Config{
		Store:         applied,
		MaxConcurrent: 4,
		MaxQueue:      8,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}

	srv, err := wire.NewServer(wire.ServerConfig{
		// Only wire.Backend's methods: this server sends overload
		// responses without the engine's retry-after hint.
		Backend:           struct{ wire.Backend }{eng},
		MaxInFlight:       8,
		WriteStallTimeout: 100 * time.Millisecond,
		DedupWindow:       4096,
	})
	if err != nil {
		t.Fatalf("wire.NewServer: %v", err)
	}

	// Each direction gets its own seeded injector: requests and responses
	// fail independently, like the two halves of a real socket.
	reqInj := fault.NewNetInjector(seed)
	respInj := fault.NewNetInjector(seed + 1000)
	reqInj.SetRates(0.03*rng.Float64(), 0.03*rng.Float64(), 0.03*rng.Float64())
	respInj.SetRates(0.03*rng.Float64(), 0.03*rng.Float64(), 0.03*rng.Float64())
	reqInj.SetConnFaults(0.002, 0.002)
	respInj.SetConnFaults(0.002, 0.002)

	dial := func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		srv.ServeConn(fault.WrapConn(srvEnd, respInj))
		return fault.WrapConn(cliEnd, reqInj), nil
	}

	newClient := func(i int) *wire.Client {
		cl, err := wire.NewClient(wire.ClientConfig{
			Dial:           dial,
			Seed:           seed*100 + int64(i),
			MaxInFlight:    16,
			AttemptTimeout: 150 * time.Millisecond,
			MaxRetries:     8,
			RetryBase:      2 * time.Millisecond,
			RetryMax:       50 * time.Millisecond,
			HedgeAfter:     40 * time.Millisecond,
			ConsecTimeouts: 2,
		})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		return cl
	}
	writerCl, readerCl := newClient(0), newClient(1)

	ledger := newVersionLedger(wireChaosKeys)
	// dirty marks keys where some Put failed client-side: the outcome is
	// unknown and a late in-flight frame may still apply after newer
	// writes (the store is last-writer-wins), so ordering assertions
	// weaken to bounds for those keys. Acked⇒applied and exactly-once
	// hold regardless.
	var dirty [wireChaosKeys]atomic.Bool
	ctx := context.Background()
	var wg sync.WaitGroup

	// Writers: each owns a disjoint key slice, versions strictly increasing
	// per key, next version issued only after the previous settled — so the
	// happens-before chain apply(v) < ack(v) < issue(v+1) holds and the
	// final stored version must land in [acked, issued].
	keysPerWriter := wireChaosKeys / wireChaosWriters
	for w := 0; w < wireChaosWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			lo := w * keysPerWriter
			for op := 0; op < wireChaosOpsPerWkr; op++ {
				// Worker 0 detonates the retry storm a third of the way in:
				// the partition eats the next burst of requests, every
				// in-flight op times out and retries into the dead window.
				if w == 0 && op == wireChaosOpsPerWkr/3 {
					reqInj.PartitionFor(int64(20 + wrng.Intn(20)))
				}
				idx := lo + wrng.Intn(keysPerWriter)
				version := ledger.issue(idx)
				// One writer per key and issue-after-settle: acked moves in
				// version order, so a plain store is safe.
				if err := writerCl.Put(ctx, wireKey(idx), versionVal(idx, version)); err == nil {
					ledger.ack(idx, version)
				} else {
					dirty[idx].Store(true)
				}
			}
		}(w)
	}

	// Readers: monotonicity — a read must never observe a version older
	// than the highest acked before it started, nor newer than issued.
	for r := 0; r < wireChaosReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed*2000 + int64(r)))
			for op := 0; op < wireChaosOpsPerWkr; op++ {
				idx := rrng.Intn(wireChaosKeys)
				floor := ledger.acked[idx].Load()
				v, ok, err := readerCl.Get(ctx, wireKey(idx))
				if err != nil || !ok {
					continue // typed failures and misses are legitimate under chaos
				}
				if dirty[idx].Load() {
					floor = 0
				}
				if err := ledger.checkVersion(idx, v, floor); err != nil {
					t.Errorf("seed %d: read of key %d %v", seed, idx, err)
					return
				}
				if op%10 == 0 {
					readerCl.Scan(ctx, wireKey(0), 5, func(k, v []byte) bool { return true })
				}
			}
		}(r)
	}

	wg.Wait()
	reqInj.Heal()

	// Graceful drain: whatever is still settling finishes and acks, then
	// every connection closes.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = srv.Drain(dctx)
	dcancel()
	if err != nil {
		t.Fatalf("seed %d: drain: %v (server %v)", seed, err, srv.Stats())
	}

	// --- Reconciliation ---

	// Exactly-once: no (key, version) applied twice, storm or not.
	applied.mu.Lock()
	applies := applied.applies
	applied.mu.Unlock()
	for val, n := range applies {
		if n != 1 {
			idx, ver, _ := decodeVersionVal([]byte(val))
			t.Fatalf("seed %d: key %d version %d applied %d times", seed, idx, ver, n)
		}
	}

	// Zero lost acked writes, and (for keys whose every Put settled with a
	// known outcome) the final state sits between the highest acked and
	// highest issued version.
	ledger.checkApplied(t, applied)
	for idx := 0; idx < wireChaosKeys; idx++ {
		high := ledger.acked[idx].Load()
		v, ok := tree.Get(wireKey(idx))
		if !ok {
			if high > 0 {
				t.Fatalf("seed %d: key %d has acked version %d but no stored value", seed, idx, high)
			}
			continue
		}
		if dirty[idx].Load() {
			high = 0
		}
		if err := ledger.checkVersion(idx, v, high); err != nil {
			t.Fatalf("seed %d: stored key %d %v", seed, idx, err)
		}
	}

	// Bounded retry amplification: across drops, a partition burst, and
	// connection evictions, sends stay within a small factor of ops.
	for name, cl := range map[string]*wire.Client{"writer": writerCl, "reader": readerCl} {
		st := cl.Stats()
		ops, sent := st.Ops.Value(), st.Sent.Value()
		if ops == 0 {
			t.Fatalf("seed %d: %s client did nothing", seed, name)
		}
		if sent > 6*ops {
			t.Fatalf("seed %d: %s retry amplification %d sends / %d ops exceeds 6x (%v)",
				seed, name, sent, ops, st)
		}
	}

	writerCl.Close()
	readerCl.Close()
	srv.Close()
	eng.Close()

	if srv.Stats().CurConns.Value() != 0 {
		t.Fatalf("seed %d: connections survived teardown: %v", seed, srv.Stats())
	}
}
