package integration

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/engine"
	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/wire"
)

// Metastable-failure harness: a capacity-2 store with real wall-clock
// service time behind the engine and a wire server, driven by classed
// wire clients through three phases — baseline, flash-crowd storm (4x
// the clients, plus a request-path partition blip), recovery. The same
// harness runs twice per seed:
//
//   - Adaptive: gradient limiter + retry budgets + server retry-after
//     hints. Invariants: recovery goodput re-converges to >=90% of
//     baseline goodput (cross-seed median; hard 0.80 floor per seed),
//     goodput stays above a floor *during* the storm,
//     the brownout ladder sheds strictly lowest-class-first (high sheds
//     imply normal and scan sheds), zero lost acked writes, and the
//     server's retry-after hint actually reached a client.
//   - Static trap: fixed limit wide enough to admit everything, clients
//     with aggressive attempt timeouts and no retry budget — the
//     pre-PR configuration. The admitted backlog pushes every attempt
//     past its timeout while abandoned frames keep burning store
//     capacity, so goodput collapses and stays collapsed: the run must
//     end demonstrably below the adaptive run on the identical load,
//     proving the mechanism rather than the test.
//
// CHECK_OVERLOAD=1 in scripts/check.sh runs the full 50 seeds under
// -race; plain `go test` runs a 4-seed slice (1 in -short).

const (
	// Store capacity: 2 slots x >=1ms per op caps throughput at 2000
	// ops/s no matter how coarse this kernel's sleep granularity is —
	// every sizing argument below only needs that upper bound.
	ovServiceSlots = 2
	ovService      = time.Millisecond
	ovKeys         = 16

	// Scan is the first class the ladder sacrifices, and near the
	// limiter's equilibrium the steady queue hovers around the scan
	// bound, so scan outcomes are the noisiest part of goodput — one
	// scanner keeps that noise well inside the re-convergence margin
	// while still exercising the bottom rung every phase.
	ovSteadyWriters = 8 // normal-class steady writers
	ovLowWriters    = 2 // low-class background writers
	ovHighWriters   = 2 // high-class latency-sensitive writers
	ovReaders       = 3 // normal-class readers
	ovScanners      = 1 // scan-class report readers
	ovCrowd         = 96

	// Duration-based phases: workers hammer until the deadline, so the
	// recovery window starts the instant the storm ends — re-convergence
	// speed is part of what is being measured. The static trap's
	// abandoned-work backlog in the store (~storm attempt arrivals minus
	// at most 2000/s of drain) needs several multiples of ovRecoveryDur
	// to clear, which is exactly why it cannot re-converge in the window
	// the adaptive stack does.
	ovWarmDur     = 100 * time.Millisecond
	ovBaselineDur = 300 * time.Millisecond
	ovStormDur    = 400 * time.Millisecond
	// Recovery is longer than baseline so the limiter's post-storm
	// walk-up transient (tens of ms) cannot eat the >=90% margin, while
	// staying well inside the static trap's backlog drain time.
	ovRecoveryDur = 450 * time.Millisecond

	// Generous and identical for both modes: at the adaptive operating
	// point (limit ~4, 16 steady workers) queue wait stays far below
	// this, while the static storm backlog pushes every attempt past it.
	ovAttemptTimeout = 25 * time.Millisecond
	ovWatchdog       = 120 * time.Second
)

func TestOverloadChaosSweep(t *testing.T) {
	var ratios []float64
	sweep{
		first: 1, n: 4, short: 1, soak: 50,
		name:     func(seed int64) string { return fmt.Sprintf("seed%03d", seed) },
		watchdog: ovWatchdog, leakCheck: true,
	}.run(t, func(t *testing.T, seed int64) {
		ratios = append(ratios, runOverloadSeed(t, seed))
	})
	// The >=90% re-convergence claim is asserted on the median across
	// seeds (each seed also has a hard 0.80 floor): a single seed whose
	// measurement window caught a scheduler or compile-overlap hiccup on
	// a busy runner cannot flake the gate, but a real regression shifts
	// the whole distribution and fails it.
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		if med := ratios[len(ratios)/2]; med < 0.9 {
			t.Errorf("median re-convergence %.2f < 0.90 across %d seeds (min %.2f)",
				med, len(ratios), ratios[0])
		}
	}
}

// ovStore is the capacity-limited store: a map behind ovServiceSlots
// service slots, each op holding one slot for ovService of wall time.
// Ops past the slots queue FIFO inside the store — in-store latency
// inflates with concurrency, which is the signal the gradient limiter
// feeds on and the wasted work the static trap drowns in. Deliberately
// ctx-blind: an op whose client gave up still burns its slot, exactly
// like a real store that cannot abandon an issued device read.
type ovStore struct {
	slots chan struct{}

	mu sync.Mutex
	m  map[string][]byte
}

func newOvStore() *ovStore {
	return &ovStore{slots: make(chan struct{}, ovServiceSlots), m: make(map[string][]byte)}
}

func (s *ovStore) serve() {
	s.slots <- struct{}{}
	time.Sleep(ovService)
	<-s.slots
}

func (s *ovStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	s.serve()
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[string(key)]
	return append([]byte(nil), v...), ok, nil
}

func (s *ovStore) Put(ctx context.Context, key, val []byte) error {
	s.serve()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (s *ovStore) Delete(ctx context.Context, key []byte) error {
	s.serve()
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, string(key))
	return nil
}

func (s *ovStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	s.serve()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, v := range s.m {
		if n >= limit {
			break
		}
		if !fn([]byte(k), v) {
			break
		}
		n++
	}
	return nil
}

func (s *ovStore) Health() *metrics.Health { return nil }
func (s *ovStore) Close() error            { return nil }

func ovKey(idx int) []byte { return []byte(fmt.Sprintf("ov%03d", idx)) }

// ovPhase is one phase's client-side outcome tally. highGood counts
// successes on the high-class clients only — the storm's goodput floor
// is about the latency-sensitive tenant staying served while lower
// classes brown out.
type ovPhase struct {
	good, bad, shed atomic.Int64
	highGood        atomic.Int64
	elapsed         time.Duration
}

func (p *ovPhase) goodput() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.good.Load()) / p.elapsed.Seconds()
}

// ovRig is one mode's full stack plus its version ledger.
type ovRig struct {
	applied  *applyLedger // over the ovStore
	eng      *engine.Engine
	srv      *wire.Server
	crowdNet *fault.NetInjector

	clients map[string]*wire.Client // by class name ("" = normal steady)
	crowd   *wire.Client

	ledger *versionLedger
}

// newOvRig builds the stack. adaptive selects between the PR's closed
// loop (gradient limiter, retry budgets, honored hints) and the static
// trap (wide fixed limit, budget-less aggressive retries).
func newOvRig(t *testing.T, seed int64, adaptive bool) *ovRig {
	t.Helper()
	r := &ovRig{
		applied: newApplyLedger(newOvStore()),
		clients: make(map[string]*wire.Client),
		ledger:  newVersionLedger(ovKeys),
	}

	ecfg := engine.Config{Store: r.applied}
	if adaptive {
		ecfg.MaxConcurrent = 16
		ecfg.MaxQueue = 32
		ecfg.Adaptive = true
		ecfg.AdaptiveMin = 2
		ecfg.AdaptiveMax = 32
		ecfg.LimitWindow = 32
	} else {
		// The trap: the limiter is effectively disabled — a limit no load
		// in this harness can reach, so admission never sheds and never
		// paces. Every request crashes straight into the store's internal
		// FIFO, and unlike the engine's admission queue (whose waiters
		// honor the propagated request deadline, see wire.Server), the
		// store cannot abandon work it has accepted. Abandoned attempts
		// pile up there and keep burning capacity long after their
		// clients gave up — the metastable reservoir.
		ecfg.MaxConcurrent = 2048
		ecfg.MaxQueue = 4096
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	r.eng = eng

	// The per-conn frame cap sits far above both engines' admission
	// bounds: net.Pipe is unbuffered, so a tight cap would stall frames
	// in the client instead of letting them reach admission — the
	// abandoned-work waste under test happens server-side or not at all.
	srv, err := wire.NewServer(wire.ServerConfig{
		Backend:           eng, // forwards the engine's retry-after hint with every shed
		MaxInFlight:       2048,
		WriteStallTimeout: 200 * time.Millisecond,
		DedupWindow:       4096,
	})
	if err != nil {
		t.Fatalf("wire.NewServer: %v", err)
	}
	r.srv = srv

	dial := func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		srv.ServeConn(srvEnd)
		return cliEnd, nil
	}
	// The crowd dials through a seeded fault injector so the storm can
	// include a request-path partition blip.
	r.crowdNet = fault.NewNetInjector(seed + 7000)
	crowdDial := func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		srv.ServeConn(srvEnd)
		return fault.WrapConn(cliEnd, r.crowdNet), nil
	}

	mk := func(i int64, class string, inflight int, dialFn func() (net.Conn, error)) *wire.Client {
		cfg := wire.ClientConfig{
			Dial:           dialFn,
			Seed:           seed*100 + i,
			MaxInFlight:    inflight,
			AttemptTimeout: ovAttemptTimeout,
			Class:          class,
		}
		if adaptive {
			cfg.MaxRetries = 3
			cfg.RetryBase = time.Millisecond
			cfg.RetryMax = 20 * time.Millisecond
			cfg.RetryBudget = 0.2
		} else {
			// Budget-less herd retries on a tight base: the amplifier.
			cfg.MaxRetries = 6
			cfg.RetryBase = 500 * time.Microsecond
			cfg.RetryMax = 2 * time.Millisecond
		}
		cl, err := wire.NewClient(cfg)
		if err != nil {
			t.Fatalf("client class %q: %v", class, err)
		}
		return cl
	}
	for i, class := range []string{"normal", "low", "high", "scan"} {
		r.clients[class] = mk(int64(i), class, 64, dial)
	}
	r.crowd = mk(9, "normal", 2*ovCrowd, crowdDial)
	return r
}

func (r *ovRig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.crowd.Close()
	r.srv.Close()
	r.eng.Close()
}

// write issues one versioned write on the worker's own key and records
// the ack. Single writer per key, next version only after the previous
// settled, so acked-implies-applied reconciles exactly.
func (r *ovRig) write(ctx context.Context, cl *wire.Client, idx int, ph *ovPhase, high bool) {
	version := r.ledger.issue(idx)
	err := cl.Put(ctx, ovKey(idx), versionVal(idx, version))
	ovTally(err, ph)
	if err == nil {
		r.ledger.ack(idx, version)
		if high {
			ph.highGood.Add(1)
		}
	}
}

func ovTally(err error, ph *ovPhase) {
	switch {
	case err == nil:
		ph.good.Add(1)
	case isOverloadErr(err):
		ph.shed.Add(1)
	default:
		ph.bad.Add(1)
	}
}

func isOverloadErr(err error) bool {
	return err != nil && (errors.Is(err, engine.ErrOverload) || errors.Is(err, wire.ErrUnavailable))
}

// runSteady drives the steady tenant set — classed writers, readers,
// and scanners — until the duration elapses, tallying into ph. The
// elapsed recorded for goodput includes the tail ops that straddle the
// deadline, so a backlogged system cannot flatter its rate.
func (r *ovRig) runSteady(dur time.Duration, ph *ovPhase) {
	ctx := context.Background()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	worker := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fn()
			}
		}()
	}
	start := time.Now()
	for w := 0; w < ovSteadyWriters; w++ {
		idx := w
		worker(func() { r.write(ctx, r.clients["normal"], idx, ph, false) })
	}
	for w := 0; w < ovLowWriters; w++ {
		idx := ovSteadyWriters + w
		worker(func() { r.write(ctx, r.clients["low"], idx, ph, false) })
	}
	for w := 0; w < ovHighWriters; w++ {
		idx := ovSteadyWriters + ovLowWriters + w
		worker(func() { r.write(ctx, r.clients["high"], idx, ph, true) })
	}
	for w := 0; w < ovReaders; w++ {
		rng := rand.New(rand.NewSource(int64(w) * 31))
		worker(func() {
			_, _, err := r.clients["normal"].Get(ctx, ovKey(rng.Intn(ovKeys)))
			ovTally(err, ph)
		})
	}
	for w := 0; w < ovScanners; w++ {
		worker(func() {
			err := r.clients["scan"].Scan(ctx, ovKey(0), 8, func(k, v []byte) bool { return true })
			ovTally(err, ph)
		})
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
}

// runStorm runs the steady set and the flash crowd concurrently for the
// storm duration; the crowd partitions its request path partway through.
// Only the steady tenants' outcomes land in ph — the goodput floor is
// about what the paying traffic still gets while the crowd rages.
func (r *ovRig) runStorm(rng *rand.Rand, ph *ovPhase) {
	var crowdWG sync.WaitGroup
	crowdPh := &ovPhase{} // crowd outcomes tallied separately, unasserted
	ctx := context.Background()
	deadline := time.Now().Add(ovStormDur)
	partitionAt := time.Now().Add(ovStormDur / 3)
	for w := 0; w < ovCrowd; w++ {
		crowdWG.Add(1)
		go func(w int) {
			defer crowdWG.Done()
			crng := rand.New(rand.NewSource(int64(w)*977 + 5))
			for time.Now().Before(deadline) {
				if w == 0 && !partitionAt.IsZero() && time.Now().After(partitionAt) {
					partitionAt = time.Time{}
					r.crowdNet.PartitionFor(int64(10 + rng.Intn(10)))
				}
				_, _, err := r.crowd.Get(ctx, ovKey(crng.Intn(ovKeys)))
				ovTally(err, crowdPh)
			}
		}(w)
	}
	r.runSteady(ovStormDur, ph)
	crowdWG.Wait()
	r.crowdNet.Heal()
}

// runOvMode runs warmup/baseline/storm/recovery for one mode. Recovery
// is measured from the instant the storm's drivers stop: how fast the
// stack sheds its backlog IS the re-convergence property.
func runOvMode(t *testing.T, seed int64, adaptive bool) (r *ovRig, baseline, storm, recovery *ovPhase) {
	r = newOvRig(t, seed, adaptive)
	rng := rand.New(rand.NewSource(seed))

	r.runSteady(ovWarmDur, &ovPhase{}) // warm caches, learn the latency floor
	baseline = &ovPhase{}
	r.runSteady(ovBaselineDur, baseline)

	storm = &ovPhase{}
	r.runStorm(rng, storm)

	recovery = &ovPhase{}
	r.runSteady(ovRecoveryDur, recovery)
	return r, baseline, storm, recovery
}

func runOverloadSeed(t *testing.T, seed int64) float64 {
	// --- Adaptive: the PR's closed loop must re-converge. ---
	r, base, storm, recov := runOvMode(t, seed, true)

	if base.good.Load() == 0 {
		t.Fatalf("seed %d: adaptive baseline made no progress", seed)
	}
	// Goodput floor during the storm: the latency-sensitive high-class
	// tenant keeps getting real service while lower classes brown out —
	// degradation, not outage.
	if storm.highGood.Load() < 5 {
		t.Errorf("seed %d: storm goodput floor broken: high-class good=%d (total good=%d bad=%d shed=%d)",
			seed, storm.highGood.Load(), storm.good.Load(), storm.bad.Load(), storm.shed.Load())
	}
	// Re-convergence: recovery goodput back near pre-storm goodput, in a
	// window that opens the instant the storm stops. Per-seed this is a
	// hard 0.80 floor; the >=0.90 claim is enforced on the cross-seed
	// median by the parent (one noisy measurement window must not flake
	// the sweep, a real regression moves every seed).
	adaptiveRatio := recov.goodput() / base.goodput()
	if adaptiveRatio < 0.8 {
		t.Errorf("seed %d: adaptive failed to re-converge: recovery %.0f ops/s vs baseline %.0f ops/s (%.2f)",
			seed, recov.goodput(), base.goodput(), adaptiveRatio)
	}

	// Brownout ladder: sheds walk strictly upward from the lowest class.
	lim := r.eng.Limiter().Stats()
	shedScan, shedLow := lim.Shed.Scan.Value(), lim.Shed.Low.Value()
	shedNormal, shedHigh := lim.Shed.Normal.Value(), lim.Shed.High.Value()
	if shedHigh > 0 && (shedNormal == 0 || shedScan == 0) {
		t.Errorf("seed %d: ladder inverted: high shed %d with normal=%d scan=%d low=%d",
			seed, shedHigh, shedNormal, shedScan, shedLow)
	}
	if shedNormal > 0 && shedScan == 0 {
		t.Errorf("seed %d: ladder inverted: normal shed %d with zero scan sheds", seed, shedNormal)
	}

	// Zero lost acked writes: every acked version was applied by the
	// store.
	r.ledger.checkApplied(t, r.applied)

	// The closed loop is live: the server advised at least one client
	// (hints only flow when something was shed server-side).
	if lim.Shed.Scan.Value()+lim.Shed.Low.Value()+lim.Shed.Normal.Value()+lim.Shed.High.Value() > 0 {
		hinted := false
		for _, cl := range r.clients {
			if cl.Stats().HintedMicros.Value() > 0 {
				hinted = true
				break
			}
		}
		if !hinted && r.crowd.Stats().HintedMicros.Value() == 0 {
			t.Errorf("seed %d: server shed but no client ever saw a retry-after hint", seed)
		}
	}
	r.close()

	// --- Static trap: the identical harness, limiter disabled, must
	// demonstrably fail to re-converge in the same window. Its baseline
	// is healthy (load fits the store), so the collapse is entirely the
	// storm's abandoned-frame backlog, which takes far longer than the
	// recovery window to drain at <=2000 ops/s.
	rs, sbase, _, srecov := runOvMode(t, seed, false)
	if sbase.good.Load() == 0 {
		t.Fatalf("seed %d: static baseline made no progress", seed)
	}
	staticRatio := srecov.goodput() / sbase.goodput()
	if staticRatio > 0.5*adaptiveRatio {
		t.Errorf("seed %d: static trap unexpectedly re-converged: static recovery/baseline %.2f vs adaptive %.2f",
			seed, staticRatio, adaptiveRatio)
	}
	rs.close()

	t.Logf("adaptive %.0f->%.0f ops/s (%.2f), storm high-good=%d shed[s/l/n/h]=%d/%d/%d/%d; static %.0f->%.0f ops/s (%.2f)",
		base.goodput(), recov.goodput(), adaptiveRatio, storm.highGood.Load(),
		shedScan, shedLow, shedNormal, shedHigh,
		sbase.goodput(), srecov.goodput(), staticRatio)
	return adaptiveRatio
}
