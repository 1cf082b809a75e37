package integration

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/bwtree"
	"costperf/internal/core"
	"costperf/internal/engine"
	"costperf/internal/fault"
	"costperf/internal/llama/logstore"
	"costperf/internal/lsm"
	"costperf/internal/obs"
	"costperf/internal/ssd"
)

// Chaos-under-load harness: N goroutines drive mixed get/put/scan traffic
// through the engine front-end while the fault injector fires transient
// errors, latency spikes, and a mid-run device crash. Invariants checked:
//
//   - Monotonic versions: every observed value decodes to (key, version)
//     with the right key and a version no older than the highest version
//     acknowledged before the read started, and never newer than the
//     highest version issued.
//   - No lost acknowledged writes: after crash + repair + recovery, every
//     key's durable version is at least the checkpoint floor — the highest
//     acknowledged version snapshotted before the last checkpoint that
//     durably committed (bwtree FlushAll / lsm Flush).
//   - Overload sheds instead of deadlocking: overload-configured runs
//     (tiny concurrency limit and queue) must shed at least one request,
//     and every run must finish under a watchdog.
//
// Each writer owns a disjoint key range (single writer per key), so
// per-key version sequences are strictly increasing by construction and
// any regression observed by a reader is a store bug.

const (
	chaosWriters       = 6
	chaosKeysPerWriter = 8
	chaosKeys          = chaosWriters * chaosKeysPerWriter
	chaosOpsPerWorker  = 400
	chaosWatchdog      = 2 * time.Minute
)

func chaosKey(idx int) []byte { return []byte(fmt.Sprintf("k%05d", idx)) }

func chaosVal(idx int, version uint64) []byte {
	v := make([]byte, 12)
	binary.BigEndian.PutUint32(v, uint32(idx))
	binary.BigEndian.PutUint64(v[4:], version)
	return v
}

func decodeChaosVal(t *testing.T, v []byte) (int, uint64) {
	t.Helper()
	if len(v) != 12 {
		t.Fatalf("value has %d bytes, want 12", len(v))
	}
	return int(binary.BigEndian.Uint32(v)), binary.BigEndian.Uint64(v[4:])
}

// slowStore adds a little real wall-clock latency to every operation.
// The stores themselves run in virtual time and finish in nanoseconds of
// wall clock, so without it an overload run with MaxConcurrent=1 would
// almost never see two requests collide; the sleep makes the admission
// queue genuinely fill and shed.
type slowStore struct {
	engine.Store
	d time.Duration
}

func (s *slowStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	time.Sleep(s.d)
	return s.Store.Get(ctx, key)
}

func (s *slowStore) Put(ctx context.Context, key, val []byte) error {
	time.Sleep(s.d)
	return s.Store.Put(ctx, key, val)
}

// chaosState is the shared issued/acked/floor bookkeeping.
type chaosState struct {
	issued  [chaosKeys]atomic.Uint64 // highest version handed to a Put
	acked   [chaosKeys]atomic.Uint64 // highest version whose Put returned nil
	floorMu sync.Mutex
	floor   [chaosKeys]uint64 // acked snapshot at the last durable checkpoint
	crashed atomic.Bool
}

func (s *chaosState) snapshotAcked() [chaosKeys]uint64 {
	var out [chaosKeys]uint64
	for i := range out {
		out[i] = s.acked[i].Load()
	}
	return out
}

func (s *chaosState) promoteFloor(snap [chaosKeys]uint64) {
	s.floorMu.Lock()
	s.floor = snap
	s.floorMu.Unlock()
}

func (s *chaosState) floorOf(idx int) uint64 {
	s.floorMu.Lock()
	defer s.floorMu.Unlock()
	return s.floor[idx]
}

// chaosVariant abstracts the two recoverable stores under test.
type chaosVariant struct {
	name string
	// build creates the store over dev (traced by tr) and returns its engine
	// Store plus a checkpoint func (the store's durable commit point).
	build func(t *testing.T, dev ssd.Dev, tr *obs.Tracer) (engine.Store, func() error)
	// recover reopens the store from the repaired device and returns a
	// lookup func, or empty=true when no commit point ever became durable.
	recover func(t *testing.T, dev ssd.Dev) (lookup func(key []byte) ([]byte, bool, error), empty bool)
}

func bwtreeChaosVariant() chaosVariant {
	logCfg := func(dev ssd.Dev) logstore.Config {
		return logstore.Config{Device: dev, BufferBytes: 4096, SegmentBytes: 16384}
	}
	return chaosVariant{
		name: "bwtree",
		build: func(t *testing.T, dev ssd.Dev, obsTr *obs.Tracer) (engine.Store, func() error) {
			st, err := logstore.Open(logCfg(dev))
			if err != nil {
				t.Fatalf("logstore.Open: %v", err)
			}
			tr, err := bwtree.New(bwtree.Config{Store: st, ConsolidateAfter: 4, Obs: obsTr})
			if err != nil {
				t.Fatalf("bwtree.New: %v", err)
			}
			obsTr.FoldRetries(&tr.Stats().Retry)
			obsTr.FoldHealth(&tr.Stats().Health)
			return engine.WrapBwTree(tr), tr.FlushAll
		},
		recover: func(t *testing.T, dev ssd.Dev) (func([]byte) ([]byte, bool, error), bool) {
			st, err := logstore.Open(logCfg(dev))
			if err != nil {
				t.Fatalf("logstore re-open: %v", err)
			}
			tr, err := bwtree.Open(bwtree.Config{Store: st, ConsolidateAfter: 4})
			if errors.Is(err, bwtree.ErrNoCheckpoint) {
				return nil, true
			}
			if err != nil {
				t.Fatalf("bwtree.Open after repair: %v", err)
			}
			return tr.Get, false
		},
	}
}

func lsmChaosVariant() chaosVariant {
	cfg := func(dev ssd.Dev) lsm.Config {
		return lsm.Config{Device: dev, MemtableBytes: 4096}
	}
	return chaosVariant{
		name: "lsm",
		build: func(t *testing.T, dev ssd.Dev, obsTr *obs.Tracer) (engine.Store, func() error) {
			c := cfg(dev)
			c.Obs = obsTr
			tr, err := lsm.New(c)
			if err != nil {
				t.Fatalf("lsm.New: %v", err)
			}
			obsTr.FoldRetries(&tr.Stats().Retry)
			obsTr.FoldHealth(&tr.Stats().Health)
			return engine.WrapLSM(tr), tr.Flush
		},
		recover: func(t *testing.T, dev ssd.Dev) (func([]byte) ([]byte, bool, error), bool) {
			tr, err := lsm.Open(cfg(dev))
			if errors.Is(err, lsm.ErrNoManifest) {
				return nil, true
			}
			if err != nil {
				t.Fatalf("lsm.Open after repair: %v", err)
			}
			return tr.Get, false
		},
	}
}

// runChaos executes one seeded chaos run and returns the engine stats.
//
// mirrored runs the store on an ssd.Mirror instead of a bare device: one
// leg takes seeded mid-run latent bit flips (and transient read errors)
// while the background scrubber races the readers to repair them. No crash
// is scheduled — a mirrored crash sweep has its own harness — and the run
// asserts that no operation ever surfaces ssd.ErrCorrupt: single-leg
// damage must be absorbed by failover, read-repair, and the scrubber.
func runChaos(t *testing.T, variant chaosVariant, seed int64, overload, mirrored bool) {
	rng := rand.New(rand.NewSource(seed))
	devCfg := ssd.Config{Name: "chaos", MaxIOPS: 1e6, LatencySec: 1e-6}
	var dev ssd.Dev
	var mir *ssd.Mirror
	if mirrored {
		mir = ssd.NewMirror(devCfg)
		dev = mir
	} else {
		dev = ssd.New(devCfg)
	}
	inj := fault.NewInjector(seed)

	// Observability: the store's tracer observes the device, the engine has
	// its own, and a narrator goroutine periodically logs one cost line per
	// store so overload and fault episodes are visible in the test trace.
	reg := obs.NewRegistry()
	obsTr := reg.Tracer(variant.name)
	dev.SetObserver(obsTr)
	if mirrored {
		obsTr.FoldMirror(mir.MirrorStats())
	}
	store, checkpoint := variant.build(t, dev, obsTr)

	// Faults start only once the store exists. Bare device: transient error
	// rates, virtual latency spikes, and one crash point early enough that
	// the run's write traffic is sure to reach it. Mirror: latency spikes
	// everywhere, plus one leg carrying seeded latent bit flips and
	// transient read errors — damage confined to a single leg is always
	// repairable, which is exactly what the no-ErrCorrupt assertion needs.
	inj.SetLatencySpikes(0.02, 0.001)
	var crashAt int64
	if mirrored {
		flipLeg := int(seed % 2)
		flipInj := fault.NewInjector(seed + 7919)
		flipInj.SetReadErrorRate(0.01)
		flipInj.SetLatencySpikes(0.02, 0.001)
		next := int64(10)
		for k := 0; k < 3+rng.Intn(3); k++ {
			next += int64(20 + rng.Intn(60))
			flipInj.FlipBitOnWrite(next, rng.Int63n(8*ssd.MirrorPageSize))
		}
		dev.SetFaultInjector(inj)                  // both legs: latency spikes
		mir.Leg(flipLeg).SetFaultInjector(flipInj) // one leg: flips + read errors
		mir.StartScrub(20000)
		defer mir.StopScrub()
	} else {
		inj.SetReadErrorRate(0.01)
		inj.SetWriteErrorRate(0.01)
		crashAt = int64(8 + rng.Intn(17)) // device writes until power loss
		inj.CrashAtWrite(crashAt, rng.Intn(64))
		dev.SetFaultInjector(inj)
	}

	cfg := engine.Config{Store: store, Obs: reg.Tracer("engine")}
	if overload {
		cfg.Store = &slowStore{Store: store, d: 20 * time.Microsecond}
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = 1
	} else {
		cfg.MaxConcurrent = 4
		cfg.MaxQueue = 8
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}

	state := &chaosState{}
	ctx := context.Background()

	// Mirrored runs must never surface corruption to a caller: every
	// injected flip lands on one leg, and the mirror owns the repair.
	var corruptSeen atomic.Int64
	noteErr := func(err error) {
		if err != nil && errors.Is(err, ssd.ErrCorrupt) {
			corruptSeen.Add(1)
		}
	}

	// Narrator: every 200ms emit one line per active store with measured F,
	// R, shed/timeout counts, and live $/op against paper rates.
	stopNarr := make(chan struct{})
	var narrWG sync.WaitGroup
	narrWG.Add(1)
	go func() {
		defer narrWG.Done()
		base := core.PaperCosts()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopNarr:
				return
			case <-tick.C:
				for _, line := range reg.Narrate(base) {
					t.Logf("seed %d narrator: %s", seed, line)
				}
			}
		}
	}()

	// Checkpointer: snapshot acked versions, run the store's durable
	// commit point, and promote the snapshot to the recovery floor only if
	// the checkpoint fully committed. The snapshot is taken BEFORE the
	// checkpoint starts, so everything it covers is durable afterwards.
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			snap := state.snapshotAcked()
			if err := checkpoint(); err == nil {
				state.promoteFloor(snap)
			} else if noteErr(err); errors.Is(err, fault.ErrCrashed) {
				state.crashed.Store(true)
				return
			} else if fault.Classify(err) == fault.ClassPersistent {
				return // store latched degraded; no more checkpoints
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var shedSeen, ackedPuts atomic.Int64
	start := make(chan struct{}) // barrier: all workers burst together
	var wg sync.WaitGroup
	for w := 0; w < chaosWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed*131 + int64(w)))
			<-start
			for i := 0; i < chaosOpsPerWorker; i++ {
				if state.crashed.Load() {
					return
				}
				switch op := wrng.Intn(10); {
				case op < 6: // put to an owned key
					idx := w*chaosKeysPerWriter + wrng.Intn(chaosKeysPerWriter)
					ver := state.issued[idx].Load() + 1
					state.issued[idx].Store(ver) // before the Put: observed <= issued
					err := eng.Put(ctx, chaosKey(idx), chaosVal(idx, ver))
					noteErr(err)
					switch {
					case err == nil:
						state.acked[idx].Store(ver)
						ackedPuts.Add(1)
					case errors.Is(err, fault.ErrCrashed):
						state.crashed.Store(true)
						return
					case errors.Is(err, engine.ErrOverload):
						shedSeen.Add(1)
					}
				case op < 9: // read any key, checking monotonic versions
					idx := wrng.Intn(chaosKeys)
					ackedFloor := state.acked[idx].Load() // before the read
					v, ok, err := eng.Get(ctx, chaosKey(idx))
					noteErr(err)
					if errors.Is(err, fault.ErrCrashed) {
						state.crashed.Store(true)
						return
					}
					if err != nil {
						if errors.Is(err, engine.ErrOverload) {
							shedSeen.Add(1)
						}
						continue // transient/overload/degraded: no data seen
					}
					if !ok {
						if ackedFloor > 0 {
							t.Errorf("seed %d: key %d lost: acked version %d, Get found nothing", seed, idx, ackedFloor)
						}
						continue
					}
					ki, ver := decodeChaosVal(t, v)
					if ki != idx {
						t.Errorf("seed %d: key %d returned value of key %d", seed, idx, ki)
					}
					if ver < ackedFloor {
						t.Errorf("seed %d: key %d went back in time: read v%d after v%d was acked", seed, idx, ver, ackedFloor)
					}
					if hi := state.issued[idx].Load(); ver > hi {
						t.Errorf("seed %d: key %d read v%d, but only v%d was ever issued", seed, idx, ver, hi)
					}
				default: // scan a short range
					from := wrng.Intn(chaosKeys)
					err := eng.Scan(ctx, chaosKey(from), 8, func(k, v []byte) bool {
						ki, ver := decodeChaosVal(t, v)
						if string(chaosKey(ki)) != string(k) {
							t.Errorf("seed %d: scan saw key %q with value of key %d", seed, k, ki)
						}
						if hi := state.issued[ki].Load(); ver > hi || ver == 0 {
							t.Errorf("seed %d: scan saw key %d at impossible version %d (issued %d)", seed, ki, ver, hi)
						}
						return true
					})
					noteErr(err)
					if errors.Is(err, fault.ErrCrashed) {
						state.crashed.Store(true)
						return
					}
					if errors.Is(err, engine.ErrOverload) {
						shedSeen.Add(1)
					}
				}
			}
		}(w)
	}
	close(start)

	// Watchdog: overload must shed, never deadlock.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(chaosWatchdog):
		t.Fatalf("seed %d: chaos run deadlocked (workers still blocked after %v)", seed, chaosWatchdog)
	}
	close(stopCkpt)
	ckptWG.Wait()
	close(stopNarr)
	narrWG.Wait()
	for _, line := range reg.Narrate(core.PaperCosts()) {
		t.Logf("seed %d final: %s", seed, line)
	}

	st := eng.Stats()
	if overload && st.Shed.Value() == 0 {
		t.Errorf("seed %d: overload run shed nothing (admitted=%d)", seed, st.Admitted.Value())
	}
	if st.Shed.Value() != shedSeen.Load() {
		t.Errorf("seed %d: engine shed %d, callers saw %d", seed, st.Shed.Value(), shedSeen.Load())
	}
	if st.QueueDepth.Value() != 0 {
		t.Errorf("seed %d: queue depth %d after drain", seed, st.QueueDepth.Value())
	}

	if mirrored {
		mir.StopScrub()
		// End of the fault episode: detach both legs' injectors so the
		// convergence drain below cannot have its repair writes re-flipped
		// by a still-pending scheduled fault.
		mir.Leg(0).SetFaultInjector(nil)
		mir.Leg(1).SetFaultInjector(nil)
		ms := mir.MirrorStats()
		if n := corruptSeen.Load(); n != 0 {
			t.Errorf("seed %d: %d operations surfaced ErrCorrupt despite the mirror (stats: %s)", seed, n, ms.String())
		}
		if q := ms.Quarantined.Value(); q != 0 {
			t.Errorf("seed %d: %d pages quarantined from single-leg flips", seed, q)
		}
		if ms.ScrubReads.Value() == 0 && mir.HighWater() > 0 {
			// A run whose store never flushed to the device leaves the
			// mirror empty; scrub passes over zero extents read nothing.
			t.Errorf("seed %d: background scrubber never ran", seed)
		}
		// Drain any latent damage the readers and the background scrubber
		// did not reach, then prove the legs are fully consistent: a second
		// pass over a healed mirror finds nothing.
		if rep := mir.ScrubOnce(); rep.Quarantined != 0 {
			t.Errorf("seed %d: final scrub quarantined %d pages", seed, rep.Quarantined)
		}
		if rep := mir.ScrubOnce(); rep.Repaired != 0 || rep.Quarantined != 0 {
			t.Errorf("seed %d: legs still inconsistent after full scrub: %+v", seed, rep)
		}
		t.Logf("seed %d mirror: %s", seed, ms.String())
	}

	if !inj.Crashed() {
		// The run ended before the crash point (heavy shedding can starve
		// writes below the crash threshold). Verify live state instead:
		// every acked write must be observable right now.
		for idx := 0; idx < chaosKeys; idx++ {
			acked := state.acked[idx].Load()
			if acked == 0 {
				continue
			}
			v, ok, err := eng.Get(ctx, chaosKey(idx))
			if err != nil || !ok {
				t.Errorf("seed %d: key %d acked v%d but live Get = %v, %v", seed, idx, acked, ok, err)
				continue
			}
			if _, ver := decodeChaosVal(t, v); ver < acked {
				t.Errorf("seed %d: key %d live version %d < acked %d", seed, idx, ver, acked)
			}
		}
		return
	}

	// Crash fired: repair the device and recover from the last durable
	// commit point. No acknowledged write at or below the checkpoint floor
	// may be lost, and nothing beyond the issued horizon may appear.
	t.Logf("seed %d: crash after %d device writes; %d puts acked; stats: %s",
		seed, crashAt, ackedPuts.Load(), st.String())
	inj.Repair()
	lookup, empty := variant.recover(t, dev)
	if empty {
		for idx := 0; idx < chaosKeys; idx++ {
			if f := state.floorOf(idx); f > 0 {
				t.Errorf("seed %d: checkpoint floor v%d for key %d but store recovered empty", seed, f, idx)
			}
		}
		return
	}
	for idx := 0; idx < chaosKeys; idx++ {
		floor := state.floorOf(idx)
		v, ok, err := lookup(chaosKey(idx))
		if err != nil {
			t.Errorf("seed %d: recovered Get key %d: %v", seed, idx, err)
			continue
		}
		if !ok {
			if floor > 0 {
				t.Errorf("seed %d: key %d lost after crash: floor v%d, found nothing", seed, idx, floor)
			}
			continue
		}
		ki, ver := decodeChaosVal(t, v)
		if ki != idx {
			t.Errorf("seed %d: recovered key %d holds value of key %d", seed, idx, ki)
		}
		if ver < floor {
			t.Errorf("seed %d: key %d recovered at v%d, below checkpoint floor v%d", seed, idx, ver, floor)
		}
		if hi := state.issued[idx].Load(); ver > hi {
			t.Errorf("seed %d: key %d recovered at v%d, but only v%d was issued", seed, idx, ver, hi)
		}
	}
}

func chaosSeeds(t *testing.T, base int64) []int64 {
	n := 25
	if testing.Short() {
		n = 4
	}
	seeds := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		seeds = append(seeds, base+int64(i))
	}
	return seeds
}

func TestChaosBwTree(t *testing.T) {
	for _, seed := range chaosSeeds(t, 1) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaos(t, bwtreeChaosVariant(), seed, seed%3 == 0, false)
		})
	}
}

func TestChaosLSM(t *testing.T) {
	for _, seed := range chaosSeeds(t, 101) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaos(t, lsmChaosVariant(), seed, seed%3 == 0, false)
		})
	}
}

// mirrorChaosSeeds is smaller than chaosSeeds: each mirrored run carries
// doubled device traffic plus a hot background scrubber.
func mirrorChaosSeeds(t *testing.T, base int64) []int64 {
	n := 8
	if testing.Short() {
		n = 2
	}
	seeds := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		seeds = append(seeds, base+int64(i))
	}
	return seeds
}

func TestChaosMirroredBwTree(t *testing.T) {
	for _, seed := range mirrorChaosSeeds(t, 201) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaos(t, bwtreeChaosVariant(), seed, seed%3 == 0, true)
		})
	}
}

func TestChaosMirroredLSM(t *testing.T) {
	for _, seed := range mirrorChaosSeeds(t, 301) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaos(t, lsmChaosVariant(), seed, seed%3 == 0, true)
		})
	}
}
