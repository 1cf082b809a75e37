package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/backoff"
	"costperf/internal/engine"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/repl"
	"costperf/internal/ssd"
	"costperf/internal/tc"
)

// Config builds a Router.
type Config struct {
	// Shards is the number of initial hash-range partitions (required,
	// >= 1). The count is elastic for the router's lifetime: Split and
	// Merge resize the map, Migrate moves one shard to a new owner.
	Shards int

	// NewDC builds a fresh data component for one shard replica. Nil
	// defaults to NewMassDC. It is called once per plain shard, twice per
	// replicated shard (primary + standby), and once per migration or
	// resize target.
	NewDC func(shard int) tc.DataComponent
	// NewLog builds a fresh recovery-log device with the given name. Nil
	// defaults to a fast plain ssd.Device; pass a constructor returning
	// an ssd.Mirror to give every shard log self-healing redundancy.
	NewLog func(name string) ssd.Dev

	// Standby, when set, runs every shard as a repl.Cluster: a warm
	// standby continuously applies the shard's shipped log, writes are
	// semi-synchronous, and a latched-degraded primary fails over
	// automatically — per-shard, without touching the other shards.
	Standby bool
	// CommitWait bounds each replicated shard's semi-synchronous ack wait
	// (default per repl.ClusterConfig).
	CommitWait time.Duration

	// MaxConcurrent / MaxQueue configure each shard's engine front-end
	// (per-shard admission control and breaker; zero values take the
	// engine defaults).
	MaxConcurrent int
	MaxQueue      int

	// Adaptive switches every shard engine's admission limiter from the
	// static MaxConcurrent semaphore to the gradient limiter, with
	// AdaptiveMin/AdaptiveMax bounding the learned limit and LimitWindow
	// the samples per adjustment (zero values take the engine defaults).
	// Each shard learns its own limit: a slow shard sheds while its
	// siblings keep serving.
	Adaptive    bool
	AdaptiveMin int
	AdaptiveMax int
	LimitWindow int

	// CutoverWait bounds how long an operation that hit a fenced owner
	// waits for the new owner to install before ErrMoved escapes to the
	// caller (default 2s).
	CutoverWait time.Duration
	// MovedRetryBase/MovedRetryMax shape the jittered exponential backoff
	// between a moved operation's re-dispatches — the same
	// d = min(base<<n, max), uniform [d/2, d] shape the engine's breaker
	// probes and the wire client use, so a cutover waking hundreds of
	// parked writers does not re-dispatch them as one thundering herd
	// (defaults 100us / 5ms).
	MovedRetryBase time.Duration
	MovedRetryMax  time.Duration
	// FailFastScans makes scatter-gather scans return the first shard
	// failure instead of merging the survivors and reporting a
	// *PartialScanError.
	FailFastScans bool

	// Registry, when non-nil, traces every shard into its own named
	// tracer ("shard<slot>"): per-shard CostSnapshots that Rollup folds
	// into a fleet-level $/op table. Each shard's log devices report
	// their physical I/O to the same tracer.
	Registry *obs.Registry

	// Seed seeds per-shard jitter (breaker probes, ship backoff, moved
	// re-dispatch).
	Seed int64
}

// Stats counts router-level events; per-shard operation counts live in
// the shards' engines and tracers.
type Stats struct {
	// MovedRetries counts operations that hit a fenced owner and were
	// re-run against the newly installed one.
	MovedRetries metrics.Counter
	// CutoverTimeouts counts operations that gave up waiting for a new
	// owner (ErrMoved escaped to the caller).
	CutoverTimeouts metrics.Counter
	// PartialScans counts scatter-gather scans that returned a
	// *PartialScanError.
	PartialScans metrics.Counter
	// Fences counts owners fenced by migrations and resizes; Migrations
	// counts completed single-shard cutovers; Splits and Merges count
	// completed resizes.
	Fences     metrics.Counter
	Migrations metrics.Counter
	Splits     metrics.Counter
	Merges     metrics.Counter
}

// owner is one shard's current backing instance. A migration builds a new
// owner at gen+1 and atomically replaces the old one; a resize retires
// the source owners entirely and mints fresh slots. Either way the
// replaced owner's fenced flag stays set forever — its generation can
// never become current again.
type owner struct {
	shard int
	gen   uint64

	eng     *engine.Engine
	tc      *tc.TC        // plain shards (cutover source/target)
	cluster *repl.Cluster // replicated shards

	fenced atomic.Bool
	// inflight counts writes in progress on this owner. Reads never
	// count: they don't touch the log, so a migration drain only has to
	// wait out the writes that slipped past the gate before the fence.
	inflight atomic.Int64
}

// gate is the owner's commit gate: installed into its TC, consulted at
// the start of every commit, so a stale owner cannot acknowledge writes
// after the fence — the same mechanism repl uses to fence demoted
// primaries.
func (o *owner) gate() error {
	if o.fenced.Load() {
		return fmt.Errorf("shard %d owner gen %d fenced: %w", o.shard, o.gen, ErrMoved)
	}
	return nil
}

// health returns the owner's store-level health latch.
func (o *owner) health() *metrics.Health {
	if o.cluster != nil {
		return o.cluster.Health()
	}
	return o.tc.Health()
}

// table is one immutable routing state: the placement map plus the live
// owner of every slot the map names. Installs build a new table and swap
// the pointer; readers route through whatever table they loaded without
// locks.
type table struct {
	m      *Map
	owners map[int]*owner
}

// clone copies the table for mutation at epoch+1.
func (t *table) clone(m *Map) *table {
	owners := make(map[int]*owner, len(t.owners))
	for id, o := range t.owners {
		owners[id] = o
	}
	return &table{m: m, owners: owners}
}

// Router hash-partitions keys across independent shards by an
// epoch-versioned range map. It satisfies engine.Store (and therefore
// wire.Backend), so everything that fronts a single store can front a
// fleet unchanged — and the fleet can change shape underneath it.
type Router struct {
	cfg Config
	tab atomic.Pointer[table]

	mu       sync.Mutex
	wake     chan struct{} // closed+replaced on every install
	retired  []*owner      // fenced ex-owners kept alive for audits; closed on Close
	resizing map[int]bool  // slots with a migration or resize in flight
	nextSlot int           // next fresh slot number a resize mints
	closed   bool

	moved *backoff.Source // jittered backoff between moved re-dispatches

	stats  Stats
	health metrics.Health // router-level: latches only if every shard is degraded
}

// New builds the router and its shards under the even epoch-0 map.
func New(cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.NewDC == nil {
		cfg.NewDC = func(int) tc.DataComponent { return NewMassDC() }
	}
	if cfg.NewLog == nil {
		cfg.NewLog = func(name string) ssd.Dev {
			return ssd.New(ssd.Config{Name: name, MaxIOPS: 1e6, LatencySec: 20e-6})
		}
	}
	if cfg.CutoverWait <= 0 {
		cfg.CutoverWait = 2 * time.Second
	}
	if cfg.MovedRetryBase <= 0 {
		cfg.MovedRetryBase = 100 * time.Microsecond
	}
	if cfg.MovedRetryMax < cfg.MovedRetryBase {
		cfg.MovedRetryMax = 5 * time.Millisecond
		if cfg.MovedRetryMax < cfg.MovedRetryBase {
			cfg.MovedRetryMax = cfg.MovedRetryBase
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r := &Router{
		cfg:      cfg,
		wake:     make(chan struct{}),
		resizing: map[int]bool{},
		nextSlot: cfg.Shards,
		moved: backoff.New(backoff.Policy{
			Base: cfg.MovedRetryBase, Max: cfg.MovedRetryMax,
		}, cfg.Seed^0x7e1a57),
	}
	t := &table{m: NewEvenMap(cfg.Shards), owners: make(map[int]*owner, cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		o, err := r.newOwner(r.newTarget(i, 1))
		if err != nil {
			for _, built := range t.owners {
				built.eng.Close()
			}
			return nil, err
		}
		t.owners[i] = o
	}
	r.tab.Store(t)
	return r, nil
}

// tracer returns the shard's named tracer, or nil without a registry.
func (r *Router) tracer(shard int) *obs.Tracer {
	if r.cfg.Registry == nil {
		return nil
	}
	return r.cfg.Registry.Tracer(fmt.Sprintf("shard%d", shard))
}

// seed derives one owner's jitter seed (breaker probes, ship backoff)
// from the router seed, its slot and its generation.
func (r *Router) seed(slot int, gen uint64) int64 {
	return r.cfg.Seed + int64(slot) + int64(gen-1)*7919
}

// newLog builds a recovery-log device that reports its physical I/O to
// the slot's tracer.
func (r *Router) newLog(slot int, name string) ssd.Dev {
	d := r.cfg.NewLog(name)
	if tr := r.tracer(slot); tr != nil {
		d.SetObserver(tr)
	}
	return d
}

// newTarget builds a fresh plain owner's recovery-log device and data
// component from the router's factories. A replicated shard's cluster
// builds its own pair, so on a Standby router the target carries only
// its slot and generation.
func (r *Router) newTarget(slot int, gen uint64) *target {
	tg := &target{slot: slot, gen: gen}
	if !r.cfg.Standby {
		tg.log = r.newLog(slot, fmt.Sprintf("shard%d-log.%d", slot, gen))
		tg.dc = r.cfg.NewDC(slot)
	}
	return tg
}

// newOwner is the one constructor of every owner the router routes to,
// whether New builds it or a cutover seals it. A plain owner is a TC
// gated by the owner's fence over the target's data component and log; a
// sealed target's TC continues the shipped log and commit clock in
// place, exactly like a promoted warm standby. On a Standby router the
// owner is a replicated cluster instead (cutovers refuse those, so only
// New builds them). Either way it sits behind its own engine front-end
// with the fleet's admission config, folded into the slot's tracer.
func (r *Router) newOwner(tg *target) (*owner, error) {
	tr := r.tracer(tg.slot)
	o := &owner{shard: tg.slot, gen: tg.gen}
	var store engine.Store
	if r.cfg.Standby {
		plog := r.newLog(tg.slot, fmt.Sprintf("shard%d-primary-log.%d", tg.slot, tg.gen))
		slog := r.newLog(tg.slot, fmt.Sprintf("shard%d-standby-log.%d", tg.slot, tg.gen))
		cl, err := repl.NewCluster(repl.ClusterConfig{
			PrimaryDC: r.cfg.NewDC(tg.slot), PrimaryLog: plog,
			StandbyDC: r.cfg.NewDC(tg.slot), StandbyLog: slog,
			CommitWait:   r.cfg.CommitWait,
			AutoFailover: true,
			AckTimeout:   shipTuning.AckTimeout,
			RetryBase:    shipTuning.RetryBase,
			RetryMax:     shipTuning.RetryMax,
			Poll:         shipTuning.Poll,
			Window:       shipTuning.Window,
			Seed:         r.seed(tg.slot, tg.gen),
			Obs:          tr,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d cluster: %w", tg.slot, err)
		}
		o.cluster = cl
		store = cl
	} else {
		t, err := tc.New(tc.Config{
			DC: tg.dc, LogDevice: tg.log,
			CommitGate:   o.gate,
			InitialClock: tg.clock,
			Obs:          tr,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d tc: %w", tg.slot, err)
		}
		o.tc = t
		store = engine.WrapTC(t)
	}
	eng, err := engine.New(engine.Config{
		Store:           store,
		MaxConcurrent:   r.cfg.MaxConcurrent,
		MaxQueue:        r.cfg.MaxQueue,
		ProbeJitterSeed: r.seed(tg.slot, tg.gen),
		Adaptive:        r.cfg.Adaptive,
		AdaptiveMin:     r.cfg.AdaptiveMin,
		AdaptiveMax:     r.cfg.AdaptiveMax,
		LimitWindow:     r.cfg.LimitWindow,
	})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("shard %d engine: %w", tg.slot, err)
	}
	o.eng = eng
	if tr != nil {
		tr.FoldLimiter(eng.Limiter().Stats())
	}
	return o, nil
}

// Shards reports the live shard count (elastic: splits grow it, merges
// shrink it); MapEpoch the map version. Together with the placement
// table they are what a MOVED response teaches wire clients.
func (r *Router) Shards() int      { return len(r.tab.Load().m.Entries) }
func (r *Router) MapEpoch() uint64 { return r.tab.Load().m.Epoch }
func (r *Router) Stats() *Stats    { return &r.stats }

// Map returns the live placement map. The map is immutable; callers may
// hold it, encode it, or diff it against a later one to measure key
// movement.
func (r *Router) Map() *Map { return r.tab.Load().m }

// ShardMap implements the optional wire ShardMapper capability: the
// server attaches the full epoch-numbered placement table to every MOVED
// status so clients re-learn the map mid-resize without an extra round
// trip.
func (r *Router) ShardMap() *Map { return r.tab.Load().m }

// SlotOfKey routes a key under the live map (tests and fleet-aware
// callers; SlotOf covers the static pre-resize placement).
func (r *Router) SlotOfKey(key []byte) int { return r.tab.Load().m.SlotOfKey(key) }

// ShardHealth returns the health latch of one shard's current owner —
// the per-shard fault-domain view — or nil if the slot is not in the
// live map.
func (r *Router) ShardHealth(shard int) *metrics.Health {
	if o := r.tab.Load().owners[shard]; o != nil {
		return o.health()
	}
	return nil
}

// Engine exposes one shard's engine front-end (stats, direct access for
// harnesses that fault a single shard); nil if the slot is not live.
func (r *Router) Engine(shard int) *engine.Engine {
	if o := r.tab.Load().owners[shard]; o != nil {
		return o.eng
	}
	return nil
}

// Cluster exposes one shard's replicated cluster (nil for plain shards
// and slots not in the live map).
func (r *Router) Cluster(shard int) *repl.Cluster {
	if o := r.tab.Load().owners[shard]; o != nil {
		return o.cluster
	}
	return nil
}

// ShardSnapshot returns one live shard's cost snapshot (zero, false
// without a registry or for a slot not in the map). The rebalancer polls
// these into its decision window.
func (r *Router) ShardSnapshot(shard int) (obs.CostSnapshot, bool) {
	if r.cfg.Registry == nil {
		return obs.CostSnapshot{}, false
	}
	if !r.tab.Load().m.HasSlot(shard) {
		return obs.CostSnapshot{}, false
	}
	return r.tracer(shard).Snapshot(), true
}

// Health implements engine.Store. The router's own latch never trips —
// partial availability is the point — so it reports healthy as long as
// the router is open; per-shard state is in ShardHealth.
func (r *Router) Health() *metrics.Health { return &r.health }

// RetryAfterHint implements the wire server's Adviser capability for a
// sharded backend: the hint a shed client should wait is the worst of
// the live shards' hints — a retry routed anywhere must clear the most
// congested shard it might land on.
func (r *Router) RetryAfterHint() time.Duration {
	var worst time.Duration
	for _, o := range r.tab.Load().owners {
		if d := o.eng.RetryAfterHint(); d > worst {
			worst = d
		}
	}
	return worst
}

// awaitInstall blocks until the map epoch passes the one the caller
// routed under, the cutover wait elapses, or ctx ends.
func (r *Router) awaitInstall(ctx context.Context, epoch uint64) error {
	timer := time.NewTimer(r.cfg.CutoverWait)
	defer timer.Stop()
	for {
		r.mu.Lock()
		wake := r.wake
		r.mu.Unlock()
		if r.tab.Load().m.Epoch > epoch {
			return nil
		}
		select {
		case <-wake:
		case <-timer.C:
			r.stats.CutoverTimeouts.Inc()
			return fmt.Errorf("cutover not installed within %v: %w",
				r.cfg.CutoverWait, ErrMoved)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// movedBackoff sleeps the jittered exponential interval before a moved
// operation re-dispatches — the shared backoff shape the engine's
// breaker probes and the wire client also draw from.
func (r *Router) movedBackoff(ctx context.Context, attempt int) error {
	return r.moved.Sleep(ctx, attempt)
}

// do routes one operation to the key's shard and absorbs the races a
// live migration or resize creates: a fenced owner rejecting the op with
// ErrMoved, and a retired owner closed under the op. Both wait for the
// next map install and retry against the new placement, with jittered
// exponential backoff between re-dispatches.
func (r *Router) do(ctx context.Context, key []byte, write bool, op func(o *owner) error) error {
	h := Hash(key)
	for attempt := 1; ; attempt++ {
		t := r.tab.Load()
		o := t.owners[t.m.Slot(h)]
		if write {
			o.inflight.Add(1)
		}
		err := op(o)
		if write {
			o.inflight.Add(-1)
		}
		switch {
		case err == nil:
			return nil
		case errorsIsMovedOrRetired(err):
			r.stats.MovedRetries.Inc()
			if werr := r.awaitInstall(ctx, t.m.Epoch); werr != nil {
				return werr
			}
			if berr := r.movedBackoff(ctx, attempt); berr != nil {
				return berr
			}
			continue
		default:
			return err
		}
	}
}

// errorsIsMovedOrRetired classifies errors worth retrying on the next
// owner: a fenced commit (ErrMoved) or an op that raced the retirement of
// an already-replaced owner (engine/tc closed).
func errorsIsMovedOrRetired(err error) bool {
	return errors.Is(err, ErrMoved) || errors.Is(err, engine.ErrClosed) || errors.Is(err, tc.ErrClosed)
}

// Get implements engine.Store.
func (r *Router) Get(ctx context.Context, key []byte) (val []byte, ok bool, err error) {
	err = r.do(ctx, key, false, func(o *owner) error {
		val, ok, err = o.eng.Get(ctx, key)
		return err
	})
	return val, ok, err
}

// Put implements engine.Store.
func (r *Router) Put(ctx context.Context, key, val []byte) error {
	return r.do(ctx, key, true, func(o *owner) error { return o.eng.Put(ctx, key, val) })
}

// Delete implements engine.Store.
func (r *Router) Delete(ctx context.Context, key []byte) error {
	return r.do(ctx, key, true, func(o *owner) error { return o.eng.Delete(ctx, key) })
}

// finishInstall publishes the new table and wakes every operation parked
// in awaitInstall. Callers hold r.mu. Replaced owners stay fenced and
// alive — audits can still prove their commits are rejected — until the
// router closes.
func (r *Router) finishInstall(t *table, retire ...*owner) {
	r.retired = append(r.retired, retire...)
	r.tab.Store(t)
	close(r.wake)
	r.wake = make(chan struct{})
}

// installOwner is the migration cutover: same slot, new owner generation,
// epoch+1.
func (r *Router) installOwner(slot int, o *owner) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.tab.Load()
	t := cur.clone(cur.m.withEpochBump())
	old := t.owners[slot]
	t.owners[slot] = o
	r.finishInstall(t, old)
	r.stats.Migrations.Inc()
	delete(r.resizing, slot)
}

// installSplit is the split cutover: the source slot's entry becomes two
// entries owned by the freshly minted low/high slots, the source owner is
// retired, epoch+1.
func (r *Router) installSplit(srcSlot int, at uint64, low, high *owner) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.tab.Load()
	t := cur.clone(cur.m.withSplit(srcSlot, at, low.shard, high.shard))
	old := t.owners[srcSlot]
	delete(t.owners, srcSlot)
	t.owners[low.shard] = low
	t.owners[high.shard] = high
	r.finishInstall(t, old)
	r.stats.Splits.Inc()
	delete(r.resizing, srcSlot)
}

// installMerge is the merge cutover: the two adjacent source entries
// become one entry owned by the freshly minted slot, both source owners
// are retired, epoch+1.
func (r *Router) installMerge(leftSlot, rightSlot int, merged *owner) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.tab.Load()
	t := cur.clone(cur.m.withMerge(leftSlot, rightSlot, merged.shard))
	left, right := t.owners[leftSlot], t.owners[rightSlot]
	delete(t.owners, leftSlot)
	delete(t.owners, rightSlot)
	t.owners[merged.shard] = merged
	r.finishInstall(t, left, right)
	r.stats.Merges.Inc()
	delete(r.resizing, leftSlot)
	delete(r.resizing, rightSlot)
}

// Snapshots returns the per-shard cost snapshots (nil without a
// registry); feed them to Rollup for the fleet-level $/op view. The
// registry accumulates tracers across resizes, so retired slots' rows
// remain until the registry is reset.
func (r *Router) Snapshots() []obs.CostSnapshot {
	if r.cfg.Registry == nil {
		return nil
	}
	return r.cfg.Registry.Snapshots()
}

// LiveSnapshots returns cost snapshots for the live slots only, in hash
// order — the rebalancer's view (retired slots can no longer be acted
// on).
func (r *Router) LiveSnapshots() []obs.CostSnapshot {
	if r.cfg.Registry == nil {
		return nil
	}
	t := r.tab.Load()
	out := make([]obs.CostSnapshot, 0, len(t.m.Entries))
	for _, e := range t.m.Entries {
		out = append(out, r.tracer(e.Slot).Snapshot())
	}
	return out
}

// Close shuts every shard (current and retired owners) down.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	retired := r.retired
	r.retired = nil
	r.mu.Unlock()

	var first error
	for _, o := range retired {
		if err := o.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, o := range r.tab.Load().owners {
		if err := o.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
