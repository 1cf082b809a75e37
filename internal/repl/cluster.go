package repl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/ssd"
	"costperf/internal/tc"
)

// ClusterConfig assembles a replicated pair: a primary TC whose log is
// shipped to a warm standby, with automatic failover between them.
type ClusterConfig struct {
	// PrimaryDC / PrimaryLog build the primary TC (both required).
	PrimaryDC  tc.DataComponent
	PrimaryLog ssd.Dev
	// StandbyDC / StandbyLog build the standby (both required). The standby
	// log receives shipped bytes at primary-identical offsets.
	StandbyDC  tc.DataComponent
	StandbyLog ssd.Dev
	// Net injects network faults into the link (nil = perfect network).
	Net *fault.NetInjector
	// CommitWait bounds the semi-synchronous ack wait per write (default
	// 2s): a Put returns nil only once the standby confirmed applying the
	// log through the commit, so an acknowledged write survives losing the
	// primary wholesale.
	CommitWait time.Duration
	// AutoFailover, when set, promotes the standby as soon as the primary
	// latches degraded — from the background watcher or inline when a
	// write surfaces tc.ErrDegraded.
	AutoFailover bool
	// WatchEvery paces the background health watcher (default 2ms; only
	// used with AutoFailover).
	WatchEvery time.Duration
	// PromoteDrain bounds the pre-promotion ack-window drain (default 1s).
	PromoteDrain time.Duration
	// Retain bounds the standby's PITR checkpoint ring (see StandbyConfig).
	Retain int
	// Shipper tuning (zero values take ShipperConfig defaults).
	BatchBytes int
	Window     int
	AckTimeout time.Duration
	RetryBase  time.Duration
	RetryMax   time.Duration
	Poll       time.Duration
	Seed       int64
	// Obs passes through to both TCs.
	Obs *obs.Tracer
}

// Cluster is a replicated store: an engine.Store whose writes are
// semi-synchronously shipped to a warm standby, and which fails over to it
// — draining the ack window, fencing the old primary behind an epoch bump,
// and promoting the standby's state in place — when the primary latches
// degraded. Safe for concurrent use.
type Cluster struct {
	cfg   ClusterConfig
	stats metrics.ReplStats

	epoch  atomic.Uint64
	health metrics.Health // cluster-level: stays healthy across a failover

	mu       sync.Mutex
	primary  *tc.TC
	link     *Link
	shipper  *Shipper
	standby  *Standby
	promoted bool

	promoteOnce sync.Once
	promoteErr  error

	stopWatch chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	closed    atomic.Bool
}

// NewCluster builds the pair, starts shipping, and (with AutoFailover)
// starts the health watcher.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.PrimaryDC == nil || cfg.PrimaryLog == nil {
		return nil, errors.New("repl: cluster needs a primary DC and log device")
	}
	if cfg.StandbyDC == nil || cfg.StandbyLog == nil {
		return nil, errors.New("repl: cluster needs a standby DC and log device")
	}
	if cfg.CommitWait <= 0 {
		cfg.CommitWait = 2 * time.Second
	}
	if cfg.WatchEvery <= 0 {
		cfg.WatchEvery = 2 * time.Millisecond
	}
	if cfg.PromoteDrain <= 0 {
		cfg.PromoteDrain = time.Second
	}
	c := &Cluster{cfg: cfg, stopWatch: make(chan struct{})}
	c.epoch.Store(1)
	// Snapshots of the primary's tracer then report ship volume, lag, and
	// the extra replication leg in the live cost model.
	cfg.Obs.FoldRepl(&c.stats)
	cfg.Obs.FoldHealth(&c.health)

	primary, err := tc.New(tc.Config{
		DC:         cfg.PrimaryDC,
		LogDevice:  cfg.PrimaryLog,
		Obs:        cfg.Obs,
		CommitGate: c.gateFor(1),
	})
	if err != nil {
		return nil, err
	}
	c.primary = primary

	c.link = NewLink(cfg.Net)
	c.standby = NewStandby(StandbyConfig{
		Link:      c.link,
		LogDevice: cfg.StandbyLog,
		DC:        cfg.StandbyDC,
		Epoch:     1,
		Retain:    cfg.Retain,
		Stats:     &c.stats,
	})
	c.shipper = NewShipper(ShipperConfig{
		TC:         primary,
		Link:       c.link,
		Epoch:      1,
		BatchBytes: cfg.BatchBytes,
		Window:     cfg.Window,
		AckTimeout: cfg.AckTimeout,
		RetryBase:  cfg.RetryBase,
		RetryMax:   cfg.RetryMax,
		Poll:       cfg.Poll,
		Seed:       cfg.Seed,
		Stats:      &c.stats,
	})
	c.standby.Start()
	c.shipper.Start()

	if cfg.AutoFailover {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.watch()
		}()
	}
	return c, nil
}

// gateFor builds the epoch fence installed as a TC's CommitGate: commits
// are admitted only while the cluster's epoch still matches the one the TC
// was created under.
func (c *Cluster) gateFor(epoch uint64) func() error {
	return func() error {
		if c.epoch.Load() != epoch {
			c.stats.FencedWrites.Inc()
			return fmt.Errorf("%w: epoch %d superseded by %d", ErrFenced, epoch, c.epoch.Load())
		}
		return nil
	}
}

// watch promotes as soon as the primary latches degraded.
func (c *Cluster) watch() {
	t := time.NewTicker(c.cfg.WatchEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.mu.Lock()
			p, done := c.primary, c.promoted
			c.mu.Unlock()
			if done {
				return
			}
			if p.Health().Degraded() {
				c.Promote()
				return
			}
		case <-c.stopWatch:
			return
		}
	}
}

// Stats returns the cluster's shared replication counters.
func (c *Cluster) Stats() *metrics.ReplStats { return &c.stats }

// Epoch returns the current fencing epoch (1 until failover).
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Promoted reports whether failover has happened.
func (c *Cluster) Promoted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.promoted
}

// Primary returns the TC currently serving writes (the promoted standby's
// TC after failover).
func (c *Cluster) Primary() *tc.TC {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// Standby returns the standby half (still readable after promotion; its
// receive loop is stopped).
func (c *Cluster) Standby() *Standby { return c.standby }

// Shipper returns the shipping half (stopped after promotion).
func (c *Cluster) Shipper() *Shipper { return c.shipper }

// StandbyGet serves a stale-bounded read from the standby replica.
func (c *Cluster) StandbyGet(key []byte) ([]byte, bool, error) {
	return c.standby.Get(key)
}

// Promote fails over to the standby: bump the epoch (fencing every commit
// the old primary tries from now on), drain the ack'd window, seal the
// standby, and build a new TC over the standby's state that continues the
// shipped log in place: opening the standby's log finds its tail, which
// must be the applied LSN the seal returned (ErrLogTail if not).
// Idempotent; safe to call concurrently.
func (c *Cluster) Promote() error {
	c.promoteOnce.Do(func() { c.promoteErr = c.promote() })
	return c.promoteErr
}

func (c *Cluster) promote() error {
	old := c.Primary()
	newEpoch := c.epoch.Add(1)

	// Fence first, then drain: after the epoch bump no new commit can
	// enter the old primary's log, so the drain target is final. The
	// flush and drain are best-effort — if the primary's device is gone,
	// only already-durable bytes exist, and everything the cluster ever
	// acknowledged was standby-confirmed at Put time.
	_ = old.Flush()
	_ = c.shipper.Drain(c.cfg.PromoteDrain)
	c.shipper.Stop()
	c.standby.Stop()
	appliedLSN, maxTS := c.standby.Seal(newEpoch)

	replacement, err := tc.New(tc.Config{
		DC:           c.cfg.StandbyDC,
		LogDevice:    c.cfg.StandbyLog,
		Obs:          c.cfg.Obs,
		CommitGate:   c.gateFor(newEpoch),
		InitialClock: maxTS,
	})
	if err != nil {
		return err
	}
	if tail := replacement.DurableLSN(); tail != appliedLSN {
		replacement.Close()
		return fmt.Errorf("%w: standby log reopened at %d, applied through %d", ErrLogTail, tail, appliedLSN)
	}
	c.mu.Lock()
	c.primary = replacement
	c.promoted = true
	c.mu.Unlock()
	c.stats.Promotions.Inc()
	return nil
}

// failoverWorthy reports whether an operation error should trigger
// promotion: only a latched-degraded primary qualifies. Conflicts,
// fencing, timeouts, and transient I/O errors must not — failing over on
// an ordinary write-write conflict would burn the one standby for nothing.
func failoverWorthy(err error) bool {
	return errors.Is(err, tc.ErrDegraded)
}

// op runs fn against the current primary, failing over and retrying once
// if the primary proves degraded mid-operation.
func (c *Cluster) op(fn func(p *tc.TC) error) error {
	err := fn(c.Primary())
	if err == nil || !c.cfg.AutoFailover {
		return err
	}
	if !failoverWorthy(err) {
		return err
	}
	if perr := c.Promote(); perr != nil {
		return errors.Join(err, perr)
	}
	return fn(c.Primary())
}

// Get serves a read from the current primary.
func (c *Cluster) Get(ctx context.Context, key []byte) (val []byte, ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	err = c.op(func(p *tc.TC) error {
		tx, berr := p.Begin()
		if berr != nil {
			return berr
		}
		defer tx.Abort()
		val, ok, err = tx.Read(key)
		return err
	})
	return val, ok, err
}

// Put writes through the current primary, semi-synchronously: it returns
// nil only after the write is durable on the primary AND the standby has
// acknowledged applying the log through it. After failover there is no
// standby left, so writes are single-copy again (like the seed TC).
func (c *Cluster) Put(ctx context.Context, key, val []byte) error {
	return c.write(ctx, func(tx *tc.Tx) error { return tx.Write(key, val) })
}

// Delete removes key with the same semi-synchronous guarantee as Put.
func (c *Cluster) Delete(ctx context.Context, key []byte) error {
	return c.write(ctx, func(tx *tc.Tx) error { return tx.Delete(key) })
}

func (c *Cluster) write(ctx context.Context, mutate func(*tc.Tx) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.op(func(p *tc.TC) error {
		tx, err := p.Begin()
		if err != nil {
			return err
		}
		if err := mutate(tx); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		if err := p.Flush(); err != nil {
			return err
		}
		c.mu.Lock()
		promoted, cur := c.promoted, c.primary
		c.mu.Unlock()
		if promoted {
			if cur != p {
				// The commit raced onto the old primary just before its gate
				// flipped: it exists only on the demoted log and may never
				// have been shipped. Never acknowledge it.
				c.stats.FencedWrites.Inc()
				return fmt.Errorf("%w: write stranded on demoted primary", ErrFenced)
			}
			return nil // single-copy: the pair dissolved at failover
		}
		return c.shipper.WaitShipped(p.DurableLSN(), c.cfg.CommitWait)
	})
}

// Scan runs a snapshot scan on the current primary.
func (c *Cluster) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.op(func(p *tc.TC) error {
		tx, err := p.Begin()
		if err != nil {
			return err
		}
		defer tx.Abort()
		return tx.Scan(start, limit, fn)
	})
}

// Health exposes the cluster-level health: it stays healthy across a
// failover (that is the point of the standby) and latches degraded only
// when no replica can serve — the promoted primary itself latching.
func (c *Cluster) Health() *metrics.Health {
	c.mu.Lock()
	p, promoted := c.primary, c.promoted
	c.mu.Unlock()
	if promoted && p.Health().Degraded() {
		c.health.Degrade("promoted primary degraded: " + p.Health().Reason())
	}
	return &c.health
}

// Close stops shipping and both TCs.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.stopOnce.Do(func() { close(c.stopWatch) })
	c.wg.Wait()
	c.shipper.Stop()
	c.standby.Stop()
	c.link.Close()
	err := c.Primary().Close()
	return err
}
