package shard

// One cutover moves, splits and merges shards. The TC/DC split means a
// data component can be rebuilt anywhere by idempotent blind redo of a
// recovery log, so all three are the same fence-and-stream operation
// over different lists:
//
//   - targets: the new owners, each a full standby streaming ONE source's
//     log (a migration's next generation of the same slot, a split's two
//     children, a merge's one new slot);
//   - fence: the owners fenced and drained (the migrated or split shard,
//     both merge sources).
//
// After the generic seal each kind adds only its own step — nothing for a
// migration, pruning each child to its half-range for a split, folding in
// the right source's state for a merge — and installs its own map change.
// Every phase boundary is crash-resumable: Run rebuilds the streams from
// the start of the source log and re-applies them blindly, fenced owners
// reject commits forever, and zero acked writes are lost.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/repl"
	"costperf/internal/ssd"
	"costperf/internal/tc"
)

// Phase is one step of the cutover state machine. Phases run in order;
// OnPhase fires at every completed boundary, which is where the chaos
// sweeps inject crashes.
type Phase int

const (
	// PhasePrepare: the cutover link is dialed (refused while the
	// injector is partitioned — a fresh dial cannot dodge chaos), a
	// standby is built over every target's log device and data
	// component, and repl shippers start streaming the source's log.
	PhasePrepare Phase = iota
	// PhaseCatchup: every target has applied the source's durable log up
	// to a recent snapshot of its durable LSN, while writes keep landing.
	PhaseCatchup
	// PhaseFence: the fenced owners' commit gates flip — every commit on
	// them from here on is rejected with ErrMoved, forever.
	PhaseFence
	// PhaseDrain: in-flight operations on the fenced owners have finished,
	// their logs are flushed, and the shippers have drained the tail —
	// every target's applied log now byte-for-byte equals the source's.
	PhaseDrain
	// PhaseSeal: the standbys are sealed at a higher epoch (late frames
	// from the old streams are fenced), the new owners' TCs are built over
	// the shipped logs, continuing the LSN sequence and commit clock in
	// place, and the kind's own seal step runs.
	PhaseSeal
	// PhaseInstall: the router now routes by the new map and owners and
	// wakes every request parked on the cutover. The cutover is done.
	PhaseInstall
)

// String names the phase for logs and sweep labels.
func (p Phase) String() string {
	switch p {
	case PhasePrepare:
		return "prepare"
	case PhaseCatchup:
		return "catchup"
	case PhaseFence:
		return "fence"
	case PhaseDrain:
		return "drain"
	case PhaseSeal:
		return "seal"
	case PhaseInstall:
		return "install"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

const (
	// catchupWait bounds the catch-up round; drainWait bounds the
	// in-flight drain and the final tail ship.
	catchupWait = 5 * time.Second
	drainWait   = 2 * time.Second
	// pollEvery paces the cutover's in-flight and applied-LSN polls.
	pollEvery = 100 * time.Microsecond
)

// shipTuning is the repl shipper tuning of every log stream in the
// package: a replicated shard's standby link and every cutover stream.
var shipTuning = repl.ShipperConfig{
	Window: 8, AckTimeout: 5 * time.Millisecond,
	RetryBase: 200 * time.Microsecond, RetryMax: 5 * time.Millisecond,
	Poll: 50 * time.Microsecond,
}

// target is one owner under construction: its slot and generation, the
// data component and recovery-log device it is built over, the stream
// filling them while a cutover runs, and — once sealed — the commit clock
// its TC continues from and the owner itself.
type target struct {
	slot  int
	gen   uint64
	dc    tc.DataComponent
	log   ssd.Dev
	ship  *repl.Shipper
	stby  *repl.Standby
	clock uint64
	own   *owner
}

// cutover is the one fence-and-stream state machine behind Migration,
// Split and Merge, which embed it for Run, Phase, Done, Err and Stats.
type cutover struct {
	r       *Router
	label   string // names the cutover in errors: "shard 3 split"
	net     *fault.NetInjector
	onPhase func(Phase) error
	src     *owner   // the owner whose log streams into every target
	fence   []*owner // the owners fenced and drained; src first
	targets []*target
	// finish is the kind's own seal step over the built owners (nil for
	// none); install publishes them.
	finish  func(ctx context.Context, tgs []*target) error
	install func(tgs []*target)
	stats   metrics.ReplStats
	sealed  bool // every target has its owner: a resume only installs

	mu      sync.Mutex
	phase   Phase
	done    bool
	lastErr error
}

// source returns the live plain owner of slot, refusing unknown slots and
// replicated shards (their mobility is the cluster's own failover: the
// standby already holds the byte-identical log).
func (t *table) source(slot int) (*owner, error) {
	o := t.owners[slot]
	if o == nil {
		return nil, fmt.Errorf("shard %d: %w", slot, ErrNoShard)
	}
	if o.cluster != nil {
		return nil, fmt.Errorf("shard %d: %w", slot, ErrReplicatedShard)
	}
	return o, nil
}

// newCutover reserves the fenced owners' slots against any other cutover
// and mints n fresh slot numbers, all under r.mu, so a refused cutover
// builds nothing. The caller builds the targets.
func (r *Router) newCutover(label string, net *fault.NetInjector, onPhase func(Phase) error,
	n int, fence ...*owner) (*cutover, []int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, ErrClosed
	}
	for _, o := range fence {
		if r.resizing[o.shard] {
			return nil, nil, fmt.Errorf("shard %d: %w", o.shard, ErrMigrating)
		}
	}
	if len(r.tab.Load().m.Entries)+n-len(fence) > MaxMapEntries {
		return nil, nil, fmt.Errorf("%s would exceed %d map entries: %w", label, MaxMapEntries, ErrBadMap)
	}
	for _, o := range fence {
		r.resizing[o.shard] = true
	}
	slots := make([]int, n)
	for i := range slots {
		slots[i] = r.nextSlot
		r.nextSlot++
	}
	return &cutover{r: r, label: label, net: net, onPhase: onPhase, src: fence[0], fence: fence}, slots, nil
}

// Phase reports the next phase to run (PhaseInstall once Done).
func (c *cutover) Phase() Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase
}

// Done reports whether the cutover installed.
func (c *cutover) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// Err returns the error that aborted the last Run (nil after success).
func (c *cutover) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Stats exposes the cutover streams' replication counters (every target
// shares them).
func (c *cutover) Stats() *metrics.ReplStats { return &c.stats }

// Run drives the cutover to completion, resuming after a prior abort: a
// sealed cutover only needs installing; anything earlier re-streams from
// the start of the source log, which the standbys' blind redo makes
// idempotent, and an already-set fence stays set.
func (c *cutover) Run(ctx context.Context) (err error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return nil
	}
	c.phase = PhasePrepare
	if c.sealed {
		c.phase = PhaseInstall
	}
	start := c.phase
	c.lastErr = nil
	c.mu.Unlock()

	defer func() {
		if err != nil {
			c.suspend()
			c.mu.Lock()
			c.lastErr = err
			c.mu.Unlock()
		}
	}()
	for ph := start; ; ph++ {
		if err := c.step(ctx, ph); err != nil {
			return fmt.Errorf("%s, %v: %w", c.label, ph, err)
		}
		c.mu.Lock()
		if ph == PhaseInstall {
			c.done = true
		} else {
			c.phase = ph + 1
		}
		c.mu.Unlock()
		var herr error
		if c.onPhase != nil {
			herr = c.onPhase(ph)
		}
		if ph == PhaseInstall {
			return nil
		}
		if herr != nil {
			return fmt.Errorf("%s aborted after %v: %w", c.label, ph, herr)
		}
	}
}

// suspend tears the streams down after an abort (the simulated crash
// kills every shipper and standby); the next Run rebuilds them.
func (c *cutover) suspend() {
	for _, tg := range c.targets {
		if tg.ship != nil {
			tg.ship.Stop()
			tg.ship = nil
		}
		if tg.stby != nil {
			tg.stby.Stop()
			tg.stby = nil
		}
	}
}

func (c *cutover) step(ctx context.Context, ph Phase) error {
	switch ph {
	case PhasePrepare:
		return c.prepare()
	case PhaseCatchup:
		// Everything durable on the source as of now; later writes are
		// the drain's problem.
		if err := c.src.tc.Flush(); err != nil {
			return err
		}
		return c.await(ctx, c.src.tc.DurableLSN(), time.Now().Add(catchupWait))
	case PhaseFence:
		for _, o := range c.fence {
			o.fenced.Store(true)
			c.r.stats.Fences.Inc()
		}
		return nil
	case PhaseDrain:
		return c.drain(ctx)
	case PhaseSeal:
		return c.seal(ctx)
	case PhaseInstall:
		c.install(c.targets)
		return nil
	}
	return fmt.Errorf("unknown phase %v", ph)
}

// prepare dials the cutover links and starts every target streaming the
// source's FULL log. Establishing the links consults the injector's dial
// gate: a partition refuses fresh dials, so cutover chaos cannot be
// dodged by redialing (see fault.NetInjector.DialErr).
func (c *cutover) prepare() error {
	if c.net != nil {
		if err := c.net.DialErr(); err != nil {
			return err
		}
	}
	for _, tg := range c.targets {
		link := repl.NewLink(c.net)
		tg.stby = repl.NewStandby(repl.StandbyConfig{
			Link: link, LogDevice: tg.log, DC: tg.dc, Epoch: 1, Stats: &c.stats,
		})
		sc := shipTuning
		sc.TC, sc.Link, sc.Epoch, sc.Stats = c.src.tc, link, 1, &c.stats
		sc.Seed = c.r.seed(tg.slot, tg.gen)
		tg.ship = repl.NewShipper(sc)
		tg.stby.Start()
		tg.ship.Start()
	}
	return nil
}

// await polls until every target has applied the source log through lsn.
func (c *cutover) await(ctx context.Context, lsn int64, deadline time.Time) error {
	for _, tg := range c.targets {
		for tg.stby.AppliedLSN() < lsn {
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d applied %d < source durable %d: %w",
					tg.slot, tg.stby.AppliedLSN(), lsn, ErrCatchup)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			time.Sleep(pollEvery)
		}
	}
	return nil
}

// drain finishes the fenced owners: waits for their in-flight writes to
// retire, flushes their logs, and ships the tail until every target's
// applied LSN equals the source's durable LSN exactly.
func (c *cutover) drain(ctx context.Context) error {
	deadline := time.Now().Add(drainWait)
	for {
		var n int64
		for _, o := range c.fence {
			n += o.inflight.Load()
		}
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d operations still in flight on the fenced owners after %v: %w",
				n, drainWait, ErrCatchup)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(pollEvery)
	}
	for _, o := range c.fence {
		if err := o.tc.Flush(); err != nil {
			return err
		}
	}
	for _, tg := range c.targets {
		if err := tg.ship.Drain(drainWait); err != nil {
			return err
		}
	}
	return c.await(ctx, c.src.tc.DurableLSN(), deadline)
}

// seal stops the streams, seals every standby at a higher epoch (late
// frames from these streams are fenced, exactly like a demoted
// primary's), and builds each new owner over its shipped log — the same
// continuation a promoted warm standby performs, refused with
// repl.ErrLogTail when the reopened log does not end at the sealed LSN.
// The commit clock starts
// at the max of what the target applied and every fenced owner's clock,
// so the new timeline stays monotonic even when a merge folds a second
// source in. The kind's own step then runs over the new owners; if
// anything fails they are closed and the resume re-streams.
func (c *cutover) seal(ctx context.Context) error {
	durable := c.src.tc.DurableLSN()
	var clock uint64
	for _, o := range c.fence {
		clock = max(clock, o.tc.Clock())
	}
	for _, tg := range c.targets {
		tg.ship.Stop()
		tg.stby.Stop()
		applied, maxTS := tg.stby.Seal(2)
		if applied != durable {
			return fmt.Errorf("shard %d sealed at applied %d but source durable is %d: %w",
				tg.slot, applied, durable, ErrCatchup)
		}
		tg.clock = max(maxTS, clock)
	}
	var err error
	for _, tg := range c.targets {
		if tg.own, err = c.r.newOwner(tg); err != nil {
			break
		}
		if tail := tg.own.tc.DurableLSN(); tail != durable {
			err = fmt.Errorf("shard %d log reopened at %d, sealed at %d: %w", tg.slot, tail, durable, repl.ErrLogTail)
			break
		}
	}
	if err == nil && c.finish != nil {
		err = c.finish(ctx, c.targets)
	}
	if err != nil {
		for _, tg := range c.targets {
			if tg.own != nil {
				tg.own.eng.Close()
				tg.own = nil
			}
		}
		return err
	}
	c.sealed = true
	return nil
}
