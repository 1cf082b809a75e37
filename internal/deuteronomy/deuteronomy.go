// Package deuteronomy builds the paper's data caching system, a Bw-tree
// over LLAMA's cache manager and log-structured store (Deuteronomy 2.0's
// data component, which owns its own cache and log), in one call that
// creates it on an empty device or recovers it from a checkpointed one.
package deuteronomy

import (
	"costperf/internal/bwtree"
	"costperf/internal/core"
	"costperf/internal/llama"
	"costperf/internal/llama/logstore"
	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
)

// Config configures Open. A zero field means what it means in the
// component configs, except for the three defaults setDefaults sets.
type Config struct {
	// Device holds the log (default: a fresh Samsung-class SSD).
	Device ssd.Dev
	// Session charges execution cost and is the cache manager's clock.
	// Nil charges nothing, and the manager runs on its own virtual clock.
	Session *sim.Session
	// MaxPageBytes (default 4096) and ConsolidateAfter (default 8) are the
	// Bw-tree's split and delta-chain consolidation thresholds.
	MaxPageBytes, ConsolidateAfter int
	// WriteBufferBytes (default 1 MiB) and SegmentBytes (default 4 MiB)
	// size the log store's flush buffer and GC segment.
	WriteBufferBytes int
	SegmentBytes     int64
	// Policy selects the eviction policy. PolicyNone, the zero value, takes
	// the default PolicyBreakeven (a caller that wants none never Sweeps).
	Policy llama.Policy
	// BreakevenSeconds is T_i for PolicyBreakeven (default: paper's ≈45 s).
	BreakevenSeconds float64
	// MemoryBudgetBytes caps the cache footprint (0 = unlimited).
	MemoryBudgetBytes int64
	// Obs and LogObs trace the tree and its log store (nil: no tracing).
	Obs, LogObs *obs.Tracer
}

// setDefaults is the stack's one defaults table.
func (c *Config) setDefaults() {
	if c.Device == nil {
		c.Device = ssd.New(ssd.SamsungSSD)
	}
	if c.Policy == llama.PolicyNone {
		c.Policy = llama.PolicyBreakeven
	}
	if c.BreakevenSeconds == 0 {
		c.BreakevenSeconds = core.PaperCosts().BreakevenInterval()
	}
}

// Stack is the data caching stack; its tree makes it a tc.DataComponent.
type Stack struct {
	*bwtree.Tree
	Log     *logstore.Store
	Device  ssd.Dev
	Cache   *llama.Manager
	Session *sim.Session
}

// Open opens the log store on cfg.Device, recovers the tree when the log
// holds bytes (without a checkpoint: bwtree.ErrNoCheckpoint) or creates
// it when the log is empty, and attaches the cache manager, which holds
// the tree's footprint to MemoryBudgetBytes.
func Open(cfg Config) (*Stack, error) {
	cfg.setDefaults()
	log, err := logstore.Open(logstore.Config{Device: cfg.Device, Obs: cfg.LogObs,
		BufferBytes: cfg.WriteBufferBytes, SegmentBytes: cfg.SegmentBytes})
	if err != nil {
		return nil, err
	}
	build := bwtree.New
	if log.Tail() > 0 {
		build = bwtree.Open
	}
	tree, err := build(bwtree.Config{Store: log, Session: cfg.Session, Obs: cfg.Obs,
		MaxPageBytes: cfg.MaxPageBytes, ConsolidateAfter: cfg.ConsolidateAfter})
	if err != nil {
		return nil, err
	}
	var clock llama.Clock = new(sim.VirtualClock)
	if cfg.Session != nil {
		clock = cfg.Session.Clock()
	}
	mgrCfg := llama.Config{Owner: tree, Clock: clock, Policy: cfg.Policy, RetainDeltas: true,
		BreakevenSeconds: cfg.BreakevenSeconds, BudgetBytes: cfg.MemoryBudgetBytes}
	if cfg.MemoryBudgetBytes > 0 {
		mgrCfg.FootprintFn = tree.FootprintBytes
	}
	mgr, err := llama.NewManager(mgrCfg)
	if err != nil {
		return nil, err
	}
	return &Stack{Tree: tree, Log: log, Device: cfg.Device, Cache: mgr, Session: cfg.Session}, nil
}

// Put upserts a key (a latch-free delta update).
func (s *Stack) Put(key, val []byte) error { return s.Insert(key, val) }

// BlindPut upserts without the target page in memory (Section 6.2).
func (s *Stack) BlindPut(key, val []byte) error { return s.BlindWrite(key, val) }

// Sweep runs one eviction pass under the configured policy.
func (s *Stack) Sweep() (int, error) { return s.Cache.Sweep() }

// Checkpoint makes the tree durable, for Open to recover.
func (s *Stack) Checkpoint() error { return s.FlushAll() }

// CollectGarbage runs one log-store GC pass.
func (s *Stack) CollectGarbage() (int64, error) {
	return s.Log.CollectSegment(s.RelocateForGC, nil)
}
