package shard

// The rebalancer closes the loop the five-minute-rule roll-up opened:
// the per-shard $/op table (rollup.go) says which shard the fleet is
// spending its money on; the rebalancer acts on it. Each Step compares
// every shard's spend over the last window — operations completed in the
// window times that shard's live $/op — against the fair share 1/N. A
// shard persistently over the high-water band is split at its range
// midpoint; a hash-adjacent pair of shards persistently under the cold
// band is merged. The band between the high and low water marks is the
// hysteresis that keeps a shard oscillating around fair share from
// flapping the map, and a post-action cooldown plus a
// must-have-been-seen-before rule for merges keeps a freshly split
// (zero-traffic) child from being merged straight back.

import (
	"context"
	"fmt"

	"costperf/internal/core"
)

// RebalanceConfig tunes the rebalancer.
type RebalanceConfig struct {
	// Base prices the per-shard snapshots (required: the trigger is $,
	// not ops).
	Base core.Costs

	// HighFactor arms a split when one shard's spend share exceeds
	// HighFactor/N (default 1.4); LowFactor re-arms the trigger once the
	// hottest share falls back below LowFactor/N (default 1.1). The gap
	// is the hysteresis band.
	HighFactor float64
	LowFactor  float64
	// ColdFrac merges a hash-adjacent pair when their combined spend
	// share is below ColdFrac/N (default 0.5).
	ColdFrac float64

	// Cooldown is the number of Steps skipped after an action, letting
	// the new shards accumulate a window of real traffic (default 2).
	Cooldown int
}

// RebalanceAction reports what one Step did.
type RebalanceAction struct {
	// Kind is "split" or "merge".
	Kind string
	// Slot is the split source or the merge's left shard; With is the
	// merge's right shard (-1 for splits).
	Slot, With int
	// Share is the triggering spend share; Fair is 1/N at decision time.
	Share, Fair float64
	// Reason is the human-readable trigger.
	Reason string
}

// Rebalancer drives cost-share rebalancing over one router. Call Step on
// whatever cadence fits the workload; each call looks at the spend since
// the previous call.
type Rebalancer struct {
	r   *Router
	cfg RebalanceConfig

	prevOps map[int]int64 // per-slot cumulative ops at the last Step
	armed   bool
	cool    int
}

// NewRebalancer builds a rebalancer over the router. The router must
// have a Registry (the $/op table is the input signal).
func (r *Router) NewRebalancer(cfg RebalanceConfig) (*Rebalancer, error) {
	if r.cfg.Registry == nil {
		return nil, fmt.Errorf("shard: rebalancer needs a router with a Registry")
	}
	if cfg.HighFactor <= 1 {
		cfg.HighFactor = 1.4
	}
	if cfg.LowFactor <= 1 || cfg.LowFactor > cfg.HighFactor {
		cfg.LowFactor = 1.1
		if cfg.LowFactor > cfg.HighFactor {
			cfg.LowFactor = cfg.HighFactor
		}
	}
	if cfg.ColdFrac <= 0 || cfg.ColdFrac >= 1 {
		cfg.ColdFrac = 0.5
	}
	if cfg.Cooldown < 0 {
		cfg.Cooldown = 0
	} else if cfg.Cooldown == 0 {
		cfg.Cooldown = 2
	}
	return &Rebalancer{r: r, cfg: cfg, prevOps: map[int]int64{}, armed: true}, nil
}

// Step observes one window of spend and performs at most one action —
// splitting the hottest shard or merging the coldest adjacent pair —
// driving the resize to completion before returning. A nil action means
// the fleet is inside the band (or the trigger is in cooldown /
// disarmed). The error reports a failed or refused resize; the
// rebalancer state survives it, so the next Step retries naturally.
func (b *Rebalancer) Step(ctx context.Context) (*RebalanceAction, error) {
	m := b.r.Map()
	n := len(m.Entries)
	snaps := b.r.LiveSnapshots()

	// Spend per live slot over the window: ops completed since the last
	// Step, priced at the shard's live $/op. Both guards matter for
	// freshly split shards: zero cumulative ops means DollarPerOp has no
	// measurement to price with, and zero window ops means no spend.
	spend := make([]float64, n)
	seen := make(map[int]bool, n)
	var total float64
	nextOps := make(map[int]int64, n)
	for i, s := range snaps {
		slot := m.Entries[i].Slot
		nextOps[slot] = s.Ops
		_, seen[slot] = b.prevOps[slot]
		delta := s.Ops - b.prevOps[slot]
		if delta > 0 && s.Ops > 0 {
			spend[i] = float64(delta) * s.DollarPerOp(b.cfg.Base)
			total += spend[i]
		}
	}
	b.prevOps = nextOps

	if b.cool > 0 {
		b.cool--
		return nil, nil
	}
	if total <= 0 {
		return nil, nil
	}
	fair := 1 / float64(n)

	// Hottest shard vs the band.
	hotIdx, hotShare := -1, 0.0
	for i := range spend {
		if share := spend[i] / total; share > hotShare {
			hotIdx, hotShare = i, share
		}
	}
	if !b.armed && hotShare < b.cfg.LowFactor*fair {
		b.armed = true
	}
	if b.armed && n > 1 && hotShare > b.cfg.HighFactor*fair && n < MaxMapEntries {
		slot := m.Entries[hotIdx].Slot
		act := &RebalanceAction{
			Kind: "split", Slot: slot, With: -1,
			Share: hotShare, Fair: fair,
			Reason: fmt.Sprintf("shard %d spend share %.3f > %.3f (%.1fx fair)",
				slot, hotShare, b.cfg.HighFactor*fair, b.cfg.HighFactor),
		}
		s, err := b.r.Split(SplitConfig{Shard: slot})
		if err != nil {
			return nil, fmt.Errorf("rebalance split shard %d: %w", slot, err)
		}
		if err := s.Run(ctx); err != nil {
			return nil, fmt.Errorf("rebalance split shard %d: %w", slot, err)
		}
		b.armed = false
		b.cool = b.cfg.Cooldown
		return act, nil
	}

	// Coldest adjacent pair vs the cold band. Only pairs whose slots
	// were both observed in a previous window qualify — a child shard
	// minted by the last split has no window yet and must not be merged
	// back on sight.
	coldIdx, coldShare := -1, 0.0
	for i := 0; i+1 < n; i++ {
		l, r := m.Entries[i].Slot, m.Entries[i+1].Slot
		if !seen[l] || !seen[r] {
			continue
		}
		pair := (spend[i] + spend[i+1]) / total
		if coldIdx < 0 || pair < coldShare {
			coldIdx, coldShare = i, pair
		}
	}
	if coldIdx >= 0 && n > 1 && coldShare < b.cfg.ColdFrac*fair {
		l, rr := m.Entries[coldIdx].Slot, m.Entries[coldIdx+1].Slot
		act := &RebalanceAction{
			Kind: "merge", Slot: l, With: rr,
			Share: coldShare, Fair: fair,
			Reason: fmt.Sprintf("shards %d+%d spend share %.3f < %.3f (%.1fx fair)",
				l, rr, coldShare, b.cfg.ColdFrac*fair, b.cfg.ColdFrac),
		}
		mg, err := b.r.Merge(MergeConfig{Left: l, Right: rr})
		if err != nil {
			return nil, fmt.Errorf("rebalance merge shards %d+%d: %w", l, rr, err)
		}
		if err := mg.Run(ctx); err != nil {
			return nil, fmt.Errorf("rebalance merge shards %d+%d: %w", l, rr, err)
		}
		b.cool = b.cfg.Cooldown
		return act, nil
	}
	return nil, nil
}
