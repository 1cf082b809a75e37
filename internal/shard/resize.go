package shard

// Elastic resize: Split and Merge change the shard count while traffic
// continues. Both are the one cutover (cutover.go) with their own targets,
// fenced owners, seal step and install.
//
// A split streams the source's recovery log into TWO fresh owners (each
// a full standby applying the whole log), fences and drains the source,
// seals both targets at the source's exact durable LSN, prunes each
// target's data component down to its half of the hash range, and
// installs a map where the source's range is owned by the two new slots.
// Because placement is by range, the only keys that change owner are the
// source's own — the bounded-movement claim the sweep measures.
//
// A merge streams the LEFT source's log into one fresh owner, fences and
// drains BOTH sources, seals the target at the left's durable LSN, then
// folds the right source's final (fenced, immutable) state in through
// logged transactions on the new TC — a copy that is idempotent under
// re-streaming, so a crash at any pre-install boundary redoes it safely.

import (
	"context"
	"fmt"

	"costperf/internal/engine"
	"costperf/internal/fault"
	"costperf/internal/tc"
)

// SplitConfig parameterizes one shard split.
type SplitConfig struct {
	// Shard is the slot to split (required; must be a plain shard).
	Shard int
	// At is the hash split point; the source's range [lo, hi) becomes
	// [lo, At) and [At, hi). Zero means the range midpoint.
	At uint64
	// Net injects faults into both child streams (nil = perfect links).
	Net *fault.NetInjector
	// OnPhase is the per-boundary crash hook (see MigrateConfig.OnPhase).
	OnPhase func(Phase) error
}

// Split is one in-flight shard split. Run drives it; it resumes from any
// aborted boundary.
type Split struct {
	*cutover
	at uint64
}

// Split starts splitting one shard's hash range across two freshly
// minted slots and returns the handle; call Run to drive it. The source
// slot is locked against concurrent migration/resize until the split
// installs.
func (r *Router) Split(cfg SplitConfig) (*Split, error) {
	t := r.tab.Load()
	src, err := t.source(cfg.Shard)
	if err != nil {
		return nil, err
	}
	lo, hi := t.m.Range(t.m.indexOfSlot(cfg.Shard))
	at := cfg.At
	if at == 0 {
		at = midpoint(lo, hi)
	}
	if !InRange(at, lo, hi) || at == lo {
		return nil, fmt.Errorf("split point %#x outside shard %d range [%#x, %#x): %w",
			at, cfg.Shard, lo, hi, ErrBadMap)
	}
	c, slots, err := r.newCutover(fmt.Sprintf("shard %d split", cfg.Shard), cfg.Net, cfg.OnPhase, 2, src)
	if err != nil {
		return nil, err
	}
	c.targets = []*target{r.newTarget(slots[0], 1), r.newTarget(slots[1], 1)}
	// The prune is a direct (unlogged) data-component operation: if the
	// split dies before install, the resume re-streams the whole source
	// log, whose blind redo restores every pruned key before the prune
	// runs again.
	c.finish = func(_ context.Context, tgs []*target) error {
		for i, keep := range [2][2]uint64{{lo, at}, {at, hi}} {
			if err := pruneDC(tgs[i].dc, keep[0], keep[1]); err != nil {
				return fmt.Errorf("prune shard %d: %w", tgs[i].slot, err)
			}
		}
		return nil
	}
	c.install = func(tgs []*target) { r.installSplit(cfg.Shard, at, tgs[0].own, tgs[1].own) }
	return &Split{cutover: c, at: at}, nil
}

// Slots returns the two slot numbers the split mints (stable across
// resumes; live once the split installs).
func (s *Split) Slots() (low, high int) { return s.targets[0].slot, s.targets[1].slot }

// At returns the hash split point.
func (s *Split) At() uint64 { return s.at }

// SourceTC exposes the retired owner's TC so audits can prove the fence
// holds.
func (s *Split) SourceTC() *tc.TC { return s.src.tc }

// pruneDC deletes every key outside [lo, hi) from the data component.
// The DC must expose an ordered scan (tc.Scanner) — the same capability
// router scans already require.
func pruneDC(dc tc.DataComponent, lo, hi uint64) error {
	sc, ok := dc.(tc.Scanner)
	if !ok {
		return fmt.Errorf("data component %T does not support scans", dc)
	}
	var drop [][]byte
	if err := sc.Scan(nil, 0, func(k, _ []byte) bool {
		if !InRange(Hash(k), lo, hi) {
			drop = append(drop, append([]byte(nil), k...))
		}
		return true
	}); err != nil {
		return err
	}
	for _, k := range drop {
		if err := dc.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// MergeConfig parameterizes one shard merge.
type MergeConfig struct {
	// Left and Right are the slots to merge; Right's range must
	// immediately follow Left's in hash order (both plain shards).
	Left, Right int
	// Net injects faults into the merge stream (nil = perfect link).
	Net *fault.NetInjector
	// OnPhase is the per-boundary crash hook.
	OnPhase func(Phase) error
}

// Merge is one in-flight shard merge. Run drives it; it resumes from any
// aborted boundary.
type Merge struct{ *cutover }

// Merge starts merging two hash-adjacent shards into one freshly minted
// slot and returns the handle; call Run to drive it. Both source slots
// are locked against concurrent migration/resize until the merge
// installs.
func (r *Router) Merge(cfg MergeConfig) (*Merge, error) {
	t := r.tab.Load()
	left, err := t.source(cfg.Left)
	if err != nil {
		return nil, err
	}
	right, err := t.source(cfg.Right)
	if err != nil {
		return nil, err
	}
	if t.m.indexOfSlot(cfg.Right) != t.m.indexOfSlot(cfg.Left)+1 {
		return nil, fmt.Errorf("shards %d and %d: %w", cfg.Left, cfg.Right, ErrNotAdjacent)
	}
	c, slots, err := r.newCutover(fmt.Sprintf("shard %d+%d merge", cfg.Left, cfg.Right),
		cfg.Net, cfg.OnPhase, 1, left, right)
	if err != nil {
		return nil, err
	}
	c.targets = []*target{r.newTarget(slots[0], 1)}
	c.finish = func(ctx context.Context, tgs []*target) error {
		if err := fold(ctx, right.eng, tgs[0].own.tc); err != nil {
			return fmt.Errorf("fold right shard state: %w", err)
		}
		return nil
	}
	c.install = func(tgs []*target) { r.installMerge(cfg.Left, cfg.Right, tgs[0].own) }
	return &Merge{c}, nil
}

// Slot returns the merged slot number (stable across resumes; live once
// the merge installs).
func (m *Merge) Slot() int { return m.targets[0].slot }

// SourceTCs exposes both retired owners' TCs for fence audits.
func (m *Merge) SourceTCs() (left, right *tc.TC) { return m.fence[0].tc, m.fence[1].tc }

// fold replays a fenced, drained source's final state onto dst in batched,
// logged transactions. The source is immutable, so re-running the fold
// after a crash writes the same values again — idempotent, like every
// other redo in the cutover.
func fold(ctx context.Context, src *engine.Engine, dst *tc.TC) error {
	var keys, vals [][]byte
	err := src.Scan(ctx, nil, 0, func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		vals = append(vals, append([]byte(nil), v...))
		return true
	})
	if err != nil {
		return err
	}
	const batch = 128
	for i := 0; i < len(keys); i += batch {
		tx, err := dst.Begin()
		if err != nil {
			return err
		}
		for j := i; j < len(keys) && j < i+batch; j++ {
			if err := tx.Write(keys[j], vals[j]); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}
