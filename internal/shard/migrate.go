package shard

import (
	"fmt"

	"costperf/internal/fault"
	"costperf/internal/tc"
)

// MigrateConfig parameterizes one live migration.
type MigrateConfig struct {
	// Shard is the partition to move (required).
	Shard int
	// Net injects faults into the migration link (nil = perfect link).
	// Dials are refused while it is partitioned (fault.ErrPartitioned).
	Net *fault.NetInjector
	// OnPhase, when non-nil, is called after each phase completes. A
	// non-nil return aborts the migration at that boundary — the chaos
	// harness's simulated crash. Run may be called again to resume.
	OnPhase func(Phase) error
}

// Migration is one live shard move: the cutover with one target, the same
// slot at the next owner generation, and nothing of its own to do at the
// seal. After the fence the shard's writes park on the cutover until it
// installs.
type Migration struct{ *cutover }

// Migrate starts a live migration of one shard to a fresh owner and
// returns the handle; call Run to drive it. One migration per shard at a
// time; replicated shards are refused (their mobility is failover).
func (r *Router) Migrate(cfg MigrateConfig) (*Migration, error) {
	src, err := r.tab.Load().source(cfg.Shard)
	if err != nil {
		return nil, err
	}
	c, _, err := r.newCutover(fmt.Sprintf("shard %d migration", cfg.Shard), cfg.Net, cfg.OnPhase, 0, src)
	if err != nil {
		return nil, err
	}
	c.targets = []*target{r.newTarget(cfg.Shard, src.gen+1)}
	c.install = func(tgs []*target) { r.installOwner(cfg.Shard, tgs[0].own) }
	return &Migration{c}, nil
}

// SourceTC exposes the old owner's transaction component so audits can
// prove the fence holds (a direct commit on it must fail with ErrMoved).
func (m *Migration) SourceTC() *tc.TC { return m.src.tc }
