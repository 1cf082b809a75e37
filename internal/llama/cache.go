// Package llama provides the cache-management half of LLAMA (Levandoski,
// Lomet, Sengupta, PVLDB 2013): it decides which pages stay in main memory
// and which are evicted to the log-structured store.
//
// Three policies are provided, matching the paper's discussion:
//
//   - PolicyLRU: the classic approximation traditional caching systems use
//     (paper Section 6: "usually some approximation of LRU").
//   - PolicyBreakeven: the paper's contribution — evict a page when the
//     time since its last access exceeds the breakeven interval T_i of
//     Equation 6 (~45 s with the paper's constants). Below that rate the
//     page is cheaper on flash.
//   - PolicyNone: never evict (main-memory operation).
//
// The cache manager is policy plumbing only: the access method (the
// Bw-tree) owns page state and performs the actual flush/evict through the
// PageOwner interface.
package llama

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"costperf/internal/llama/mapping"
	"costperf/internal/metrics"
)

// Policy selects the eviction policy.
type Policy int

const (
	// PolicyNone never evicts.
	PolicyNone Policy = iota
	// PolicyLRU evicts least-recently-used pages when over budget.
	PolicyLRU
	// PolicyBreakeven evicts pages idle longer than the breakeven
	// interval T_i, regardless of budget, and falls back to LRU when the
	// budget is exceeded.
	PolicyBreakeven
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyLRU:
		return "lru"
	case PolicyBreakeven:
		return "breakeven"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PageOwner is implemented by the access method (the Bw-tree).
type PageOwner interface {
	// EvictPage removes the page's base from memory; retainDeltas keeps
	// recent deltas as a record cache.
	EvictPage(pid mapping.PID, retainDeltas bool) error
	// PageResident reports whether the page's base is in memory.
	PageResident(pid mapping.PID) bool
	// LastAccess returns the virtual time of the page's last access.
	LastAccess(pid mapping.PID) float64
	// Pages lists all evictable (leaf) pages.
	Pages() []mapping.PID
}

// Clock yields the current virtual time in seconds.
type Clock interface {
	Now() float64
}

// Config configures a cache Manager.
type Config struct {
	// Owner is the access method managing page state.
	Owner PageOwner
	// Clock provides virtual time.
	Clock Clock
	// Policy selects eviction behaviour.
	Policy Policy
	// BreakevenSeconds is T_i for PolicyBreakeven (e.g. from
	// core.Costs.BreakevenInterval()).
	BreakevenSeconds float64
	// BudgetBytes caps resident page memory for PolicyLRU (and the
	// fallback of PolicyBreakeven). 0 = unlimited.
	BudgetBytes int64
	// RetainDeltas keeps delta chains in memory on eviction (the record
	// cache of paper Section 6.3).
	RetainDeltas bool
	// FootprintFn returns the owner's current memory footprint, used to
	// enforce BudgetBytes.
	FootprintFn func() int64
}

// Stats counts cache-manager events.
type Stats struct {
	BreakevenEvicts   metrics.Counter
	BudgetEvicts      metrics.Counter
	CandidatesSkipped metrics.Counter
}

// Manager applies an eviction policy over an owner's pages.
type Manager struct {
	cfg   Config
	mu    sync.Mutex
	stats Stats
}

// NewManager validates cfg and returns a Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Owner == nil {
		return nil, errors.New("llama: nil Owner")
	}
	if cfg.Clock == nil {
		return nil, errors.New("llama: nil Clock")
	}
	if cfg.Policy == PolicyBreakeven && cfg.BreakevenSeconds <= 0 {
		return nil, errors.New("llama: PolicyBreakeven requires BreakevenSeconds > 0")
	}
	if cfg.BudgetBytes > 0 && cfg.FootprintFn == nil {
		return nil, errors.New("llama: BudgetBytes requires FootprintFn")
	}
	return &Manager{cfg: cfg}, nil
}

// Stats returns the manager's counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// Sweep runs one eviction pass and returns the number of pages evicted.
// Call it periodically (the experiment harness calls it between workload
// phases; a production system would run it on a timer).
func (m *Manager) Sweep() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.Policy == PolicyNone {
		return 0, nil
	}
	now := m.cfg.Clock.Now()
	evicted := 0

	type cand struct {
		pid  mapping.PID
		last float64
	}
	var cands []cand
	for _, pid := range m.cfg.Owner.Pages() {
		if !m.cfg.Owner.PageResident(pid) {
			m.stats.CandidatesSkipped.Inc()
			continue
		}
		cands = append(cands, cand{pid, m.cfg.Owner.LastAccess(pid)})
	}

	// Breakeven rule: any page idle longer than T_i is cheaper on flash.
	if m.cfg.Policy == PolicyBreakeven {
		for _, c := range cands {
			if now-c.last > m.cfg.BreakevenSeconds {
				if err := m.cfg.Owner.EvictPage(c.pid, m.cfg.RetainDeltas); err != nil {
					return evicted, err
				}
				m.stats.BreakevenEvicts.Inc()
				evicted++
			}
		}
	}

	// Budget enforcement: evict coldest-first until under budget.
	if m.cfg.BudgetBytes > 0 && m.cfg.FootprintFn() > m.cfg.BudgetBytes {
		sort.Slice(cands, func(i, j int) bool { return cands[i].last < cands[j].last })
		for _, c := range cands {
			if m.cfg.FootprintFn() <= m.cfg.BudgetBytes {
				break
			}
			if !m.cfg.Owner.PageResident(c.pid) {
				continue // already evicted by the breakeven pass
			}
			if err := m.cfg.Owner.EvictPage(c.pid, m.cfg.RetainDeltas); err != nil {
				return evicted, err
			}
			m.stats.BudgetEvicts.Inc()
			evicted++
		}
	}
	return evicted, nil
}
