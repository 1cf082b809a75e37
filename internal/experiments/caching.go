package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"costperf/internal/bwtree"
	"costperf/internal/core"
	"costperf/internal/llama"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/tc"
	"costperf/internal/workload"
)

// ---------------------------------------------------------------------------
// D7: TC record caching (paper Section 6.3, Figure 6): hits in the MVCC
// version store or the read cache avoid both the I/O and the data
// component visit.

// RecordCacheResult is the D7 experiment output.
type RecordCacheResult struct {
	Reads            int64
	VersionStoreHits int64
	ReadCacheHits    int64
	DCReads          int64
	DeviceReads      int64
	TCHitRatio       float64
}

// MeasureRecordCache runs a hot/cold transactional workload over the full
// Deuteronomy stack with all pages evicted, so every DC read costs an I/O.
func MeasureRecordCache(keys, txs int) (*RecordCacheResult, error) {
	s, err := newStack(sim.NewSession(sim.DefaultCosts()), nil)
	if err != nil {
		return nil, err
	}
	if err := load(s, uint64(keys), 64); err != nil {
		return nil, err
	}
	logDev := ssd.New(ssd.SamsungSSD)
	c, err := tc.New(tc.Config{DC: s.Tree, LogDevice: logDev, Session: s.Session})
	if err != nil {
		return nil, err
	}
	if err := evictAll(s, false); err != nil {
		return nil, err
	}
	hot := workload.NewHotCold(3, 0.1, 0.9)
	rng := rand.New(rand.NewSource(3))
	r0 := s.Device.Stats().Reads.Value()
	for i := 0; i < txs; i++ {
		tx, err := c.Begin()
		if err != nil {
			return nil, err
		}
		for j := 0; j < 4; j++ {
			id := hot.Next(uint64(keys))
			if _, _, err := tx.Read(workload.Key(id)); err != nil {
				return nil, err
			}
		}
		if rng.Float64() < 0.25 {
			id := hot.Next(uint64(keys))
			if err := tx.Write(workload.Key(id), workload.ValueFor(id, 64)); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil && err != tc.ErrConflict {
			return nil, err
		}
	}
	st := c.Stats()
	total := st.VersionStoreHits.Value() + st.ReadCacheHits.Value() + st.DCReads.Value()
	res := &RecordCacheResult{
		Reads:            total,
		VersionStoreHits: st.VersionStoreHits.Value(),
		ReadCacheHits:    st.ReadCacheHits.Value(),
		DCReads:          st.DCReads.Value(),
		DeviceReads:      s.Device.Stats().Reads.Value() - r0,
	}
	if total > 0 {
		res.TCHitRatio = float64(res.VersionStoreHits+res.ReadCacheHits) / float64(total)
	}
	return res, nil
}

// String renders the D7 result.
func (r *RecordCacheResult) String() string {
	return fmt.Sprintf(`D7: TC record caching (Section 6.3)
  %d snapshot reads: %d version-store hits, %d read-cache hits, %d DC reads
  TC hit ratio %.3f — each hit avoids both the I/O and the DC lookup
  device read I/Os actually issued: %d
`, r.Reads, r.VersionStoreHits, r.ReadCacheHits, r.DCReads, r.TCHitRatio, r.DeviceReads)
}

// ---------------------------------------------------------------------------
// A1: eviction-policy ablation — none vs LRU vs the breakeven rule, on a
// hot/cold workload with an advancing virtual clock. Costs are evaluated
// with the paper's Section 4.1 model over the measured footprint and rates.

// PolicyOutcome is one policy's measured outcome.
type PolicyOutcome struct {
	Policy        llama.Policy
	MissFraction  float64
	FootprintMB   float64
	Evictions     int64
	EstCostPerSec float64 // model-estimated $/s for the measured mix
}

// EvictionAblation is the A1 output.
type EvictionAblation struct {
	Outcomes []PolicyOutcome
}

// MeasureEvictionPolicies runs the same hot/cold workload under each
// policy. The virtual clock advances so cold pages age past T_i.
func MeasureEvictionPolicies(keys int, ops int) (*EvictionAblation, error) {
	costs := core.PaperCosts()
	ti := costs.BreakevenInterval()
	res := &EvictionAblation{}
	for _, pol := range []llama.Policy{llama.PolicyNone, llama.PolicyLRU, llama.PolicyBreakeven} {
		s, err := newStack(sim.NewSession(sim.DefaultCosts()), nil)
		if err != nil {
			return nil, err
		}
		if err := load(s, uint64(keys), 64); err != nil {
			return nil, err
		}
		// A1 builds its own manager over the stack's tree: the policy is
		// the variable it sweeps, and its LRU budget is ¼ of the loaded
		// footprint.
		cfg := llama.Config{
			Owner:            s.Tree,
			Clock:            s.Session.Clock(),
			Policy:           pol,
			RetainDeltas:     true,
			BreakevenSeconds: ti,
		}
		if pol == llama.PolicyLRU {
			cfg.BudgetBytes = s.Tree.FootprintBytes() / 4
			cfg.FootprintFn = s.Tree.FootprintBytes
		}
		mgr, err := llama.NewManager(cfg)
		if err != nil {
			return nil, err
		}
		dataBytes := float64(s.Tree.FootprintBytes()) // all data starts resident
		hot := workload.NewHotCold(13, 0.1, 0.95)
		s.Session.Tracker().Reset()
		start := s.Session.Clock().Now()
		for i := 0; i < ops; i++ {
			id := hot.Next(uint64(keys))
			if _, _, err := s.Tree.Get(workload.Key(id)); err != nil {
				return nil, err
			}
			// Advance virtual time so the cold 90% of pages age past T_i
			// between touches while hot pages stay fresh.
			s.Session.Clock().Advance(ti / float64(ops) * 20)
			if i%200 == 199 {
				if _, err := mgr.Sweep(); err != nil {
					return nil, err
				}
			}
		}
		elapsed := s.Session.Clock().Now() - start
		tk := s.Session.Tracker()
		f := tk.MissFraction()
		fp := float64(s.Tree.FootprintBytes())
		// Model (paper Equations 4–5 applied to the measured state): DRAM
		// rent for the resident footprint, flash rent for the durable copy
		// of all data, and execution cost at the workload's actual rate.
		n := float64(ops) / elapsed
		memRent := fp * costs.DRAMPerByte
		flashRent := dataBytes * costs.FlashPerByte
		exec := n * ((1-f)*costs.MMExecCostPerOp() + f*costs.SSExecCostPerOp())
		res.Outcomes = append(res.Outcomes, PolicyOutcome{
			Policy:        pol,
			MissFraction:  f,
			FootprintMB:   fp / (1 << 20),
			Evictions:     mgr.Stats().BreakevenEvicts.Value() + mgr.Stats().BudgetEvicts.Value(),
			EstCostPerSec: memRent + flashRent + exec,
		})
	}
	return res, nil
}

// String renders the A1 result.
func (r *EvictionAblation) String() string {
	var b strings.Builder
	b.WriteString("A1: eviction-policy ablation (hot/cold 90/10)\n")
	fmt.Fprintf(&b, "%12s %8s %12s %10s %14s\n", "policy", "missF", "footprintMB", "evicts", "est $/s (rel)")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "%12s %8.4f %12.2f %10d %14.4g\n",
			o.Policy, o.MissFraction, o.FootprintMB, o.Evictions, o.EstCostPerSec)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// A2: consolidation-threshold ablation — the Bw-tree design knob DESIGN.md
// calls out. Longer chains defer consolidation work but make every lookup
// walk more deltas.

// ConsolidationPoint is one threshold's measured cost.
type ConsolidationPoint struct {
	Threshold     int
	MeanReadCost  float64
	MeanWriteCost float64
}

// ConsolidationAblation is the A2 output.
type ConsolidationAblation struct {
	Points []ConsolidationPoint
}

// MeasureConsolidationThreshold sweeps the delta-chain threshold under an
// update-heavy workload.
func MeasureConsolidationThreshold(keys, ops int, thresholds []int) (*ConsolidationAblation, error) {
	res := &ConsolidationAblation{}
	for _, th := range thresholds {
		sess := sim.NewSession(sim.DefaultCosts())
		// A main-memory tree with no store: not the data caching stack.
		tree, err := bwtree.New(bwtree.Config{Session: sess, ConsolidateAfter: th})
		if err != nil {
			return nil, err
		}
		for i := 0; i < keys; i++ {
			if err := tree.Insert(workload.Key(uint64(i)), workload.ValueFor(uint64(i), 64)); err != nil {
				return nil, err
			}
		}
		sess.Tracker().Reset()
		rng := rand.New(rand.NewSource(int64(th)))
		writes, reads := 0, 0
		var writeCost, readCost sim.Cost
		for i := 0; i < ops; i++ {
			id := uint64(rng.Int63n(int64(keys)))
			before := sess.Tracker().CostOf(sim.OpMM)
			if i%2 == 0 {
				if err := tree.Insert(workload.Key(id), workload.ValueFor(id, 64)); err != nil {
					return nil, err
				}
				writeCost += sess.Tracker().CostOf(sim.OpMM) - before
				writes++
			} else {
				if _, _, err := tree.Get(workload.Key(id)); err != nil {
					return nil, err
				}
				readCost += sess.Tracker().CostOf(sim.OpMM) - before
				reads++
			}
		}
		res.Points = append(res.Points, ConsolidationPoint{
			Threshold:     th,
			MeanReadCost:  float64(readCost) / float64(reads),
			MeanWriteCost: float64(writeCost) / float64(writes),
		})
	}
	return res, nil
}

// String renders the A2 result.
func (r *ConsolidationAblation) String() string {
	var b strings.Builder
	b.WriteString("A2: delta-chain consolidation threshold ablation (update-heavy)\n")
	fmt.Fprintf(&b, "%10s %14s %14s\n", "threshold", "read cost/op", "write cost/op")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %14.1f %14.1f\n", p.Threshold, p.MeanReadCost, p.MeanWriteCost)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// A3: device-profile sweep (paper Sections 7.1.2, 8.2, 8.3): how the
// five-minute rule moves across SSD generations, HDDs, and NVRAM.

// DevicePoint is one device's model evaluation.
type DevicePoint struct {
	Name          string
	IOPS          float64
	BreakevenSecs float64
	BreakevenRate float64
}

// DeviceSweep is the A3 output.
type DeviceSweep struct {
	Points []DevicePoint
}

// MeasureDeviceSweep evaluates Equation 6 for each device profile.
func MeasureDeviceSweep() *DeviceSweep {
	base := core.PaperCosts()
	res := &DeviceSweep{}
	for _, cfg := range []ssd.Config{ssd.SamsungSSD, ssd.NextGenSSD, ssd.EnterpriseHDD, ssd.CommodityHDD, ssd.NVRAM} {
		c := base
		c.IOPS = cfg.MaxIOPS
		if cfg.IOPSCost > 0 {
			c.IOPSCost = cfg.IOPSCost
		} else {
			c.IOPSCost = 1e-6 // NVRAM: no bundled I/O capability cost
		}
		c.FlashPerByte = cfg.CostPerByte
		if cfg.Path == ssd.KernelPath {
			c.R = 9 // conventional OS I/O path (paper Section 7.1.1)
		}
		res.Points = append(res.Points, DevicePoint{
			Name:          cfg.Name,
			IOPS:          cfg.MaxIOPS,
			BreakevenSecs: c.BreakevenInterval(),
			BreakevenRate: c.BreakevenRate(),
		})
	}
	return res
}

// String renders the A3 result.
func (r *DeviceSweep) String() string {
	var b strings.Builder
	b.WriteString("A3: five-minute rule across device profiles (Equation 6)\n")
	fmt.Fprintf(&b, "%16s %12s %16s %16s\n", "device", "IOPS", "breakeven T_i(s)", "breakeven ops/s")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%16s %12.3g %16.4g %16.4g\n", p.Name, p.IOPS, p.BreakevenSecs, p.BreakevenRate)
	}
	return b.String()
}
