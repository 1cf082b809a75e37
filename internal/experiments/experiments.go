// Package experiments implements the measured experiments of the
// reproduction (DESIGN.md D1–D8 and ablations A1–A3): each builds the
// relevant stack — Bw-tree over LLAMA over a simulated SSD, MassTree,
// classic B-tree, LSM, transaction component — drives a workload, and
// reports the quantities the paper derives from its testbed (R, P0/PF,
// M_x/P_x, page utilization, write/read I/O reductions).
//
// Experiments are deterministic: randomness is seeded and execution cost
// comes from the sim package's cost accounting, not wall clocks.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"costperf/internal/bwtree"
	"costperf/internal/core"
	"costperf/internal/deuteronomy"
	"costperf/internal/masstree"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// newStack builds the paper's data caching stack on dev (nil: a fresh
// Samsung-class SSD) with 256 KiB write buffers and 1 MiB GC segments.
func newStack(sess *sim.Session, dev ssd.Dev) (*deuteronomy.Stack, error) {
	return deuteronomy.Open(deuteronomy.Config{Device: dev, Session: sess, WriteBufferBytes: 1 << 18, SegmentBytes: 1 << 20})
}

func load(s *deuteronomy.Stack, keys uint64, valueSize int) error {
	for i := uint64(0); i < keys; i++ {
		if err := s.Tree.Insert(workload.Key(i), workload.ValueFor(i, valueSize)); err != nil {
			return err
		}
	}
	return settle(s)
}

// settle flushes (and so consolidates) every page and the log buffer, so
// steady-state pages are measured.
func settle(s *deuteronomy.Stack) error {
	for _, pid := range s.Tree.Pages() {
		if err := s.Tree.FlushPage(pid); err != nil {
			return err
		}
	}
	return s.Log.Flush(nil)
}

func evictAll(s *deuteronomy.Stack, retainDeltas bool) error {
	for _, pid := range s.Tree.Pages() {
		if err := s.Tree.EvictPage(pid, retainDeltas); err != nil {
			return err
		}
	}
	return s.Log.Flush(nil)
}

// ---------------------------------------------------------------------------
// D1: derive R from mixed MM/SS workloads (paper Section 2.2, Figure 1).

// RPoint is one measured mixed-workload sample.
type RPoint struct {
	TargetF   float64 // requested SS fraction
	MeasuredF float64 // observed miss fraction
	RelPerf   float64 // PF / P0
	R         float64 // Equation 3 applied to the measurement
}

// RResult is the D1 experiment output.
type RResult struct {
	P0     float64  // ops per cost-unit, all-MM
	Points []RPoint // one per target miss fraction
	MeanR  float64
}

// DeriveR loads a keyspace, measures P0 on warm reads, then sweeps the SS
// fraction by directing a controlled share of reads at evicted pages.
func DeriveR(keys uint64, fractions []float64, path ssd.IOPath) (*RResult, error) {
	dev := ssd.SamsungSSD
	dev.Path = path
	s, err := newStack(sim.NewSession(sim.DefaultCosts()), ssd.New(dev))
	if err != nil {
		return nil, err
	}
	if err := load(s, keys, 64); err != nil {
		return nil, err
	}
	// Warm everything, then measure P0.
	for i := uint64(0); i < keys; i++ {
		if _, _, err := s.Tree.Get(workload.Key(i)); err != nil {
			return nil, err
		}
	}
	s.Session.Tracker().Reset()
	rng := rand.New(rand.NewSource(42))
	const warmOps = 4000
	for i := 0; i < warmOps; i++ {
		if _, _, err := s.Tree.Get(workload.Key(uint64(rng.Int63n(int64(keys) / 2)))); err != nil {
			return nil, err
		}
	}
	p0 := s.Session.Tracker().Throughput()
	res := &RResult{P0: p0}

	// Stride cold reads so each one hits a distinct evicted page; the
	// stride comfortably exceeds the keys-per-page of consolidated leaves.
	const stride = 64
	coldBase := keys / 2
	coldPool := (keys - coldBase) / stride

	for _, f := range fractions {
		if err := evictAll(s, false); err != nil {
			return nil, err
		}
		// Re-warm the warm half completely so its reads are pure MM.
		for i := uint64(0); i < keys/2; i++ {
			if _, _, err := s.Tree.Get(workload.Key(i)); err != nil {
				return nil, err
			}
		}
		// Size the run so cold reads never wrap back onto warmed pages.
		ops := 3000
		if f > 0 && float64(coldPool)/f < float64(ops) {
			ops = int(float64(coldPool) / f)
		}
		s.Session.Tracker().Reset()
		rng := rand.New(rand.NewSource(7))
		coldCursor := uint64(0)
		for i := 0; i < ops; i++ {
			if rng.Float64() < f && coldCursor < coldPool {
				// Cold read: a distinct evicted page each time.
				k := coldBase + coldCursor*stride
				coldCursor++
				if _, _, err := s.Tree.Get(workload.Key(k)); err != nil {
					return nil, err
				}
			} else {
				k := uint64(rng.Int63n(int64(keys) / 2))
				if _, _, err := s.Tree.Get(workload.Key(k)); err != nil {
					return nil, err
				}
			}
		}
		tk := s.Session.Tracker()
		mf := tk.MissFraction()
		pf := tk.Throughput()
		pt := RPoint{TargetF: f, MeasuredF: mf, RelPerf: pf / p0}
		if r, err := core.DeriveR(p0, pf, mf); err == nil {
			pt.R = r
		}
		res.Points = append(res.Points, pt)
	}
	var sum float64
	n := 0
	for _, p := range res.Points {
		if p.R > 0 {
			sum += p.R
			n++
		}
	}
	if n > 0 {
		res.MeanR = sum / float64(n)
	}
	return res, nil
}

// String renders the result as the paper's Figure 1 measured points.
func (r *RResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "D1: derive R (Equation 3) — mean R = %.2f\n", r.MeanR)
	fmt.Fprintf(&b, "%8s %10s %10s %8s\n", "targetF", "measuredF", "PF/P0", "R")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.3f %10.4f %10.4f %8.2f\n", p.TargetF, p.MeasuredF, p.RelPerf, p.R)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// D3: measure MassTree's memory expansion M_x and performance gain P_x
// against the fully cached Bw-tree (paper Section 5.1).

// MxPxResult is the D3 experiment output.
type MxPxResult struct {
	Keys             uint64
	BwFootprint      int64
	MassFootprint    int64
	Mx               float64
	BwCostPerOp      float64
	MassCostPerOp    float64
	Px               float64
	BreakevenRate6GB float64 // Equation 7 evaluated with measured Mx/Px at 6.1 GB
}

// MeasureMxPx loads identical data into both stores and measures footprint
// and read-only execution cost.
func MeasureMxPx(keys uint64, valueSize int) (*MxPxResult, error) {
	sessBw := sim.NewSession(sim.DefaultCosts())
	// A main-memory tree with no store: not the data caching stack.
	bw, err := bwtree.New(bwtree.Config{Session: sessBw})
	if err != nil {
		return nil, err
	}
	sessMt := sim.NewSession(sim.DefaultCosts())
	mt := masstree.New(sessMt)

	for i := uint64(0); i < keys; i++ {
		k, v := workload.Key(i), workload.ValueFor(i, valueSize)
		if err := bw.Insert(k, v); err != nil {
			return nil, err
		}
		mt.Put(k, v)
	}
	// Read-only measurement (paper: 4-core read-only point experiment).
	sessBw.Tracker().Reset()
	sessMt.Tracker().Reset()
	rng := rand.New(rand.NewSource(11))
	const ops = 20000
	for i := 0; i < ops; i++ {
		k := workload.Key(uint64(rng.Int63n(int64(keys))))
		if _, _, err := bw.Get(k); err != nil {
			return nil, err
		}
		mt.Get(k)
	}
	res := &MxPxResult{
		Keys:          keys,
		BwFootprint:   bw.FootprintBytes(),
		MassFootprint: mt.FootprintBytes(),
		BwCostPerOp:   float64(sessBw.Tracker().MeanCost(sim.OpMM)),
		MassCostPerOp: float64(sessMt.Tracker().MeanCost(sim.OpMM)),
	}
	res.Mx = float64(res.MassFootprint) / float64(res.BwFootprint)
	res.Px = res.BwCostPerOp / res.MassCostPerOp
	if res.Mx > 1 && res.Px > 1 {
		cmp := core.MainMemoryComparison{Costs: core.PaperCosts(), Mx: res.Mx, Px: res.Px}
		res.BreakevenRate6GB = cmp.BreakevenRate(6.1e9)
	}
	return res, nil
}

// String renders the D3 result.
func (r *MxPxResult) String() string {
	return fmt.Sprintf(`D3: MassTree vs Bw-tree (read-only, %d keys)
  Bw-tree footprint   %d B, cost/op %.1f
  MassTree footprint  %d B, cost/op %.1f
  M_x = %.2f (paper ≈ 2.1)    P_x = %.2f (paper ≈ 2.6)
  Equation 7 breakeven at 6.1 GB: %.3g ops/s (paper ≈ 0.73e6)
`, r.Keys, r.BwFootprint, r.BwCostPerOp, r.MassFootprint, r.MassCostPerOp,
		r.Mx, r.Px, r.BreakevenRate6GB)
}
