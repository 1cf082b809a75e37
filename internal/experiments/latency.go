package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"costperf/internal/core"
	"costperf/internal/metrics"
	"costperf/internal/sim"
	"costperf/internal/workload"
)

// ---------------------------------------------------------------------------
// D9 (Section 8.1): per-operation latency distribution of a mixed
// workload. MM operations complete in CPU time; SS operations add a
// device access — so P50 stays in the sub-microsecond range while the
// tail jumps to device latency once the miss ratio clears the quantile.

// LatencyResult is the D9 experiment output.
type LatencyResult struct {
	MissFraction float64
	MMLatencyUS  float64 // measured mean MM op latency (µs)
	SSLatencyUS  float64 // measured mean SS op latency (µs)
	P50US        float64
	P95US        float64
	P99US        float64
	ModelP50US   float64 // two-point model prediction
	ModelP99US   float64
}

// MeasureLatency runs a hot/cold workload with a cold tail and converts
// each operation's measured execution cost into wall-clock latency:
// cost-units scaled so the mean MM operation takes 1/ROPS seconds, plus
// the device latency for operations that performed I/O.
func MeasureLatency(keys, ops int) (*LatencyResult, error) {
	s, err := newStack(sim.NewSession(sim.DefaultCosts()), nil)
	if err != nil {
		return nil, err
	}
	if err := load(s, uint64(keys), 64); err != nil {
		return nil, err
	}
	// Evict the cold 90%: the hot 10% stays resident.
	costs := core.PaperCosts()
	// Warm the hot set after evicting everything.
	if err := evictAll(s, false); err != nil {
		return nil, err
	}
	for i := 0; i < keys/10; i++ {
		if _, _, err := s.Tree.Get(workload.Key(uint64(i))); err != nil {
			return nil, err
		}
	}

	// Calibrate: measure mean MM cost so cost-units map to 1/ROPS.
	s.Session.Tracker().Reset()
	for i := 0; i < 500; i++ {
		if _, _, err := s.Tree.Get(workload.Key(uint64(i % (keys / 10)))); err != nil {
			return nil, err
		}
	}
	mmUnit := float64(s.Session.Tracker().MeanCost(sim.OpMM))
	if mmUnit <= 0 {
		return nil, fmt.Errorf("experiments: calibration failed")
	}
	unitSeconds := (1 / costs.ROPS) / mmUnit
	devLatency := s.Device.Latency()

	var hist metrics.Histogram
	var mmSum, ssSum float64
	var mmN, ssN int64
	rng := rand.New(rand.NewSource(5))
	tk := s.Session.Tracker()
	tk.Reset()
	prevCost := sim.Cost(0)
	prevSS := int64(0)
	coldCursor := 0
	for i := 0; i < ops; i++ {
		var k []byte
		if rng.Float64() < 0.05 {
			// A cold read: stride through distinct evicted pages.
			k = workload.Key(uint64(keys/10 + (coldCursor*64)%(keys-keys/10)))
			coldCursor++
		} else {
			k = workload.Key(uint64(rng.Intn(keys / 10)))
		}
		if _, _, err := s.Tree.Get(k); err != nil {
			return nil, err
		}
		cost := tk.TotalCost()
		ssOps := tk.Ops(sim.OpSS)
		opCost := float64(cost - prevCost)
		wasSS := ssOps > prevSS
		prevCost, prevSS = cost, ssOps
		lat := opCost * unitSeconds
		if wasSS {
			lat += devLatency
			ssSum += lat
			ssN++
		} else {
			mmSum += lat
			mmN++
		}
		hist.Observe(int64(math.Round(lat * 1e9))) // ns
	}
	f := tk.MissFraction()
	model := core.LatencyModel{Costs: costs, DeviceLatency: devLatency}
	res := &LatencyResult{
		MissFraction: f,
		P50US:        hist.Quantile(0.50) / 1e3,
		P95US:        hist.Quantile(0.95) / 1e3,
		P99US:        hist.Quantile(0.99) / 1e3,
		ModelP50US:   model.TailLatency(f, 0.50) * 1e6,
		ModelP99US:   model.TailLatency(f, 0.99) * 1e6,
	}
	if mmN > 0 {
		res.MMLatencyUS = mmSum / float64(mmN) * 1e6
	}
	if ssN > 0 {
		res.SSLatencyUS = ssSum / float64(ssN) * 1e6
	}
	return res, nil
}

// String renders the D9 result.
func (r *LatencyResult) String() string {
	return fmt.Sprintf(`D9: operation latency distribution (Section 8.1)
  miss fraction %.4f
  measured: MM mean %.2f µs, SS mean %.2f µs
  quantiles: P50 %.2f µs, P95 %.2f µs, P99 %.2f µs
  two-point model: P50 %.2f µs, P99 %.2f µs
  (paper: "latencies in the 10's vs 100's of microseconds" — MM ops stay
   sub-microsecond, the tail pays the device once misses clear the quantile)
`, r.MissFraction, r.MMLatencyUS, r.SSLatencyUS,
		r.P50US, r.P95US, r.P99US, r.ModelP50US, r.ModelP99US)
}

// ---------------------------------------------------------------------------
// Sensitivity report: elasticities of the five-minute rule.

// SensitivityResult wraps the elasticity table for the harness.
type SensitivityResult struct {
	Elasticities map[string]float64
}

// MeasureSensitivity computes d(ln T_i)/d(ln p) for every model parameter.
func MeasureSensitivity() (*SensitivityResult, error) {
	e, err := core.PaperCosts().BreakevenSensitivities()
	if err != nil {
		return nil, err
	}
	return &SensitivityResult{Elasticities: e}, nil
}

// String renders the sensitivity table.
func (r *SensitivityResult) String() string {
	var b strings.Builder
	b.WriteString("Sensitivity: elasticity of the five-minute rule T_i (Equation 6)\n")
	fmt.Fprintf(&b, "%12s %12s   %s\n", "parameter", "d lnTi/d lnp", "meaning")
	notes := map[string]string{
		core.ParamDRAM:      "cheaper DRAM -> cache longer",
		core.ParamFlash:     "absent from Eq. 6",
		core.ParamProcessor: "dearer CPU -> I/O path dearer -> cache longer",
		core.ParamIOPSCost:  "dearer IOPS -> cache longer",
		core.ParamROPS:      "faster CPU -> evict sooner",
		core.ParamIOPS:      "more IOPS -> evict sooner (Section 7.1.2)",
		core.ParamPageSize:  "bigger pages -> evict sooner",
		core.ParamR:         "longer I/O path -> cache longer (Section 7.1.1)",
	}
	for _, p := range core.AllParams() {
		fmt.Fprintf(&b, "%12s %12.3f   %s\n", p, r.Elasticities[p], notes[p])
	}
	return b.String()
}
