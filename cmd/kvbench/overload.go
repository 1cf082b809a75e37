// Overload mode: a three-phase flash-crowd driven through the adaptive
// engine (internal/overload), persisting BENCH_overload.json. The phases
// are baseline -> storm -> recovery: the storm multiplies the client
// worker count well past the store's capacity and shifts the hot set,
// the recovery phase returns to the baseline shape. The persisted result
// records per-phase throughput, latency, and the limiter's shed-by-class
// breakdown, plus the re-convergence ratio (recovery throughput over
// baseline throughput) — the number the adaptive limiter exists to keep
// near 1.0 and a static limit lets collapse.
//
//	kvbench -overload
//	kvbench -overload -store lsm -ops 120000
//	kvbench -overload -overload-static      # fixed limit, for comparison
package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"costperf/internal/core"
	"costperf/internal/engine"
	"costperf/internal/obs"
	"costperf/internal/overload"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// overloadModeConfig drives -overload.
type overloadModeConfig struct {
	store     string
	keys      uint64
	ops       int
	valueSize int
	pool      int
	seed      int64
	limit     int // engine MaxConcurrent (adaptive: the starting limit)
	queue     int
	static    bool          // run the fixed-limit engine instead of the adaptive one
	service   time.Duration // paced-store per-op service time (0 = raw store)
	benchOut  string
}

// overloadStormFactor multiplies the baseline worker count during the
// storm phase: the flash crowd is more clients, not just hotter keys.
// It is sized so the storm's offered concurrency clears the adaptive
// limit's upper clamp (4x the starting limit) plus the full wait queue —
// otherwise a fast store absorbs the "storm" without ever shedding.
const overloadStormFactor = 24

// overloadServiceCap is the paced store's internal parallelism: how many
// operations it can service at once before they queue inside it and the
// in-store latency the limiter measures starts inflating.
const overloadServiceCap = 4

// pacedStore overlays a wall-clock service-time model on a store: each
// op occupies one of overloadServiceCap slots for service duration, ops
// beyond that queue inside the store. The repo's ssd sim charges
// deterministic *cost units*, not wall time, so an in-process bench on a
// small machine can never make a raw store's latency inflate under
// offered load — but latency inflation is the only signal an adaptive
// limiter has. The paced store gives the storm something real to melt:
// in-store latency grows with concurrency past the cap, the gradient
// backs the limit down to the store's actual capacity, and the brownout
// ladder sheds the overflow by class.
type pacedStore struct {
	engine.Store
	slots   chan struct{}
	service time.Duration
}

func newPacedStore(inner engine.Store, service time.Duration) *pacedStore {
	return &pacedStore{Store: inner, slots: make(chan struct{}, overloadServiceCap), service: service}
}

func (p *pacedStore) pace() {
	p.slots <- struct{}{}
	time.Sleep(p.service)
	<-p.slots
}

func (p *pacedStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	p.pace()
	return p.Store.Get(ctx, key)
}

func (p *pacedStore) Put(ctx context.Context, key, val []byte) error {
	p.pace()
	return p.Store.Put(ctx, key, val)
}

func (p *pacedStore) Delete(ctx context.Context, key []byte) error {
	p.pace()
	return p.Store.Delete(ctx, key)
}

func (p *pacedStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	p.pace()
	return p.Store.Scan(ctx, start, limit, fn)
}

// overloadScenario is the three-phase flash crowd. It lives here, not in
// workload's built-in matrix, so BENCH_matrix.json rows (which benchdiff
// gates) are untouched by overload-mode evolution. Classed tenants ride
// every phase so the shed breakdown can show the brownout ladder working:
// reports (scans) shed first, batch (low) next, the crowd (normal) after,
// and oltp (high) essentially never.
func overloadScenario() workload.Scenario {
	zipf := workload.DistSpec{Kind: "zipfian", Theta: 0.99}
	uni := workload.DistSpec{Kind: "uniform"}
	crowd := workload.DistSpec{Kind: "hotcold", HotFrac: 0.05, HotProb: 0.95, RotateFrac: 0.33}
	scanMix := workload.Mix{Read: 0.4, Scan: 0.6}
	steady := []workload.Tenant{
		{Name: "oltp", Weight: 0.65, Mix: workload.ReadMostly, Dist: zipf, Class: "high"},
		{Name: "batch", Weight: 0.2, Mix: workload.BlindWriteHeavy, Dist: uni, Class: "low"},
		{Name: "reports", Weight: 0.15, Mix: scanMix, Dist: uni, Class: "scan"},
	}
	return workload.Scenario{
		Name: "overload-flash-crowd",
		Desc: "baseline -> flash-crowd storm (8x workers, rotated hot set) -> recovery, classed tenants throughout",
		Phases: []workload.Phase{
			{Name: "baseline", Frac: 0.3, Tenants: steady},
			{Name: "storm", Frac: 0.4, Tenants: []workload.Tenant{
				{Name: "crowd", Weight: 0.7, Mix: workload.ReadMostly, Dist: crowd, Class: "normal"},
				{Name: "oltp", Weight: 0.15, Mix: workload.ReadMostly, Dist: zipf, Class: "high"},
				{Name: "batch", Weight: 0.1, Mix: workload.BlindWriteHeavy, Dist: uni, Class: "low"},
				{Name: "reports", Weight: 0.05, Mix: scanMix, Dist: uni, Class: "scan"},
			}},
			{Name: "recovery", Frac: 0.3, Tenants: steady},
		},
	}
}

// taggedOp is one op plus its tenant's admission class.
type taggedOp struct {
	op     workload.Op
	class  overload.Class
	tagged bool // false: untagged, engine per-op default applies
}

// overloadPhaseResult is one phase's persisted measurement.
type overloadPhaseResult struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	Ops     int    `json:"ops"`

	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`

	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	P99Micros float64 `json:"p99_us"`

	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Timeouts  int64 `json:"timeouts"`
	Errors    int64 `json:"errors"`

	// Per-class shed deltas over this phase (the brownout ladder) and
	// the live concurrency limit where the phase left it.
	ShedScan   int64 `json:"shed_scan"`
	ShedLow    int64 `json:"shed_low"`
	ShedNormal int64 `json:"shed_normal"`
	ShedHigh   int64 `json:"shed_high"`
	LimitEnd   int64 `json:"limit_end"`
}

// overloadBenchResults is the persisted results block of BENCH_overload.json.
type overloadBenchResults struct {
	ScenarioDef workload.Scenario     `json:"scenario_def"`
	Adaptive    bool                  `json:"adaptive"`
	Phases      []overloadPhaseResult `json:"phases"`

	// Reconvergence is recovery throughput over baseline throughput:
	// ~1.0 means the limiter un-learned the storm; well under 1.0 is the
	// metastable failure signature.
	Reconvergence float64 `json:"reconvergence"`
	LimitChanges  int64   `json:"limit_changes"`

	// Cost is the store tracer's priced snapshot; Admission the engine
	// tracer's, which carries the folded limiter fields.
	Cost      obs.SnapshotExport `json:"cost"`
	Admission obs.SnapshotExport `json:"admission"`
}

// runOverloadMode builds the store behind an adaptive (or, with
// -overload-static, fixed-limit) engine and drives the flash crowd.
func runOverloadMode(cfg overloadModeConfig) {
	sc := overloadScenario()
	phases, err := overloadPhaseOps(sc, workload.ScenarioConfig{
		Keys: cfg.keys, ValueSize: cfg.valueSize, Ops: cfg.ops, Seed: cfg.seed,
	})
	check(err)

	mode := "adaptive"
	if cfg.static {
		mode = "static"
	}
	fmt.Printf("overload: %s, store %s, %s limiter (start %d), service %v x%d, %d keys / %d ops, seed %d\n",
		sc.Name, cfg.store, mode, cfg.limit, cfg.service, overloadServiceCap, cfg.keys, cfg.ops, cfg.seed)

	dev := ssd.New(ssd.SamsungSSD)
	reg := obs.NewRegistry()
	tr := reg.Tracer(cfg.store)
	dev.SetObserver(tr)
	es := buildEngineStore(cfg.store, cfg.pool, dev, reg, tr)

	bg := context.Background()
	for i := uint64(0); i < cfg.keys; i++ {
		check(es.Put(bg, workload.Key(i), workload.ValueFor(i, cfg.valueSize)))
	}
	dev.Stats().Reset()
	reg.ResetAll() // measure the run, not the load

	// The load above goes through the raw store; only the measured run
	// pays the service-time model.
	drive := es
	if cfg.service > 0 {
		drive = newPacedStore(es, cfg.service)
	}

	engTr := regTracer(reg, "engine")
	eng, err := engine.New(engine.Config{
		Store:         drive,
		MaxConcurrent: cfg.limit,
		MaxQueue:      cfg.queue,
		Adaptive:      !cfg.static,
		Obs:           engTr,
	})
	check(err)

	results := overloadBenchResults{ScenarioDef: sc, Adaptive: !cfg.static}
	lim := eng.Limiter().Stats()
	for i, ph := range phases {
		workers := cfg.limit / 2
		if workers < 1 {
			workers = 1
		}
		if sc.Phases[i].Name == "storm" {
			workers *= overloadStormFactor
		}
		shed0 := [4]int64{lim.Shed.Scan.Value(), lim.Shed.Low.Value(), lim.Shed.Normal.Value(), lim.Shed.High.Value()}
		rs := driveClassed(eng, ph, workers)
		lat := rs.latency.Snapshot()
		pr := overloadPhaseResult{
			Name: sc.Phases[i].Name, Workers: workers, Ops: len(ph),
			ElapsedMS: float64(rs.elapsed.Microseconds()) / 1000,
			OpsPerSec: float64(len(ph)) / rs.elapsed.Seconds(),
			P50Micros: lat.P50, P95Micros: lat.P95, P99Micros: lat.P99,
			Completed: rs.completed.Value(), Shed: rs.shed.Value(),
			Timeouts: rs.timeouts.Value(), Errors: rs.fails.Value(),
			ShedScan:   lim.Shed.Scan.Value() - shed0[0],
			ShedLow:    lim.Shed.Low.Value() - shed0[1],
			ShedNormal: lim.Shed.Normal.Value() - shed0[2],
			ShedHigh:   lim.Shed.High.Value() - shed0[3],
			LimitEnd:   lim.Limit.Value(),
		}
		results.Phases = append(results.Phases, pr)
		fmt.Printf("  %-9s w=%-3d %9.0f ops/s  p99=%7.0fus  shed=%-5d [s/l/n/h]=%d/%d/%d/%d  limit=%d\n",
			pr.Name, pr.Workers, pr.OpsPerSec, pr.P99Micros, pr.Shed,
			pr.ShedScan, pr.ShedLow, pr.ShedNormal, pr.ShedHigh, pr.LimitEnd)
	}
	storeSnap := tr.Snapshot()
	engSnap := engTr.Snapshot()
	check(eng.Close())

	base, recov := results.Phases[0], results.Phases[len(results.Phases)-1]
	if base.OpsPerSec > 0 {
		results.Reconvergence = recov.OpsPerSec / base.OpsPerSec
	}
	results.LimitChanges = lim.LimitUps.Value() + lim.LimitDowns.Value()
	results.Cost = storeSnap.Export(core.PaperCosts())
	results.Admission = engSnap.Export(core.PaperCosts())

	fmt.Printf("reconvergence: %.2f (recovery %0.f ops/s / baseline %0.f ops/s), limit adjustments: %d\n",
		results.Reconvergence, recov.OpsPerSec, base.OpsPerSec, results.LimitChanges)

	writeBenchSnapshot(benchOutPath(cfg.benchOut, "overload"), "overload", cfg.store, map[string]any{
		"scenario": sc.Name, "adaptive": !cfg.static, "limit": cfg.limit,
		"queue": cfg.queue, "storm_factor": overloadStormFactor,
		"service_us": cfg.service.Microseconds(), "service_cap": overloadServiceCap,
		"keys": cfg.keys, "ops": cfg.ops, "value_size": cfg.valueSize,
		"pool": cfg.pool, "seed": cfg.seed,
	}, results)
}

// overloadPhaseOps materialises the scenario's tagged op stream split per
// phase, using the generator's own allotment math (frac share, rounding
// remainder to the tail) so the split matches the stream exactly.
func overloadPhaseOps(sc workload.Scenario, cfg workload.ScenarioConfig) ([][]taggedOp, error) {
	gen, err := workload.NewScenarioGen(sc, cfg)
	if err != nil {
		return nil, err
	}
	var totalFrac float64
	for _, p := range sc.Phases {
		totalFrac += p.Frac
	}
	out := make([][]taggedOp, len(sc.Phases))
	allotted := 0
	for i, p := range sc.Phases {
		n := int(float64(cfg.Ops) * p.Frac / totalFrac)
		if i == len(sc.Phases)-1 {
			n = cfg.Ops - allotted
		}
		allotted += n
		out[i] = make([]taggedOp, 0, n)
		for j := 0; j < n; j++ {
			op, class, ok := gen.NextTagged()
			if !ok {
				return nil, fmt.Errorf("kvbench: scenario stream ended early (phase %s op %d)", p.Name, j)
			}
			to := taggedOp{op: op}
			if class != "" {
				if c, ok := overload.ParseClass(class); ok {
					to.class, to.tagged = c, true
				}
			}
			out[i] = append(out[i], to)
		}
	}
	return out, nil
}

// driveClassed is driveEngine with two overload-specific changes: tagged
// ops carry their tenant's class in the context (untagged ops take the
// engine's per-op default), and the op stream is pre-split round-robin
// across workers instead of fed through a shared channel. The shared
// channel serializes dispatch — one handoff per op — which caps offered
// concurrency far below the worker count for fast stores; pre-split
// slices let every storm worker hammer admission simultaneously, which
// is the whole point of the storm.
func driveClassed(eng *engine.Engine, ops []taggedOp, workers int) *engineRunStats {
	rs := &engineRunStats{}
	bg := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += workers {
				to := ops[i]
				ctx := bg
				if to.tagged {
					ctx = overload.WithClass(bg, to.class)
				}
				t0 := time.Now()
				var err error
				switch to.op.Kind {
				case workload.OpRead:
					_, _, err = eng.Get(ctx, to.op.Key)
				case workload.OpUpdate, workload.OpInsert, workload.OpBlindWrite:
					err = eng.Put(ctx, to.op.Key, to.op.Value)
				case workload.OpScan:
					err = eng.Scan(ctx, to.op.Key, to.op.ScanLen, func(_, _ []byte) bool { return true })
				case workload.OpDelete:
					err = eng.Delete(ctx, to.op.Key)
				}
				rs.latency.Observe(time.Since(t0).Microseconds())
				switch {
				case err == nil:
					rs.completed.Inc()
				case errors.Is(err, engine.ErrOverload):
					rs.shed.Inc()
				case errors.Is(err, context.DeadlineExceeded):
					rs.timeouts.Inc()
				default:
					rs.fails.Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	rs.elapsed = time.Since(start)
	return rs
}
