// Command kvbench drives a configurable workload against any of the
// reproduction's stores and reports throughput (in deterministic cost
// units), miss ratios, measured R, and I/O counts — an ad-hoc version of
// the experiments the paper's analysis is built on.
//
// Usage:
//
//	kvbench -store bwtree -keys 100000 -ops 200000 -mix readmostly -dist zipfian
//	kvbench -store masstree -mix readonly
//	kvbench -store lsm -mix updateheavy -dist hotcold
//	kvbench -store btree -pool 256
//
// With -concurrency N the same workload is driven through the engine
// front-end (internal/engine) by N goroutines: ops take real wall-clock
// latency measurements and the report switches to p50/p95/p99 latency plus
// admission-control counters (shed, timeouts, queue depth). -deadline sets
// the per-op deadline applied by the engine:
//
//	kvbench -store lsm -concurrency 8 -deadline 50ms -faults seed=42,write=0.01
//
// With -standby the workload instead runs through a replicated pair
// (internal/repl): a transaction component whose recovery log is shipped
// to a warm standby, semi-synchronous writes, optional lossy ship link,
// mid-run failover, and post-run point-in-time recovery:
//
//	kvbench -standby -keys 20000 -ops 50000 -net-loss 0.05
//	kvbench -standby -failover -ops 50000            # promote at midpoint
//	kvbench -standby -pitr-lsn 0 -obs                # PITR to the midpoint checkpoint
//
// With -shards N the keyspace is hash-partitioned across N independent
// engine+TC fault domains (internal/shard) and the report includes the
// fleet-level $/op roll-up from per-shard cost snapshots. -migrate
// live-migrates one shard to a new owner at the run's midpoint while the
// load continues:
//
//	kvbench -shards 4 -keys 50000 -ops 100000
//	kvbench -shards 4 -migrate                       # cutover under load
//	kvbench -shards 4 -resize                        # split at 1/3, merge back at 2/3
//	kvbench -shards 4 -rebalance                     # $/op-driven split/merge decisions
//
// With -matrix the named scenario matrix (internal/workload.Scenarios)
// runs scenario x store x concurrency cells through the engine front-end
// and persists one BENCH_matrix.json: throughput, latency percentiles,
// shed/error counts, and the live $/op + five-minute-rule breakeven per
// cell. cmd/benchdiff compares two snapshots and enforces regression
// thresholds — the repo's standing performance record:
//
//	kvbench -matrix all
//	kvbench -matrix hot-zipf,scan-heavy -matrix-stores masstree,lsm,btree -matrix-conc 4,16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"costperf/internal/btree"
	"costperf/internal/bwtree"
	"costperf/internal/core"
	"costperf/internal/deuteronomy"
	"costperf/internal/engine"
	"costperf/internal/fault"
	"costperf/internal/lsm"
	"costperf/internal/masstree"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// store is the uniform adapter kvbench drives.
type store interface {
	get(key []byte) error
	put(key, val []byte) error
	del(key []byte) error
	blind(key, val []byte) error
	scan(start []byte, limit int) error
}

func main() {
	storeName := flag.String("store", "bwtree", "bwtree | masstree | lsm | btree")
	keys := flag.Uint64("keys", 100000, "initial keyspace size")
	ops := flag.Int("ops", 200000, "operations to run")
	mixName := flag.String("mix", "readmostly", "readonly | readmostly | updateheavy | blindheavy | scanmix")
	distName := flag.String("dist", "zipfian", "uniform | zipfian | hotcold | sequential")
	valueSize := flag.Int("value", 100, "value size in bytes")
	pool := flag.Int("pool", 1024, "btree buffer-pool pages")
	evictEvery := flag.Int("evict", 0, "evict all bwtree pages every N ops (0 = never)")
	seed := flag.Int64("seed", 1, "workload seed")
	recordTo := flag.String("record", "", "record the generated operations to this trace file")
	replayFrom := flag.String("replay", "", "replay operations from this trace file instead of generating")
	faultSpec := flag.String("faults", "",
		"deterministic fault-injection spec applied after loading, e.g. seed=42,read=0.001,write=0.001,latency=0.01:0.002 (see internal/fault.ParseSpec)")
	concurrency := flag.Int("concurrency", 0,
		"drive the workload through the engine front-end with N worker goroutines (0 = direct single-threaded mode)")
	deadline := flag.Duration("deadline", 0,
		"per-op deadline applied by the engine (implies -concurrency 1 when unset)")
	queue := flag.Int("queue", 0, "engine admission queue bound (default 2*concurrency)")
	obsDump := flag.Bool("obs", false,
		"trace every operation and print a per-store cost table (measured F, R, ROPS, IOPS, live $/op and five-minute-rule breakeven)")
	mirror := flag.Bool("mirror", false,
		"run the store on a self-healing mirrored device pair (ssd.Mirror): verified reads, read-repair, quarantine; doubles the SS rent in -obs costs")
	scrubRate := flag.Float64("scrub-rate", 256,
		"background scrubber budget in pages/sec with -mirror (each page costs one read per leg; 0 disables the scrubber)")
	standby := flag.Bool("standby", false,
		"run the workload through a replicated pair (internal/repl): a transaction component whose log is shipped to a warm standby; writes are semi-synchronous")
	failover := flag.Bool("failover", false,
		"with -standby, promote the standby at the run's midpoint (epoch-fences the old primary, run continues on the promoted side)")
	pitrLSN := flag.Int64("pitr-lsn", -1,
		"with -standby, replay the shipped log to this LSN after the run and report the reconstructed state (0 = the midpoint checkpoint, -1 = off)")
	serveAddr := flag.String("serve", "",
		"serve the store over the wire protocol on this address (e.g. 127.0.0.1:7070)")
	connectAddr := flag.String("connect", "",
		"drive the workload against a wire server at this address; \"self\" starts one in-process")
	conns := flag.Int("conns", 4, "wire mode: client connections")
	pipelineDepth := flag.Int("pipeline", 16, "wire mode: per-connection in-flight depth")
	shards := flag.Int("shards", 0,
		"partition the keyspace across N independent shard fault domains (internal/shard) and report the fleet $/op roll-up (0 = off)")
	migrateShard := flag.Bool("migrate", false,
		"with -shards, live-migrate one shard to a new owner at the run's midpoint while the load continues")
	resizeShards := flag.Bool("resize", false,
		"with -shards, split the hottest shard at 1/3 of the run and merge the children back at 2/3, all under load")
	rebalanceShards := flag.Bool("rebalance", false,
		"with -shards, run the $/op-share rebalancer: step at 1/3 and 2/3 and let it split/merge on its own signal")
	benchOut := flag.String("bench-out", "auto",
		"write the JSON benchmark snapshot here (\"auto\" = BENCH_<mode>.json, empty = skip)")
	netLoss := flag.Float64("net-loss", 0,
		"with -standby, drop/duplicate/reorder each shipped frame with this probability (seeded by -seed)")
	matrixList := flag.String("matrix", "",
		"run the named scenario matrix through the engine front-end and write BENCH_matrix.json: comma-separated scenario names, or \"all\" for the full built-in set (see internal/workload.Scenarios)")
	matrixStores := flag.String("matrix-stores", "masstree,lsm",
		"matrix mode: comma-separated stores forming the matrix columns")
	matrixConc := flag.String("matrix-conc", "8",
		"matrix mode: comma-separated worker counts; each adds a grid dimension")
	overloadRun := flag.Bool("overload", false,
		"run the three-phase flash-crowd (baseline -> storm -> recovery) through the adaptive engine and write BENCH_overload.json")
	overloadStatic := flag.Bool("overload-static", false,
		"overload mode: use the fixed-limit engine instead of the adaptive limiter (the comparison the adaptive one exists to win)")
	overloadService := flag.Duration("overload-service", 150*time.Microsecond,
		"overload mode: paced-store per-op service time; the store services 4 ops at once and queues the rest, so in-store latency inflates under pressure (0 = raw store)")
	flag.Parse()

	if *matrixList != "" {
		// Matrix cells are many small runs: unless the user sized the run
		// explicitly, use per-cell defaults far below the single-run ones.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		mk, mo := *keys, *ops
		if !explicit["keys"] {
			mk = 20000
		}
		if !explicit["ops"] {
			mo = 30000
		}
		runMatrixMode(matrixModeConfig{
			scenarios: *matrixList, stores: *matrixStores, concs: *matrixConc,
			keys: mk, ops: mo, valueSize: *valueSize, pool: *pool, seed: *seed,
			benchOut: *benchOut,
		})
		return
	}

	if *overloadRun {
		// Like matrix cells, the overload run defaults to a small sizing
		// unless the user asked for more.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		ok, oo, olim := *keys, *ops, *concurrency
		if !explicit["keys"] {
			ok = 20000
		}
		if !explicit["ops"] {
			oo = 60000
		}
		if olim <= 0 {
			olim = 16
		}
		runOverloadMode(overloadModeConfig{
			store: *storeName, keys: ok, ops: oo, valueSize: *valueSize,
			pool: *pool, seed: *seed, limit: olim, queue: *queue,
			static: *overloadStatic, service: *overloadService, benchOut: *benchOut,
		})
		return
	}

	if *serveAddr != "" || *connectAddr != "" {
		wcfg := wireModeConfig{
			store: *storeName, keys: *keys, ops: *ops, mix: *mixName, dist: *distName,
			valueSize: *valueSize, pool: *pool, seed: *seed,
			conns: *conns, pipeline: *pipelineDepth, benchOut: *benchOut,
			concurrency: *concurrency, queue: *queue, deadline: *deadline,
		}
		if *serveAddr != "" {
			wcfg.addr = *serveAddr
			runWireServe(wcfg)
		} else {
			wcfg.addr = *connectAddr
			runWireLoad(wcfg)
		}
		return
	}

	if *shards > 0 {
		runShardMode(shardModeConfig{
			shards: *shards, migrate: *migrateShard,
			resize: *resizeShards, rebalance: *rebalanceShards,
			keys: *keys, ops: *ops, valueSize: *valueSize,
			mix: *mixName, dist: *distName, seed: *seed,
			concurrency: *concurrency, benchOut: *benchOut,
		})
		return
	}

	if *standby {
		runStandbyMode(standbyModeConfig{
			keys: *keys, ops: *ops, valueSize: *valueSize,
			mix: *mixName, dist: *distName, seed: *seed,
			failover: *failover, pitrLSN: *pitrLSN, netLoss: *netLoss,
			obs: *obsDump,
		})
		return
	}

	if *deadline > 0 && *concurrency <= 0 {
		*concurrency = 1
	}
	if *concurrency > 0 {
		runEngineMode(engineModeConfig{
			store: *storeName, keys: *keys, ops: *ops, mix: *mixName, dist: *distName,
			valueSize: *valueSize, pool: *pool, seed: *seed,
			recordTo: *recordTo, replayFrom: *replayFrom, faultSpec: *faultSpec,
			concurrency: *concurrency, deadline: *deadline, queue: *queue,
			obs: *obsDump, mirror: *mirror, scrubRate: *scrubRate,
		})
		return
	}

	sess := sim.NewSession(sim.DefaultCosts())
	dev, mir := newDevice(*mirror)

	// With -obs every store operation is traced; the store's tracer also
	// observes the device, so physical I/O is attributed to it directly.
	var reg *obs.Registry
	var tr *obs.Tracer
	if *obsDump {
		reg = obs.NewRegistry()
		tr = reg.Tracer(*storeName)
		dev.SetObserver(tr)
		if mir != nil {
			tr.FoldMirror(mir.MirrorStats())
		}
	}

	var s store
	var bw *bwtree.Tree
	// faultReport prints the store's retry/health counters after a -faults run.
	var faultReport func()
	switch *storeName {
	case "bwtree":
		stack, err := deuteronomy.Open(deuteronomy.Config{Device: dev, Session: sess, Obs: tr, LogObs: regTracer(reg, "log")})
		check(err)
		tree, st := stack.Tree, stack.Log
		tr.FoldRetries(&tree.Stats().Retry)
		tr.FoldHealth(&tree.Stats().Health)
		bw = tree
		s = bwAdapter{tree}
		faultReport = func() {
			fmt.Printf("  bwtree retry: %s, health: %s\n", tree.Stats().Retry.String(), tree.Stats().Health.String())
			fmt.Printf("  logstore retry: %s, health: %s\n", st.Stats().Retry.String(), st.Stats().Health.String())
		}
	case "masstree":
		mt := masstree.New(sess)
		mt.SetObs(tr)
		s = mtAdapter{mt}
	case "lsm":
		tree, err := lsm.New(lsm.Config{Device: dev, Session: sess, Obs: tr})
		check(err)
		tr.FoldRetries(&tree.Stats().Retry)
		tr.FoldHealth(&tree.Stats().Health)
		s = lsmAdapter{tree}
		faultReport = func() {
			fmt.Printf("  lsm retry: %s, health: %s\n", tree.Stats().Retry.String(), tree.Stats().Health.String())
		}
	case "btree":
		tree, err := btree.New(btree.Config{Device: dev, PoolPages: *pool, Session: sess, Obs: tr})
		check(err)
		s = btAdapter{tree}
	default:
		fmt.Fprintf(os.Stderr, "kvbench: unknown store %q\n", *storeName)
		os.Exit(2)
	}

	chooser := pickChooser(*distName, *seed)
	mix := pickMix(*mixName)

	// Load.
	fmt.Printf("loading %d keys into %s...\n", *keys, *storeName)
	for i := uint64(0); i < *keys; i++ {
		check(s.put(workload.Key(i), workload.ValueFor(i, *valueSize)))
	}
	sess.Tracker().Reset()
	dev.Stats().Reset()
	if reg != nil {
		reg.ResetAll() // measure the run, not the load
	}

	// Install fault injection only for the measured phase: the load above
	// runs clean so every run starts from the same store state.
	if *faultSpec != "" {
		inj, err := fault.ParseSpec(*faultSpec)
		check(err)
		dev.SetFaultInjector(inj)
		fmt.Printf("injecting faults: %s\n", *faultSpec)
	}
	if mir != nil && *scrubRate > 0 {
		mir.StartScrub(*scrubRate)
		defer mir.StopScrub()
		fmt.Printf("scrubbing at %.0f pages/sec (%.0f IOPS budget)\n", *scrubRate, 2**scrubRate)
	}

	apply := func(i int, op workload.Op) {
		switch op.Kind {
		case workload.OpRead:
			check(s.get(op.Key))
		case workload.OpUpdate, workload.OpInsert:
			check(s.put(op.Key, op.Value))
		case workload.OpBlindWrite:
			check(s.blind(op.Key, op.Value))
		case workload.OpScan:
			check(s.scan(op.Key, op.ScanLen))
		case workload.OpDelete:
			check(s.del(op.Key))
		}
		if bw != nil && *evictEvery > 0 && i%*evictEvery == *evictEvery-1 {
			for _, pid := range bw.Pages() {
				check(bw.EvictPage(pid, true))
			}
		}
	}

	if *replayFrom != "" {
		f, err := os.Open(*replayFrom)
		check(err)
		defer f.Close()
		fmt.Printf("replaying trace %s...\n", *replayFrom)
		i := 0
		n, err := workload.Replay(f, func(op workload.Op) error {
			apply(i, op)
			i++
			return nil
		})
		check(err)
		fmt.Printf("replayed %d ops\n", n)
	} else {
		gen, err := workload.NewGenerator(workload.GeneratorConfig{
			Keys: *keys, ValueSize: *valueSize, Mix: mix, Chooser: chooser, Seed: *seed,
		})
		check(err)
		var tw *workload.TraceWriter
		if *recordTo != "" {
			f, err := os.Create(*recordTo)
			check(err)
			defer f.Close()
			tw, err = workload.NewTraceWriter(f)
			check(err)
		}
		fmt.Printf("running %d ops (%s / %s)...\n", *ops, *mixName, *distName)
		for i := 0; i < *ops; i++ {
			op := gen.Next()
			if tw != nil {
				check(tw.Append(op))
			}
			apply(i, op)
		}
		if tw != nil {
			check(tw.Flush())
			fmt.Printf("recorded %d ops to %s\n", tw.Count(), *recordTo)
		}
	}

	tk := sess.Tracker()
	fmt.Println("\nresults (deterministic cost units):")
	fmt.Printf("  %s\n", tk.String())
	fmt.Printf("  throughput: %.6f ops/cost-unit (P0 analogue: %.6f)\n", tk.Throughput(), tk.MMThroughput())
	if tk.R() > 0 {
		fmt.Printf("  measured R = %.2f (paper: 5.8 user-level, ~9 kernel)\n", tk.R())
	}
	fmt.Printf("  device: %s\n", dev.Stats().String())
	if mir != nil {
		fmt.Printf("  mirror: %s\n", mir.MirrorStats().String())
	}
	if *faultSpec != "" && faultReport != nil {
		fmt.Println("fault absorption:")
		faultReport()
	}
	printObsTable(reg)
}

// newDevice builds the benchmark device: a bare SamsungSSD, or (with
// -mirror) a self-healing mirrored pair whose non-nil *ssd.Mirror is also
// returned for scrubber control and stats.
func newDevice(mirrored bool) (ssd.Dev, *ssd.Mirror) {
	if mirrored {
		m := ssd.NewMirror(ssd.SamsungSSD)
		return m, m
	}
	return ssd.New(ssd.SamsungSSD), nil
}

// printObsTable renders the registry's per-store cost table against the
// paper's rental rates: measured F, R, ROPS, IOPS feed the core model for a
// live $/op and five-minute-rule breakeven (Eq. 7) per store.
func printObsTable(reg *obs.Registry) {
	if reg == nil {
		return
	}
	base := core.PaperCosts()
	fmt.Println("\nobservability (measured model inputs, live costs vs paper rates):")
	fmt.Print(reg.Table(base))
}

// regTracer returns reg's tracer under name, or nil (tracing off) when no
// registry was created.
func regTracer(reg *obs.Registry, name string) *obs.Tracer {
	if reg == nil {
		return nil
	}
	return reg.Tracer(name)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
}

func pickChooser(dist string, seed int64) workload.KeyChooser {
	switch dist {
	case "uniform":
		return workload.NewUniform(seed)
	case "zipfian":
		return workload.NewZipfian(seed, 0.99)
	case "hotcold":
		return workload.NewHotCold(seed, 0.1, 0.9)
	case "sequential":
		return workload.NewSequential()
	default:
		fmt.Fprintf(os.Stderr, "kvbench: unknown distribution %q\n", dist)
		os.Exit(2)
		return nil
	}
}

func pickMix(name string) workload.Mix {
	mixes := map[string]workload.Mix{
		"readonly":    workload.ReadOnly,
		"readmostly":  workload.ReadMostly,
		"updateheavy": workload.UpdateHeavy,
		"blindheavy":  workload.BlindWriteHeavy,
		"scanmix":     workload.ScanMix,
	}
	mix, ok := mixes[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "kvbench: unknown mix %q\n", name)
		os.Exit(2)
	}
	return mix
}

// --- engine mode: concurrent workers through the front-end ---

type engineModeConfig struct {
	store, mix, dist     string
	keys                 uint64
	ops, valueSize, pool int
	seed                 int64
	recordTo, replayFrom string
	faultSpec            string
	concurrency, queue   int
	deadline             time.Duration
	obs                  bool
	mirror               bool
	scrubRate            float64
}

// runEngineMode drives the workload through internal/engine with N worker
// goroutines. Unlike direct mode, latencies here are real wall-clock
// measurements (the stores still meter deterministic costs internally), and
// the report adds the front-end's admission-control and breaker counters.
// The stores run without a sim session: concurrent workers would race on a
// shared charger, and the interesting numbers in this mode are latency
// percentiles and shed/timeout counts, not cost units.
func runEngineMode(cfg engineModeConfig) {
	dev, mir := newDevice(cfg.mirror)
	var reg *obs.Registry
	var tr *obs.Tracer
	if cfg.obs {
		reg = obs.NewRegistry()
		tr = reg.Tracer(cfg.store)
		dev.SetObserver(tr)
		if mir != nil {
			tr.FoldMirror(mir.MirrorStats())
		}
	}
	es := buildEngineStore(cfg.store, cfg.pool, dev, reg, tr)

	// Load sequentially and clean, as in direct mode.
	fmt.Printf("loading %d keys into %s...\n", cfg.keys, cfg.store)
	bg := context.Background()
	for i := uint64(0); i < cfg.keys; i++ {
		check(es.Put(bg, workload.Key(i), workload.ValueFor(i, cfg.valueSize)))
	}
	dev.Stats().Reset()
	if cfg.faultSpec != "" {
		inj, err := fault.ParseSpec(cfg.faultSpec)
		check(err)
		dev.SetFaultInjector(inj)
		fmt.Printf("injecting faults: %s\n", cfg.faultSpec)
	}

	if reg != nil {
		reg.ResetAll() // measure the run, not the load
	}
	if mir != nil && cfg.scrubRate > 0 {
		mir.StartScrub(cfg.scrubRate)
		defer mir.StopScrub()
		fmt.Printf("scrubbing at %.0f pages/sec (%.0f IOPS budget)\n", cfg.scrubRate, 2*cfg.scrubRate)
	}

	ops := collectOps(cfg)
	eng, err := engine.New(engine.Config{
		Store:          es,
		MaxConcurrent:  cfg.concurrency,
		MaxQueue:       cfg.queue,
		DefaultTimeout: cfg.deadline,
		Obs:            regTracer(reg, "engine"),
	})
	check(err)

	fmt.Printf("running %d ops (%s / %s) with %d workers", len(ops), cfg.mix, cfg.dist, cfg.concurrency)
	if cfg.deadline > 0 {
		fmt.Printf(", deadline %v", cfg.deadline)
	}
	fmt.Println("...")

	rs := driveEngine(eng, ops, cfg.concurrency)

	st := eng.Stats()
	lat := rs.latency.Snapshot()
	fmt.Println("\nresults (engine mode, wall-clock):")
	fmt.Printf("  elapsed: %v  (%.0f ops/sec)\n", rs.elapsed.Round(time.Microsecond),
		float64(len(ops))/rs.elapsed.Seconds())
	fmt.Printf("  completed=%d shed=%d timeouts=%d errors=%d\n",
		rs.completed.Value(), rs.shed.Value(), rs.timeouts.Value(), rs.fails.Value())
	fmt.Printf("  latency (us): p50=%.0f p95=%.0f p99=%.0f max=%.0f\n", lat.P50, lat.P95, lat.P99, lat.Max)
	qw := st.WaitMicros.Snapshot()
	if qw.Count > 0 {
		fmt.Printf("  queue wait (us): n=%d p50=%.0f p95=%.0f p99=%.0f peak depth=%d\n",
			qw.Count, qw.P50, qw.P95, qw.P99, st.QueuePeak.Value())
	}
	fmt.Printf("  engine: %s\n", st.String())
	fmt.Printf("  device: %s\n", dev.Stats().String())
	if mir != nil {
		fmt.Printf("  mirror: %s\n", mir.MirrorStats().String())
	}
	printObsTable(reg)
	check(eng.Close())
}

// buildEngineStore constructs the named store on dev behind the engine
// front-end's Store interface, wiring tr (nil-safe, nil = tracing off)
// into the store and, for bwtree, a "log" tracer into its logstore.
// Engine, wire, and matrix modes all build their backends here.
func buildEngineStore(name string, pool int, dev ssd.Dev, reg *obs.Registry, tr *obs.Tracer) engine.Store {
	switch name {
	case "bwtree":
		// No Session: engine, wire and matrix stores run uncharged.
		stack, err := deuteronomy.Open(deuteronomy.Config{Device: dev, Obs: tr, LogObs: regTracer(reg, "log")})
		check(err)
		tr.FoldRetries(&stack.Stats().Retry)
		tr.FoldHealth(&stack.Stats().Health)
		return engine.WrapBwTree(stack.Tree)
	case "masstree":
		mt := masstree.New(nil)
		mt.SetObs(tr)
		return engine.WrapMassTree(mt)
	case "lsm":
		tree, err := lsm.New(lsm.Config{Device: dev, Obs: tr})
		check(err)
		tr.FoldRetries(&tree.Stats().Retry)
		tr.FoldHealth(&tree.Stats().Health)
		return engine.WrapLSM(tree)
	case "btree":
		tree, err := btree.New(btree.Config{Device: dev, PoolPages: pool, Obs: tr})
		check(err)
		return engine.WrapBTree(tree)
	default:
		fmt.Fprintf(os.Stderr, "kvbench: unknown store %q\n", name)
		os.Exit(2)
		return nil
	}
}

// engineRunStats is a worker-pool run's client-side measurement: per-op
// wall-clock latency and outcome classification.
type engineRunStats struct {
	latency                          metrics.Histogram // microseconds
	completed, shed, timeouts, fails metrics.Counter
	elapsed                          time.Duration
}

// driveEngine pushes ops through eng with the given number of worker
// goroutines, timing every op and classifying its outcome. Engine mode
// and matrix mode share this loop so their numbers are comparable.
func driveEngine(eng *engine.Engine, ops []workload.Op, workers int) *engineRunStats {
	rs := &engineRunStats{}
	bg := context.Background()
	opCh := make(chan workload.Op)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range opCh {
				t0 := time.Now()
				var err error
				switch op.Kind {
				case workload.OpRead:
					_, _, err = eng.Get(bg, op.Key)
				case workload.OpUpdate, workload.OpInsert, workload.OpBlindWrite:
					err = eng.Put(bg, op.Key, op.Value)
				case workload.OpScan:
					err = eng.Scan(bg, op.Key, op.ScanLen, func(_, _ []byte) bool { return true })
				case workload.OpDelete:
					err = eng.Delete(bg, op.Key)
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
		}()
	}
	for _, op := range ops {
		opCh <- op
	}
	close(opCh)
	wg.Wait()
	rs.elapsed = time.Since(start)
	return rs
}

// collectOps materialises the op stream so workers can consume it
// concurrently: either a replayed trace or cfg.ops generated operations
// (recorded to -record when asked, identically to direct mode).
func collectOps(cfg engineModeConfig) []workload.Op {
	if cfg.replayFrom != "" {
		f, err := os.Open(cfg.replayFrom)
		check(err)
		defer f.Close()
		var ops []workload.Op
		_, err = workload.Replay(f, func(op workload.Op) error {
			ops = append(ops, op)
			return nil
		})
		check(err)
		fmt.Printf("replaying trace %s (%d ops)\n", cfg.replayFrom, len(ops))
		return ops
	}
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Keys: cfg.keys, ValueSize: cfg.valueSize,
		Mix: pickMix(cfg.mix), Chooser: pickChooser(cfg.dist, cfg.seed), Seed: cfg.seed,
	})
	check(err)
	var tw *workload.TraceWriter
	if cfg.recordTo != "" {
		f, err := os.Create(cfg.recordTo)
		check(err)
		defer f.Close()
		tw, err = workload.NewTraceWriter(f)
		check(err)
	}
	ops := make([]workload.Op, 0, cfg.ops)
	for i := 0; i < cfg.ops; i++ {
		op := gen.Next()
		if tw != nil {
			check(tw.Append(op))
		}
		ops = append(ops, op)
	}
	if tw != nil {
		check(tw.Flush())
		fmt.Printf("recorded %d ops to %s\n", tw.Count(), cfg.recordTo)
	}
	return ops
}

type bwAdapter struct{ t *bwtree.Tree }

func (a bwAdapter) get(k []byte) error      { _, _, err := a.t.Get(k); return err }
func (a bwAdapter) put(k, v []byte) error   { return a.t.Insert(k, v) }
func (a bwAdapter) del(k []byte) error      { return a.t.Delete(k) }
func (a bwAdapter) blind(k, v []byte) error { return a.t.BlindWrite(k, v) }
func (a bwAdapter) scan(start []byte, limit int) error {
	return a.t.Scan(start, limit, func(_, _ []byte) bool { return true })
}

type mtAdapter struct{ t *masstree.Tree }

func (a mtAdapter) get(k []byte) error      { a.t.Get(k); return nil }
func (a mtAdapter) put(k, v []byte) error   { a.t.Put(k, v); return nil }
func (a mtAdapter) del(k []byte) error      { a.t.Delete(k); return nil }
func (a mtAdapter) blind(k, v []byte) error { a.t.Put(k, v); return nil }
func (a mtAdapter) scan(start []byte, limit int) error {
	a.t.Scan(start, limit, func(_, _ []byte) bool { return true })
	return nil
}

type lsmAdapter struct{ t *lsm.Tree }

func (a lsmAdapter) get(k []byte) error      { _, _, err := a.t.Get(k); return err }
func (a lsmAdapter) put(k, v []byte) error   { return a.t.Put(k, v) }
func (a lsmAdapter) del(k []byte) error      { return a.t.Delete(k) }
func (a lsmAdapter) blind(k, v []byte) error { return a.t.Put(k, v) }
func (a lsmAdapter) scan(start []byte, limit int) error {
	return a.t.Scan(start, limit, func(_, _ []byte) bool { return true })
}

type btAdapter struct{ t *btree.Tree }

func (a btAdapter) get(k []byte) error      { _, _, err := a.t.Get(k); return err }
func (a btAdapter) put(k, v []byte) error   { return a.t.Insert(k, v) }
func (a btAdapter) del(k []byte) error      { return a.t.Delete(k) }
func (a btAdapter) blind(k, v []byte) error { return a.t.Insert(k, v) }
func (a btAdapter) scan(start []byte, limit int) error {
	return a.t.Scan(start, limit, func(_, _ []byte) bool { return true })
}
