package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run gives the per-layer numbers the untraced run cannot: one
// client and fixed op counts, so counts repeat. It has three parts:
//
//	spans  — the workload's own stack with every decorator recording spans,
//	         one op in flight; self time = duration minus children.
//	ladder — the workload's op stream against the five rungs of the served
//	         stack; a layer's self time is its rung's median op time minus
//	         that of the rung below (medians, because a handful of stalls
//	         among 30 K ops moves a mean by more than a thin layer costs).
//	probes — tight loops over one public entry point each.

// tracedResult is what the traced run of one workload produced.
type tracedResult struct {
	Workload  string               `json:"workload"`
	Layers    map[string]float64   `json:"per_layer"`
	Spans     map[string]layerTime `json:"span_self_times,omitempty"`
	Ladder    []rung               `json:"ladder,omitempty"`
	TracePath string               `json:"trace_file,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
}

// oneClient is the workload as the traced run drives it.
func oneClient(w workload, ops int) workload {
	w.workers, w.sampleEvery, w.warmOps = 1, 1, ops/10
	if w.conns > 1 {
		w.conns = 1
	}
	for w.ring < 2*ops+w.warmOps {
		w.ring <<= 1
	}
	return w
}

func traced(cfg runConfig, outDir string) (*tracedResult, error) {
	w := cfg.w
	res := &tracedResult{Workload: w.name, Layers: map[string]float64{}}
	if err := res.spanRun(cfg, outDir); err != nil {
		return nil, fmt.Errorf("span run: %w", err)
	}
	if w.kind == stackServed {
		if err := res.ladder(cfg); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	// Each probe runs beside the workload whose layer it isolates.
	switch w.name {
	case "served-read":
		res.Layers["wire.frame_roundtrip_ns"], res.Layers["wire.frame_allocs_per_op"] = probeFrame(1_000_000)
		res.Layers["shard.route_ns"] = probeRoute(2_000_000)
	case "mm-point":
		res.Layers["overload.acquire_ns"] = probeAcquire(2_000_000)
		if err := res.massProbes(cfg); err != nil {
			return nil, err
		}
	case "lsm-scan":
		us, err := probeBTree(cfg.seed)
		if err != nil {
			return nil, err
		}
		res.Layers["btree.direct_us_per_op"] = us
	}
	return res, nil
}

func (res *tracedResult) collect(wk *worker) {
	for i := range wk.segs {
		for k := range wk.segs[i].ok {
			res.Attempted += wk.segs[i].ok[k] + wk.segs[i].failed[k]
			res.Failed += wk.segs[i].failed[k]
		}
	}
	res.Errors = append(res.Errors, wk.errs...)
}

// spanRun drives spanOps ops untraced and then spanOps ops traced on one
// stack, one op in flight.
func (res *tracedResult) spanRun(cfg runConfig, outDir string) error {
	w := oneClient(cfg.w, cfg.w.spanOps)
	n := cfg.w.spanOps
	tr := newTracer(8 * n)
	cfg.w, cfg.opts.tr = w, tr
	ring := newStream(w.spec).ops(cfg.seed, 0, 1, w.ring)
	st, workers, err := setUp(cfg, [][]op{ring})
	if err != nil {
		return err
	}
	defer st.close()
	wk := workers[0]
	var seg atomic.Int32

	st.resetSim()
	before := st.counts()
	t0 := time.Now()
	wk.loop(n, nil, &seg)
	untracedUs := time.Since(t0).Seconds() * 1e6 / float64(n)

	seg.Store(1)
	wk.scanBytes = &st.data.readBytes
	tr.on.Store(true)
	t0 = time.Now()
	wk.loop(n, nil, &seg)
	tracedUs := time.Since(t0).Seconds() * 1e6 / float64(n)
	tr.on.Store(false)
	grown := st.counts().minus(before)
	res.collect(wk)

	L := res.Layers
	L["trace.overhead_frac"] = tracedUs/untracedUs - 1
	// One client and fixed op counts: these repeat exactly.
	L["ssd.reads_per_op"] = grown["data.reads"] / float64(2*n)
	L["bwtree.sim_r"] = st.gauges().simR

	self := selfTimes(tr.spans)
	res.Spans = self
	perCall := func(names ...string) float64 {
		var ns, calls int64
		for _, name := range names {
			ns += self[name].SelfNs
			calls += self[name].Calls
		}
		return ratio(float64(ns)/1e3, float64(calls))
	}
	L["ssd.self_us_per_io"] = perCall("ssd.data.read", "ssd.data.write", "ssd.log.read", "ssd.log.write")
	if w.kind != stackServed {
		// In process the op span is the engine call and its child is the
		// store below the engine.
		L["engine.read_self_us"] = perCall("op.read")
		L["engine.write_self_us"] = perCall("op.write")
	}
	switch w.kind {
	case stackMass:
		L["masstree.self_us_per_op"] = perCall("store.get", "store.put")
	case stackLSM:
		L["lsm.get_self_us"] = perCall("store.get")
		L["lsm.put_self_us"] = perCall("store.put")
		L["lsm.scan_self_us"] = perCall("store.scan")
		L["lsm.read_bytes_per_scan"] = ratio(float64(wk.scanRead), float64(wk.segs[1].ok[opScan]))
	case stackCacheMiss:
		hit, miss := hitMiss(tr.spans, "store.get", "ssd.data.read")
		L["bwtree.hit_self_us"], L["bwtree.miss_self_us"] = hit, miss
		L["bwtree.wall_r"] = ratio(miss, hit)
	}
	path, err := writeTrace(outDir, w.name, tr.spans)
	res.TracePath = path
	return err
}

// hitMiss splits the spans named parent by whether they have a child named
// io, and returns each group's mean self time in µs.
func hitMiss(spans []span, parent, io string) (hitUs, missUs float64) {
	child := make([]int64, len(spans))
	missed := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
			if s.Name == io {
				missed[s.Parent] = true
			}
		}
	}
	var ns, calls [2]int64
	for i, s := range spans {
		if s.Name != parent {
			continue
		}
		g := 0
		if missed[i] {
			g = 1
		}
		ns[g] += s.End - s.Start - child[i]
		calls[g]++
	}
	return ratio(float64(ns[0])/1e3, float64(calls[0])), ratio(float64(ns[1])/1e3, float64(calls[1]))
}

// rung is one stack of the ladder.
type rung struct {
	Name        string  `json:"name"`
	ReadUs      float64 `json:"read_p50_us"`
	WriteUs     float64 `json:"write_p50_us"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"alloc_bytes_per_op"`
	CPUUsPerOp  float64 `json:"cpu_us_per_op"`
}

var ladderRungs = []struct {
	name string
	kind stackKind
}{
	{"bwtree", stackRungDC},
	{"tc", stackRungTC},
	{"engine", stackRungEngine},
	{"shard", stackRungRouter},
	{"wire", stackServed},
}

// ladder runs the workload's op stream, one client, against the five
// stacks built from the same seed, and turns rung deltas into layer self
// times and allocations.
func (res *tracedResult) ladder(cfg runConfig) error {
	n := cfg.w.ladderOps
	w := oneClient(cfg.w, n)
	// Every rung sees the same ops, warm-up included, so version chains and
	// trees are in the same state on each. The warm-up is long because an
	// in-process rung's 30 K ops take 30 ms: too short a run-up and they are
	// over before the CPU has settled.
	w.warmOps = 3 * n
	for w.ring < w.warmOps+n {
		w.ring <<= 1
	}
	ring := newStream(w.spec).ops(cfg.seed, 0, 1, w.ring)
	for _, lr := range ladderRungs {
		w.kind = lr.kind
		st, workers, err := setUp(runConfig{w: w, seed: cfg.seed}, [][]op{ring})
		if err != nil {
			return fmt.Errorf("rung %s: %w", lr.name, err)
		}
		wk := workers[0]
		var seg atomic.Int32
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu := cpuSeconds()
		wk.loop(n, nil, &seg)
		cpu = cpuSeconds() - cpu
		runtime.ReadMemStats(&m1)
		res.collect(wk)
		s := &wk.segs[0]
		res.Ladder = append(res.Ladder, rung{
			Name:        lr.name,
			ReadUs:      s.lat[opGet].quantile(0.5) / 1e3,
			WriteUs:     s.lat[opPut].quantile(0.5) / 1e3,
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
			CPUUsPerOp:  cpu * 1e6 / float64(n),
		})
		if err := st.close(); err != nil {
			return err
		}
	}
	L, r := res.Layers, res.Ladder
	// At F = 0 only buffer flushes reach a device, one write in thousands:
	// the median op never sees one, so the DC rung is the bwtree's own time.
	L["bwtree.read_self_us"] = r[0].ReadUs
	L["bwtree.write_self_us"] = r[0].WriteUs
	for i, layer := range []string{"tc", "engine", "shard", "wire"} {
		L[layer+".read_self_us"] = r[i+1].ReadUs - r[i].ReadUs
		L[layer+".write_self_us"] = r[i+1].WriteUs - r[i].WriteUs
		L[layer+".allocs_per_op"] = r[i+1].AllocsPerOp - r[i].AllocsPerOp
	}
	L["wire.alloc_bytes_per_op"] = r[4].BytesPerOp - r[3].BytesPerOp
	return nil
}

// massProbes isolates MassTree and the engine around it: two-worker
// scaling of direct calls, sim units per op (exact), and what an obs
// registry tracer adds to an engine op.
func (res *tracedResult) massProbes(cfg runConfig) error {
	w := cfg.w
	const n = 200_000
	gen := newStream(w.spec)
	rings := [][]op{gen.ops(cfg.seed, 0, 2, 1<<18), gen.ops(cfg.seed, 1, 2, 1<<18)}

	// Direct calls, 2 workers over 1.
	direct := func(workers int) (float64, error) {
		t, _ := newProbeMass(false)
		store := massKV{t}
		if err := load(store, w.spec.keys); err != nil {
			return 0, err
		}
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wk := probeWorker(store, rings[i], w.spec.keys)
				wk.id = i
				wk.loop(n, nil, new(atomic.Int32))
			}(i)
		}
		wg.Wait()
		return float64(workers*n) / time.Since(t0).Seconds(), nil
	}
	one, err := direct(1)
	if err != nil {
		return err
	}
	two, err := direct(2)
	if err != nil {
		return err
	}
	res.Layers["masstree.scale_2w"] = two / one

	// Sim units per op with one client: repeats exactly.
	t, session := newProbeMass(true)
	store := massKV{t}
	if err := load(store, w.spec.keys); err != nil {
		return err
	}
	session.Tracker().Reset()
	wk := probeWorker(store, rings[0], w.spec.keys)
	wk.loop(n, nil, new(atomic.Int32))
	res.collect(wk)
	res.Layers["masstree.sim_units_per_op"] = float64(session.Tracker().TotalCost()) / float64(session.Tracker().TotalOps())

	// The engine rung with a registry tracer minus without.
	engineUs := func(withObs bool) (float64, error) {
		st, err := build(stackMass, buildOpts{obs: withObs})
		if err != nil {
			return 0, err
		}
		defer st.close()
		if err := load(st.store, w.spec.keys); err != nil {
			return 0, err
		}
		wk := probeWorker(st.store, rings[0], w.spec.keys)
		t0 := time.Now()
		wk.loop(n, nil, new(atomic.Int32))
		return time.Since(t0).Seconds() * 1e6 / n, nil
	}
	off, err := engineUs(false)
	if err != nil {
		return err
	}
	on, err := engineUs(true)
	if err != nil {
		return err
	}
	res.Layers["obs.us_per_op"] = on - off
	return nil
}

// probeBTree times direct calls on the buffer-pool B-tree: 100 K
// read-mostly ops over 50 K keys with the default 1024-page pool.
func probeBTree(seed uint64) (float64, error) {
	const keys, n = 50_000, 100_000
	t, err := newProbeBTree()
	if err != nil {
		return 0, err
	}
	store := btreeKV{t}
	if err := load(store, keys); err != nil {
		return 0, err
	}
	ring := newStream(streamSpec{keys: keys, dist: distZipf, mix: zipfReadMostly}).ops(seed, 0, 1, 1<<17)
	wk := probeWorker(store, ring, keys)
	t0 := time.Now()
	wk.loop(n, nil, new(atomic.Int32))
	if f := wk.segs[0].failed; f[opGet]+f[opPut] > 0 {
		return 0, fmt.Errorf("btree probe: %v", wk.errs)
	}
	return time.Since(t0).Seconds() * 1e6 / n, nil
}

// probeWorker is a worker for a probe loop: it verifies what comes back but
// times no single op, so the loop's wall time is the measurement.
func probeWorker(store kv, ring []op, keys int) *worker {
	return &worker{kv: store, ops: ring, keys: uint64(keys), sample: math.MaxInt, segs: make([]workerSeg, 1)}
}

// timeLoop runs f n times and returns ns and heap allocations per call.
func timeLoop(n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	ns := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	return float64(ns) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
