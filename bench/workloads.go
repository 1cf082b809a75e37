package main

// workload is one frozen set of inputs plus the stack it runs against.
// Every workload is a closed loop: each worker sends its next request when
// the previous one returns.
type workload struct {
	name, why string
	kind      stackKind
	spec      streamSpec
	conns     int // wire connections (0: in-process)
	workers   int // client goroutines, one request in flight each
	ring      int // ops pre-generated per worker; the stream wraps after that
	warmOps   int // per worker, before the first measured op
	// sampleEvery times every n-th op of a worker. A time.Now pair costs
	// ≈0.12 µs, 15–30 % of a MassTree op, so in-process workloads sample.
	sampleEvery int
	sweepEvery  int // worker 0 runs the cache manager every n of its ops
	spanOps     int // traced run: ops with one op in flight
	ladderOps   int // traced run: ops per ladder rung (served stacks)
}

const scanLimit = 50

var zipfReadMostly = mix{put: 0.05}

// workloads is the frozen suite. Sizes were chosen on the reference box
// (2 × Xeon 2.1 GHz, go1.24) so that a 2 s segment holds at least 1000
// samples of every op type a workload reports.
var workloads = []workload{
	{
		name: "served-read",
		why:  "the latency a client sees: wire does most of the work, stores almost none; data fits, F = 0",
		kind: stackServed, conns: 2, workers: 2,
		spec: streamSpec{keys: 200_000, dist: distZipf, mix: zipfReadMostly},
		ring: 1 << 18, warmOps: 10_000, sampleEvery: 1, spanOps: 30_000, ladderOps: 30_000,
	},
	{
		name: "served-update",
		why:  "same layers used for writes: TC commit under tc.mu, recovery-log append and flush, DC blind writes; version chains grow",
		kind: stackServed, conns: 2, workers: 2,
		spec: streamSpec{keys: 200_000, dist: distZipf, mix: mix{put: 0.5}},
		ring: 1 << 18, warmOps: 5_000, sampleEvery: 1, spanOps: 30_000, ladderOps: 30_000,
	},
	{
		name: "served-pipelined",
		why:  "served-read with 8 requests in flight per connection: connection mutexes, server writer, admission and tc.mu queue",
		kind: stackServed, conns: 2, workers: 16,
		spec: streamSpec{keys: 200_000, dist: distZipf, mix: zipfReadMostly},
		ring: 1 << 16, warmOps: 2_000, sampleEvery: 1, spanOps: 30_000, ladderOps: 30_000,
	},
	{
		name: "cache-miss",
		why:  "the paper's SS-operation regime: working set 4x the page cache, so bwtree page loads, logstore, ssd and the sweeper do the work",
		kind: stackCacheMiss, workers: 2,
		spec: streamSpec{keys: 200_000, dist: distHotCold, mix: mix{put: 0.1}},
		ring: 1 << 20, warmOps: 30_000, sampleEvery: 8, sweepEvery: 5000, spanOps: 50_000,
	},
	{
		name: "mm-point",
		why:  "the paper's main-memory comparator: engine and MassTree split the op evenly, no device, every caching layer bypassed",
		kind: stackMass, workers: 2,
		spec: streamSpec{keys: 500_000, dist: distZipf, mix: mix{put: 0.1}},
		ring: 1 << 21, warmOps: 125_000, sampleEvery: 8, spanOps: 50_000,
	},
	{
		name: "lsm-scan",
		why:  "range scans beside point ops and inline compaction on one RWMutex; scans dominate the wall time",
		kind: stackLSM, workers: 2,
		spec: streamSpec{keys: 10_000, dist: distZipf, mix: mix{put: 0.15, scan: 0.20}},
		ring: 1 << 16, warmOps: 250, sampleEvery: 1, spanOps: 2_000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a workload for the smoke run: keys, warm-up and traced op
// counts divided by n. The result checks wiring, not performance.
func (w workload) scaled(n int) workload {
	if n <= 1 {
		return w
	}
	w.spec.keys /= n
	w.warmOps /= n
	w.spanOps /= n
	w.ladderOps /= n
	if w.ring > 1<<14 {
		w.ring = 1 << 14
	}
	if w.sweepEvery > 0 {
		w.sweepEvery = 500
	}
	return w
}
