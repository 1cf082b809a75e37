package main

// metricDef names one reported metric. floor is the smallest regression
// bound an end-to-end metric may carry; -calibrate only raises it.
type metricDef struct {
	name, unit, better string
	floor              float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them and none can be 0. The rest of the issue's thirteen are
// per-layer instead, each for a reason README.md gives: the tail and write
// latencies spread more than 10 % between runs on the reference box, five
// workloads issue no scans, mm-point has no device, and the failed fraction
// is 0 on a correct run (the result's attempted/failed counts carry it).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.15},
	{"throughput_ops_s", "ops/s", "higher", 0.10},
	{"read_p50_us", "us", "lower", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.05},
	{"exec_usd_per_mop", "usd/Mop", "lower", 0.05},
	{"mem_bytes_per_user_byte", "ratio", "lower", 0.05},
}

// maxBound is the largest bound the benchmark contract accepts.
const maxBound = 0.25

// perLayer lists the single-layer metrics. A layer a workload bypasses
// reports 0 for all of its metrics.
var perLayer = []metricDef{
	{name: "failed_frac", unit: "ratio", better: "lower"},
	{name: "read_p99_us", unit: "us", better: "lower"},
	{name: "write_p50_us", unit: "us", better: "lower"},
	{name: "write_p99_us", unit: "us", better: "lower"},
	{name: "scan_p50_us", unit: "us", better: "lower"},
	{name: "scan_p99_us", unit: "us", better: "lower"},
	{name: "ss_write_amp", unit: "ratio", better: "lower"},

	{name: "wire.read_self_us", unit: "us", better: "lower"},
	{name: "wire.write_self_us", unit: "us", better: "lower"},
	{name: "wire.allocs_per_op", unit: "count", better: "lower"},
	{name: "wire.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},
	{name: "wire.syscalls_per_op", unit: "count", better: "lower"},
	{name: "wire.retries_per_kop", unit: "count", better: "lower"},
	{name: "wire.frame_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_allocs_per_op", unit: "count", better: "lower"},

	{name: "shard.read_self_us", unit: "us", better: "lower"},
	{name: "shard.write_self_us", unit: "us", better: "lower"},
	{name: "shard.allocs_per_op", unit: "count", better: "lower"},
	{name: "shard.route_ns", unit: "ns", better: "lower"},
	{name: "shard.imbalance", unit: "ratio", better: "lower"},
	{name: "shard.moved_retries", unit: "count", better: "lower"},

	{name: "engine.read_self_us", unit: "us", better: "lower"},
	{name: "engine.write_self_us", unit: "us", better: "lower"},
	{name: "engine.allocs_per_op", unit: "count", better: "lower"},
	{name: "engine.wait_p99_us", unit: "us", better: "lower"},
	{name: "engine.shed_frac", unit: "ratio", better: "lower"},
	{name: "engine.queue_peak", unit: "count", better: "lower"},
	{name: "overload.acquire_ns", unit: "ns", better: "lower"},

	{name: "tc.read_self_us", unit: "us", better: "lower"},
	{name: "tc.write_self_us", unit: "us", better: "lower"},
	{name: "tc.allocs_per_op", unit: "count", better: "lower"},
	{name: "tc.dc_reads_per_read", unit: "ratio", better: "lower"},
	{name: "tc.log_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "tc.log_flushes_per_kcommit", unit: "count", better: "lower"},
	{name: "tc.conflict_frac", unit: "ratio", better: "lower"},

	{name: "bwtree.read_self_us", unit: "us", better: "lower"},
	{name: "bwtree.write_self_us", unit: "us", better: "lower"},
	{name: "bwtree.hit_self_us", unit: "us", better: "lower"},
	{name: "bwtree.miss_self_us", unit: "us", better: "lower"},
	{name: "bwtree.wall_r", unit: "ratio", better: "lower"},
	{name: "bwtree.sim_r", unit: "ratio", better: "lower"},
	{name: "bwtree.page_loads_per_op", unit: "ratio", better: "lower"},
	{name: "bwtree.consolidations_per_kop", unit: "count", better: "lower"},
	{name: "bwtree.resident_frac", unit: "ratio", better: "higher"},

	{name: "llama.sweep_ms", unit: "ms", better: "lower"},
	{name: "llama.evictions_per_sweep", unit: "count", better: "lower"},
	{name: "llama.flush_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "llama.buffer_hit_frac", unit: "ratio", better: "higher"},

	{name: "ssd.reads_per_op", unit: "ratio", better: "lower"},
	{name: "ssd.read_bytes_per_op", unit: "B", better: "lower"},
	{name: "ssd.writes_per_kop", unit: "count", better: "lower"},
	{name: "ssd.busy_frac", unit: "ratio", better: "lower"},
	{name: "ssd.space_per_user_byte", unit: "ratio", better: "lower"},
	{name: "ssd.self_us_per_io", unit: "us", better: "lower"},

	{name: "masstree.self_us_per_op", unit: "us", better: "lower"},
	{name: "masstree.scale_2w", unit: "ratio", better: "higher"},
	{name: "masstree.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "masstree.sim_units_per_op", unit: "count", better: "lower"},

	{name: "lsm.get_self_us", unit: "us", better: "lower"},
	{name: "lsm.put_self_us", unit: "us", better: "lower"},
	{name: "lsm.scan_self_us", unit: "us", better: "lower"},
	{name: "lsm.read_bytes_per_scan", unit: "B", better: "lower"},
	{name: "lsm.table_reads_per_get", unit: "ratio", better: "lower"},
	{name: "lsm.bloom_skip_frac", unit: "ratio", better: "higher"},
	{name: "lsm.compactions_per_kput", unit: "count", better: "lower"},

	{name: "btree.direct_us_per_op", unit: "us", better: "lower"},
	{name: "obs.us_per_op", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}
