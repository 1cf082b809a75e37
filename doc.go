// Package costperf is a from-scratch reproduction of David Lomet,
// "Cost/Performance in Modern Data Stores: How Data Caching Systems
// Succeed" (DaMoN'18 / ICDE'19).
//
// It provides:
//
//   - The paper's cost/performance model (Equations 1–8): mixed MM/SS
//     workload throughput, the updated five-minute rule, the Bw-tree vs
//     MassTree comparison, and compressed-storage (CSS) extensions. See
//     Costs, MainMemoryComparison, CSSParams and the Figure* generators.
//
//   - The systems the analysis is about, implemented from scratch:
//     a latch-free Bw-tree over LLAMA (mapping table + log-structured
//     store) on a simulated flash SSD (Deuteronomy's data component), a
//     MassTree, a classic buffer-pool B-tree, an LSM tree (the RocksDB
//     stand-in), and a Deuteronomy-style transaction component with an
//     MVCC version store as updated-record cache, a recovery log on
//     LLAMA's log store, and a read cache.
//
//   - Deterministic execution-cost accounting (Session/Tracker) that
//     measures the paper's quantities — R, P0/PF, M_x, P_x — without Go
//     garbage-collector noise.
//
// Quick start:
//
//	d, _ := costperf.NewDeuteronomy(costperf.DeuteronomyOptions{})
//	_ = d.Put([]byte("k"), []byte("v"))
//	v, ok, _ := d.Get([]byte("k"))
//	_ = v
//	_ = ok
//	fmt.Println(costperf.PaperCosts().BreakevenInterval()) // ≈ 45 s
//
// The cmd/figures binary regenerates every figure of the paper's
// evaluation; cmd/experiments runs the measured experiments; EXPERIMENTS.md
// records paper-vs-measured results.
package costperf
