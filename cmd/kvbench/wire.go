// Wire mode: serve a store over the binary protocol (-serve) and drive it
// with a multi-connection load generator (-connect), emitting a
// BENCH_wire.json snapshot so the perf trajectory of the connection path
// is persisted per PR rather than anecdotal.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"costperf/internal/core"
	"costperf/internal/engine"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/ssd"
	"costperf/internal/wire"
	"costperf/internal/workload"
)

// wireModeConfig carries the flags both wire modes share.
type wireModeConfig struct {
	store     string
	keys      uint64
	ops       int
	mix       string
	dist      string
	valueSize int
	pool      int
	seed      int64

	addr     string // -serve or -connect target
	conns    int    // client connections
	pipeline int    // per-connection in-flight depth
	benchOut string // JSON snapshot path

	concurrency int // engine MaxConcurrent (0 = default)
	queue       int // engine MaxQueue (0 = default)
	deadline    time.Duration
}

// newWireEngine builds the chosen store behind the engine front-end, the
// backend both wire modes serve. The device runs clean: wire mode measures
// the connection path, not injected device faults. The store is traced
// (internal/obs) so the persisted snapshot carries the live $/op and
// breakeven the matrix snapshots get — one comparable schema.
func newWireEngine(cfg wireModeConfig) (*engine.Engine, *obs.Registry) {
	dev := ssd.New(ssd.Config{Name: "dev", MaxIOPS: 1e6, LatencySec: 20e-6})
	reg := obs.NewRegistry()
	tr := reg.Tracer(cfg.store)
	dev.SetObserver(tr)
	es := buildEngineStore(cfg.store, cfg.pool, dev, reg, tr)

	fmt.Printf("loading %d keys into %s...\n", cfg.keys, cfg.store)
	bg := context.Background()
	for i := uint64(0); i < cfg.keys; i++ {
		check(es.Put(bg, workload.Key(i), workload.ValueFor(i, cfg.valueSize)))
	}
	dev.Stats().Reset()
	reg.ResetAll() // measure the served run, not the load

	eng, err := engine.New(engine.Config{
		Store:          es,
		MaxConcurrent:  cfg.concurrency,
		MaxQueue:       cfg.queue,
		DefaultTimeout: cfg.deadline,
		Obs:            regTracer(reg, "engine"),
	})
	check(err)
	return eng, reg
}

// runWireServe listens on cfg.addr and serves the store until SIGINT/TERM,
// then drains gracefully: in-flight requests finish and ack before the
// connections close.
func runWireServe(cfg wireModeConfig) {
	eng, _ := newWireEngine(cfg)
	srv, err := wire.NewServer(wire.ServerConfig{Backend: eng, MaxInFlight: cfg.pipeline})
	check(err)
	l, err := net.Listen("tcp", cfg.addr)
	check(err)
	fmt.Printf("serving %s on %s (pipeline window %d); SIGINT drains\n",
		cfg.store, l.Addr(), cfg.pipeline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Printf("drain: %v\n", err)
		}
	}()

	check(srv.Serve(l))
	fmt.Printf("server: %s\n", srv.Stats().String())
	check(srv.Close())
	check(eng.Close())
}

// wireBenchSnapshot is the persisted BENCH_wire.json schema.
type wireBenchSnapshot struct {
	Store     string  `json:"store"`
	Conns     int     `json:"conns"`
	Pipeline  int     `json:"pipeline"`
	Mix       string  `json:"mix"`
	Dist      string  `json:"dist"`
	Keys      uint64  `json:"keys"`
	Ops       int     `json:"ops"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`

	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`

	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Errors    int64 `json:"errors"`

	Retries         int64 `json:"retries"`
	Hedges          int64 `json:"hedges"`
	Reconnects      int64 `json:"reconnects"`
	AttemptTimeouts int64 `json:"attempt_timeouts"`

	Server *wireServerSnapshot `json:"server,omitempty"`

	// Cost is the backing store's traced CostSnapshot priced at paper
	// rates — present when the server ran in-process (-connect self),
	// absent against a remote server whose device we cannot observe.
	// Shared with the matrix and shard snapshots (internal/obs).
	Cost *obs.SnapshotExport `json:"cost,omitempty"`
}

// wireServerSnapshot is attached when the server runs in-process
// (-connect self); against a remote server only client counters persist.
type wireServerSnapshot struct {
	Requests     int64 `json:"requests"`
	Responses    int64 `json:"responses"`
	DedupHits    int64 `json:"dedup_hits"`
	Evicted      int64 `json:"evicted"`
	BadFrames    int64 `json:"bad_frames"`
	InFlightPeak int64 `json:"in_flight_peak"`
}

// runWireLoad drives the workload through cfg.conns wire clients, each
// with cfg.pipeline concurrent requests in flight. "-connect self" spins
// up an in-process server on a loopback listener first, so one command
// exercises the full path.
func runWireLoad(cfg wireModeConfig) {
	addr := cfg.addr
	var srv *wire.Server
	var eng *engine.Engine
	var reg *obs.Registry
	if addr == "self" {
		eng, reg = newWireEngine(cfg)
		var err error
		srv, err = wire.NewServer(wire.ServerConfig{Backend: eng, MaxInFlight: cfg.pipeline})
		check(err)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		go srv.Serve(l)
		addr = l.Addr().String()
		fmt.Printf("in-process server on %s\n", addr)
	}

	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Keys: cfg.keys, ValueSize: cfg.valueSize,
		Mix: pickMix(cfg.mix), Chooser: pickChooser(cfg.dist, cfg.seed), Seed: cfg.seed,
	})
	check(err)
	ops := make([]workload.Op, 0, cfg.ops)
	for i := 0; i < cfg.ops; i++ {
		ops = append(ops, gen.Next())
	}

	clients := make([]*wire.Client, cfg.conns)
	for i := range clients {
		clients[i], err = wire.NewClient(wire.ClientConfig{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Seed:        cfg.seed + int64(i),
			MaxInFlight: cfg.pipeline,
		})
		check(err)
	}

	fmt.Printf("running %d ops (%s / %s) over %d conns x %d pipeline...\n",
		len(ops), cfg.mix, cfg.dist, cfg.conns, cfg.pipeline)

	var (
		latency                 metrics.Histogram // client-observed, microseconds
		completed, shed, failed metrics.Counter
		opCh                    = make(chan workload.Op)
		wg                      sync.WaitGroup
	)
	bg := context.Background()
	start := time.Now()
	for _, cl := range clients {
		// cfg.pipeline workers per connection keep its in-flight window full.
		for w := 0; w < cfg.pipeline; w++ {
			wg.Add(1)
			go func(cl *wire.Client) {
				defer wg.Done()
				for op := range opCh {
					t0 := time.Now()
					var err error
					switch op.Kind {
					case workload.OpRead:
						_, _, err = cl.Get(bg, op.Key)
					case workload.OpUpdate, workload.OpInsert, workload.OpBlindWrite:
						err = cl.Put(bg, op.Key, op.Value)
					case workload.OpScan:
						err = cl.Scan(bg, op.Key, op.ScanLen, func(_, _ []byte) bool { return true })
					case workload.OpDelete:
						err = cl.Delete(bg, op.Key)
					}
					latency.Observe(time.Since(t0).Microseconds())
					switch {
					case err == nil:
						completed.Inc()
					case errors.Is(err, engine.ErrOverload):
						shed.Inc()
					default:
						failed.Inc()
					}
				}
			}(cl)
		}
	}
	for _, op := range ops {
		opCh <- op
	}
	close(opCh)
	wg.Wait()
	elapsed := time.Since(start)

	snap := wireBenchSnapshot{
		Store: cfg.store, Conns: cfg.conns, Pipeline: cfg.pipeline,
		Mix: cfg.mix, Dist: cfg.dist, Keys: cfg.keys, Ops: len(ops),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		OpsPerSec: float64(len(ops)) / elapsed.Seconds(),
		Completed: completed.Value(), Shed: shed.Value(), Errors: failed.Value(),
	}
	lat := latency.Snapshot()
	snap.P50Micros, snap.P95Micros, snap.P99Micros, snap.MaxMicros = lat.P50, lat.P95, lat.P99, lat.Max
	for _, cl := range clients {
		st := cl.Stats()
		snap.Retries += st.Retries.Value()
		snap.Hedges += st.Hedges.Value()
		snap.Reconnects += st.Reconnects.Value()
		snap.AttemptTimeouts += st.AttemptTimeouts.Value()
		check(cl.Close())
	}
	if srv != nil {
		st := srv.Stats()
		snap.Server = &wireServerSnapshot{
			Requests: st.Requests.Value(), Responses: st.Responses.Value(),
			DedupHits: st.DedupHits.Value(), Evicted: st.Evicted.Value(),
			BadFrames: st.BadFrames.Value(), InFlightPeak: st.InFlightPeak.Value(),
		}
		cost := reg.Tracer(cfg.store).Snapshot().Export(core.PaperCosts())
		snap.Cost = &cost
		check(srv.Close())
		check(eng.Close())
	}

	fmt.Println("\nresults (wire mode, wall-clock):")
	fmt.Printf("  elapsed: %v  (%.0f ops/sec)\n", elapsed.Round(time.Microsecond), snap.OpsPerSec)
	fmt.Printf("  completed=%d shed=%d errors=%d\n", snap.Completed, snap.Shed, snap.Errors)
	fmt.Printf("  latency (us): p50=%.0f p95=%.0f p99=%.0f max=%.0f\n", lat.P50, lat.P95, lat.P99, lat.Max)
	fmt.Printf("  client: retries=%d hedges=%d reconnects=%d attempt-timeouts=%d\n",
		snap.Retries, snap.Hedges, snap.Reconnects, snap.AttemptTimeouts)
	if snap.Server != nil {
		fmt.Printf("  server: req=%d resp=%d dedup=%d evicted=%d bad=%d peak=%d\n",
			snap.Server.Requests, snap.Server.Responses, snap.Server.DedupHits,
			snap.Server.Evicted, snap.Server.BadFrames, snap.Server.InFlightPeak)
	}
	if snap.Cost != nil {
		fmt.Printf("  cost: $/Mop=%.3f breakeven=%.0fs (F=%.4f R=%.1f)\n",
			snap.Cost.DollarPerMop, snap.Cost.BreakevenSec, snap.Cost.F, snap.Cost.R)
	}

	writeBenchSnapshot(benchOutPath(cfg.benchOut, "wire"), "wire", cfg.store, map[string]any{
		"keys": cfg.keys, "ops": cfg.ops, "mix": cfg.mix, "dist": cfg.dist,
		"value_size": cfg.valueSize, "seed": cfg.seed,
		"conns": cfg.conns, "pipeline": cfg.pipeline,
	}, snap)
}
