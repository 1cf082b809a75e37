package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// segments is how many back-to-back measured segments one run has. Rates
// and percentiles are computed per segment and reported as the median of
// the five, so one VM stall spoils one segment, not the run.
const segments = 5

// setups is how often a run sets the stack up; setup_s is the median.
const setups = 3

// worker is one closed-loop client goroutine.
type worker struct {
	id         int
	kv         kv
	ops        []op
	n          int // ops issued so far; indexes the ring
	seq        uint64
	keys       uint64
	sample     int
	tick       func()
	sweepEvery int
	sweep      func() (int, error)
	tr         *tracer
	scanBytes  *atomic.Int64 // span run: data-device read bytes, to attribute to scans

	segs       []workerSeg // one per measured segment, then one for warm-up
	sweepNs    []int64
	sweepEvict int64
	scanRead   int64
	conflicts  int64 // the generator gives each writer its own keys, so 0 is expected
	errs       []string
	key        [keyLen]byte
}

type workerSeg struct {
	ok, failed [numKinds]int64
	lat        [numKinds]hist
}

var errMissing = errors.New("loaded key not found")

// exec runs one op against the stack and checks what comes back.
func (w *worker) exec(ctx context.Context, o op) error {
	id := o.id()
	switch o.kind() {
	case opGet:
		putKey(w.key[:], id)
		v, ok, err := w.kv.Get(ctx, w.key[:])
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("key %d: %w", id, errMissing)
		}
		return checkValue(v, id)
	case opPut:
		// A fresh buffer per Put: the LSM memtable keeps the caller's slices.
		buf := make([]byte, userBytes)
		putKey(buf, id)
		w.seq++
		fillValue(buf[keyLen:], id, uint64(w.id)<<40|w.seq)
		return w.kv.Put(ctx, buf[:keyLen], buf[keyLen:])
	default:
		putKey(w.key[:], id)
		rows := 0
		var bad error
		err := w.kv.Scan(ctx, w.key[:], scanLimit, func(k, v []byte) bool {
			// Every key is loaded and none is deleted, so a bounded scan
			// from id returns exactly id, id+1, ... in order.
			if len(k) != keyLen || binary.BigEndian.Uint64(k) != id+uint64(rows) {
				bad = fmt.Errorf("scan from %d: row %d has key %x", id, rows, k)
				return false
			}
			if bad = checkValue(v, id+uint64(rows)); bad != nil {
				return false
			}
			rows++
			return true
		})
		if err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
		if want := min(scanLimit, int(w.keys-id)); rows != want {
			return fmt.Errorf("scan from %d: %d rows, want %d", id, rows, want)
		}
		return nil
	}
}

// loop issues ops until n are done (n >= 0) or stop is set. seg names the
// slot of w.segs that is being filled.
func (w *worker) loop(n int, stop *atomic.Bool, seg *atomic.Int32) {
	ctx := context.Background()
	mask := len(w.ops) - 1
	for i := 0; n < 0 || i < n; i++ {
		if stop != nil && stop.Load() {
			return
		}
		o := w.ops[w.n&mask]
		kind := o.kind()
		s := &w.segs[seg.Load()]
		if w.tick != nil {
			w.tick()
		}
		timed := w.n%w.sample == 0
		w.n++
		var readBefore int64
		if w.scanBytes != nil && kind == opScan {
			readBefore = w.scanBytes.Load()
		}
		span := w.tr.begin(opSpanNames[kind])
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		err := w.exec(ctx, o)
		if err != nil {
			w.tr.end(span)
			s.failed[kind]++
			s.lat[kind].recordFailed()
			if isConflict(err) {
				w.conflicts++
			}
			if len(w.errs) < 5 {
				w.errs = append(w.errs, fmt.Sprintf("%s: %v", kindNames[kind], err))
			}
		} else {
			if timed {
				s.lat[kind].record(int64(time.Since(t0)))
			}
			w.tr.end(span)
			s.ok[kind]++
		}
		if w.scanBytes != nil && kind == opScan {
			w.scanRead += w.scanBytes.Load() - readBefore
		}
		if w.sweepEvery > 0 && w.n%w.sweepEvery == 0 {
			t0 := time.Now()
			evicted, err := w.sweep()
			w.sweepNs = append(w.sweepNs, int64(time.Since(t0)))
			w.sweepEvict += int64(evicted)
			if err != nil && len(w.errs) < 5 {
				s.failed[opGet]++
				w.errs = append(w.errs, fmt.Sprintf("sweep: %v", err))
			}
		}
	}
}

var opSpanNames = [numKinds]string{"op.read", "op.write", "op.scan"}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapBytes is the live Go heap after two collections.
func heapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// runConfig is one measured run.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	setups  int
	opts    buildOpts // tests inject faults through opts.wrap
}

// segReport is what one measured segment showed.
type segReport struct {
	WallS      float64           `json:"wall_s"`
	OKOps      int64             `json:"ok_ops"`
	Throughput float64           `json:"throughput_ops_s"`
	CPUUsPerOp float64           `json:"cpu_us_per_op"`
	P50Us      [numKinds]float64 `json:"p50_us"` // read, write, scan
	P99Us      [numKinds]float64 `json:"p99_us"`
	Samples    [numKinds]uint64  `json:"samples"`
	// StolenFrac is the share of the VM's CPU time the hypervisor gave to
	// other guests during the segment; SetAside marks a segment left out
	// of the medians because of it.
	StolenFrac float64 `json:"stolen_cpu_frac"`
	SetAside   bool    `json:"set_aside,omitempty"`
}

// maxStolen is the stolen share above which a segment measured the
// neighbours rather than the program. Such segments are left out of the
// medians as long as three clean ones remain.
const maxStolen = 0.02

// runResult is everything a measured run produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	SetupS    []float64          `json:"setup_s_each"`
	Segments  []segReport        `json:"segments"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer_counts"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	conflicts int64
}

// setUp builds the stack, loads every key in process, and warms it.
func setUp(cfg runConfig, rings [][]op) (*stack, []*worker, error) {
	w := cfg.w
	opts := cfg.opts
	opts.conns = w.conns
	st, err := build(w.kind, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := load(st.store, w.spec.keys); err != nil {
		st.close()
		return nil, nil, err
	}
	if st.afterLoad != nil {
		if err := st.afterLoad(); err != nil {
			st.close()
			return nil, nil, err
		}
	}
	workers := newWorkers(w, st, rings, opts.tr)
	var warm atomic.Int32
	warm.Store(segments)
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.loop(w.warmOps, nil, &warm)
		}(wk)
	}
	wg.Wait()
	return st, workers, nil
}

func newWorkers(w workload, st *stack, rings [][]op, tr *tracer) []*worker {
	workers := make([]*worker, len(rings))
	for i := range workers {
		wk := &worker{
			id: i, kv: st.conns[i%len(st.conns)], ops: rings[i],
			keys: uint64(w.spec.keys), sample: w.sampleEvery, tr: tr,
			segs: make([]workerSeg, segments+1),
		}
		if st.session != nil {
			wk.tick = st.tick
		}
		if i == 0 && w.sweepEvery > 0 {
			wk.sweepEvery, wk.sweep = w.sweepEvery, st.sweep
		}
		workers[i] = wk
	}
	return workers
}

// load puts every key once, in scrambled order so pages fill as they would
// under random inserts, with seq 0.
func load(store kv, keys int) error {
	ctx := context.Background()
	for i := 0; i < keys; i++ {
		id := uint64(i) * scramblePrime % uint64(keys)
		buf := make([]byte, userBytes)
		putKey(buf, id)
		fillValue(buf[keyLen:], id, 0)
		if err := store.Put(ctx, buf[:keyLen], buf[keyLen:]); err != nil {
			return fmt.Errorf("load key %d: %w", id, err)
		}
	}
	return nil
}

// readBack reads every loaded key once through the in-process entry and
// verifies it; it returns how many reads failed.
func readBack(store kv, keys int, errs *[]string) int64 {
	ctx := context.Background()
	var failed int64
	var key [keyLen]byte
	for id := uint64(0); id < uint64(keys); id++ {
		putKey(key[:], id)
		v, ok, err := store.Get(ctx, key[:])
		if err == nil && !ok {
			err = errMissing
		}
		if err == nil {
			err = checkValue(v, id)
		}
		if err != nil {
			failed++
			if len(*errs) < 10 {
				*errs = append(*errs, fmt.Sprintf("read-back key %d: %v", id, err))
			}
		}
	}
	return failed
}

// timeline is the clock, the process's CPU time and the VM's stolen CPU time
// at the start of the measurement and at the end of each segment.
type timeline struct {
	marks       [segments + 1]time.Time
	cpu, stolen [segments + 1]float64
}

func (tl *timeline) mark(i int) {
	tl.marks[i], tl.cpu[i], tl.stolen[i] = time.Now(), cpuSeconds(), stolenSeconds()
}

// measure runs the workers for five segments back to back; each worker
// files an op under the segment that is current when the op starts.
func measure(workers []*worker, seconds float64) *timeline {
	segLen := time.Duration(seconds / segments * float64(time.Second))
	var stop atomic.Bool
	var seg atomic.Int32
	var wg sync.WaitGroup
	tl := &timeline{}
	tl.mark(0)
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.loop(-1, &stop, &seg)
		}(wk)
	}
	for i := 1; i <= segments; i++ {
		time.Sleep(time.Until(tl.marks[0].Add(time.Duration(i) * segLen)))
		tl.mark(i)
		if i < segments {
			seg.Store(int32(i))
		} else {
			stop.Store(true)
		}
	}
	wg.Wait()
	return tl
}

// run performs one measured run: set up (several times), five segments,
// memory, read-back.
func run(cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds}
	gen := newStream(w.spec)
	rings := make([][]op, w.workers)
	for i := range rings {
		rings[i] = gen.ops(cfg.seed, i, w.workers, w.ring)
	}

	var st *stack
	var workers []*worker
	var baseline int64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			res.absorb(workers)
			if err := st.close(); err != nil {
				return nil, err
			}
			st, workers = nil, nil
		}
		baseline = heapBytes()
		t0 := time.Now()
		var err error
		if st, workers, err = setUp(cfg, rings); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer st.close()

	before := st.counts()
	tl := measure(workers, cfg.seconds)
	grown := st.counts().minus(before)

	res.absorb(workers)
	var okByKind, failedByKind [numKinds]int64
	for i := 0; i < segments; i++ {
		sr := segReport{WallS: tl.marks[i+1].Sub(tl.marks[i]).Seconds()}
		sr.StolenFrac = (tl.stolen[i+1] - tl.stolen[i]) / (sr.WallS * float64(runtime.NumCPU()))
		for k := opKind(0); k < numKinds; k++ {
			var lat hist
			for _, wk := range workers {
				s := &wk.segs[i]
				sr.OKOps += s.ok[k]
				okByKind[k] += s.ok[k]
				failedByKind[k] += s.failed[k]
				lat.merge(&s.lat[k])
			}
			sr.Samples[k] = lat.samples()
			sr.P50Us[k] = finite(lat.quantile(0.50) / 1e3)
			sr.P99Us[k] = finite(lat.quantile(0.99) / 1e3)
		}
		sr.Throughput = float64(sr.OKOps) / sr.WallS
		sr.CPUUsPerOp = (tl.cpu[i+1] - tl.cpu[i]) / float64(sr.OKOps) * 1e6
		res.Segments = append(res.Segments, sr)
	}
	var okOps, failedOps int64
	for k := range okByKind {
		okOps += okByKind[k]
		failedOps += failedByKind[k]
	}
	res.Attempted += okOps + failedOps
	res.Failed += failedOps

	// Memory: the live heap the stack added, less what models flash. Under a
	// cache manager it is read just after a sweep, at the bottom of the
	// residency sawtooth, so that it does not depend on where the run stopped.
	if st.sweep != nil {
		if _, err := st.sweep(); err != nil {
			return nil, err
		}
	}
	mem := heapBytes() - baseline - st.mediaBytes()
	userData := float64(w.spec.keys) * userBytes

	res.Attempted += int64(w.spec.keys)
	res.Failed += readBack(st.store, w.spec.keys, &res.Errors)

	clean := 0
	for _, s := range res.Segments {
		if s.StolenFrac <= maxStolen {
			clean++
		}
	}
	for i := range res.Segments {
		res.Segments[i].SetAside = clean >= 3 && res.Segments[i].StolenFrac > maxStolen
	}
	median := func(f func(segReport) float64) float64 {
		vs := make([]float64, 0, segments)
		for _, s := range res.Segments {
			if !s.SetAside {
				vs = append(vs, f(s))
			}
		}
		return medianOf(vs)
	}
	okF := float64(okOps)
	cpuUs := median(func(s segReport) float64 { return s.CPUUsPerOp })
	processor, perIO := paperCosts()
	ssIOs := grown["data.reads"] + grown["data.writes"] + grown["log.writes"]
	res.E2E = map[string]float64{
		"setup_s":                 medianOf(res.SetupS),
		"throughput_ops_s":        median(func(s segReport) float64 { return s.Throughput }),
		"read_p50_us":             median(func(s segReport) float64 { return s.P50Us[opGet] }),
		"cpu_us_per_op":           cpuUs,
		"exec_usd_per_mop":        1e6 * (processor*cpuUs/1e6 + perIO*ssIOs/okF),
		"mem_bytes_per_user_byte": float64(mem) / userData,
	}

	// Per-layer figures that are counts over the measured segments.
	g := st.gauges()
	wall := tl.marks[segments].Sub(tl.marks[0]).Seconds()
	puts := float64(okByKind[opPut])
	putBytes := puts * userBytes
	L := map[string]float64{
		"failed_frac":  float64(res.Failed) / float64(res.Attempted),
		"read_p99_us":  median(func(s segReport) float64 { return s.P99Us[opGet] }),
		"write_p50_us": median(func(s segReport) float64 { return s.P50Us[opPut] }),
		"write_p99_us": median(func(s segReport) float64 { return s.P99Us[opPut] }),
		"scan_p50_us":  median(func(s segReport) float64 { return s.P50Us[opScan] }),
		"scan_p99_us":  median(func(s segReport) float64 { return s.P99Us[opScan] }),
		"ss_write_amp": ratio(grown["data.writeBytes"]+grown["log.writeBytes"], putBytes),

		"wire.bytes_per_op":    grown["conn.bytes"] / okF,
		"wire.syscalls_per_op": grown["conn.calls"] / okF,
		"wire.retries_per_kop": 1e3 * grown["client.retries"] / okF,
		"shard.moved_retries":  grown["shard.movedRetries"],
		"shard.imbalance":      imbalance(grown, len(st.dcs)),
		"engine.wait_p99_us":   g.waitP99us,
		"engine.shed_frac":     ratio(grown["engine.shed"], grown["engine.shed"]+grown["engine.admitted"]),
		"engine.queue_peak":    g.queuePeak,
		"tc.conflict_frac":     float64(res.conflicts) / float64(res.Attempted),

		"ssd.reads_per_op":        grown["data.reads"] / okF,
		"ssd.read_bytes_per_op":   grown["data.readBytes"] / okF,
		"ssd.writes_per_kop":      1e3 * (grown["data.writes"] + grown["log.writes"]) / okF,
		"ssd.busy_frac":           grown["dev.busySeconds"] / wall,
		"ssd.space_per_user_byte": g.mediaBytes / userData,

		"bwtree.page_loads_per_op":      grown["bwtree.pageLoads"] / okF,
		"bwtree.consolidations_per_kop": 1e3 * grown["bwtree.consolidations"] / okF,
		"bwtree.resident_frac":          g.residentFrac,
		"masstree.bytes_per_user_byte":  g.massFootprint / userData,
		"lsm.table_reads_per_get":       ratio(grown["lsm.tableReads"], grown["lsm.gets"]),
		"lsm.bloom_skip_frac":           ratio(grown["lsm.bloomSkips"], grown["lsm.bloomSkips"]+grown["lsm.tableReads"]),
		"lsm.compactions_per_kput":      ratio(1e3*grown["lsm.compactions"], grown["lsm.puts"]),
	}
	if len(st.dcs) > 0 {
		L["tc.dc_reads_per_read"] = grown["dc.gets"] / float64(okByKind[opGet])
		L["tc.log_bytes_per_user_byte"] = grown["log.writeBytes"] / putBytes
		L["tc.log_flushes_per_kcommit"] = 1e3 * grown["log.writes"] / puts
	}
	if st.sweep != nil {
		wk := workers[0]
		L["llama.flush_bytes_per_user_byte"] = grown["data.writeBytes"] / putBytes
		L["llama.buffer_hit_frac"] = ratio(grown["logstore.bufferHits"], grown["logstore.bufferHits"]+grown["data.reads"])
		if n := len(wk.sweepNs); n > 0 {
			ms := make([]float64, n)
			for i, ns := range wk.sweepNs {
				ms[i] = float64(ns) / 1e6
			}
			L["llama.sweep_ms"] = medianOf(ms)
			L["llama.evictions_per_sweep"] = float64(wk.sweepEvict) / float64(n)
		}
	}
	res.Layers = L
	return res, nil
}

// absorb takes over what a set of workers recorded beside the segments:
// the ops of their warm-up (outside the measurement, but a failure there is
// still wrong), their error messages and their conflicts.
func (r *runResult) absorb(workers []*worker) {
	for _, wk := range workers {
		s := &wk.segs[segments]
		for k := range s.ok {
			r.Attempted += s.ok[k] + s.failed[k]
			r.Failed += s.failed[k]
		}
		r.Errors = append(r.Errors, wk.errs...)
		r.conflicts += wk.conflicts
	}
}

// imbalance is the busiest shard's data-component calls over the mean.
func imbalance(grown counts, shards int) float64 {
	var peak, sum float64
	for i := 0; i < shards; i++ {
		n := grown[fmt.Sprint("dc.calls.", i)]
		sum += n
		peak = math.Max(peak, n)
	}
	return ratio(peak*float64(shards), sum)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps the NaN of an op type a workload does not issue to 0, and a
// percentile (in µs) that landed among failed ops to the histogram's ceiling.
func finite(us float64) float64 {
	switch {
	case math.IsNaN(us):
		return 0
	case math.IsInf(us, 1):
		return float64(uint64(1)<<histMaxBits) / 1e3
	}
	return us
}

func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
