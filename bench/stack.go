package main

// stack.go is the benchmark's whole contact surface with the program under
// test: every call into a costperf/internal/* constructor and every
// decorator lives here, so an API change touches one file. The decorators
// sit at the five interfaces the code already exposes — net.Conn,
// wire.Backend, engine.Store, tc.DataComponent and ssd.Dev — and measure
// each layer from outside. bench/README.md lists the frozen surface.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"

	"costperf/internal/btree"
	"costperf/internal/bwtree"
	"costperf/internal/core"
	"costperf/internal/engine"
	"costperf/internal/llama"
	"costperf/internal/llama/logstore"
	"costperf/internal/lsm"
	"costperf/internal/masstree"
	"costperf/internal/obs"
	"costperf/internal/overload"
	"costperf/internal/shard"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/tc"
	"costperf/internal/wire"
	"costperf/internal/wire/frame"
)

// kv is what a benchmark worker drives: engine.Store, shard.Router and
// wire.Client all have these three methods.
type kv interface {
	Get(ctx context.Context, key []byte) ([]byte, bool, error)
	Put(ctx context.Context, key, val []byte) error
	Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error
}

// --- decorators ---

// devCounters meters one class of simulated device (data or log).
type devCounters struct {
	reads, writes, readBytes, writeBytes atomic.Int64
}

// countedDev decorates ssd.Dev.
type countedDev struct {
	ssd.Dev
	c            *devCounters
	tr           *tracer
	rname, wname string
}

func (d *countedDev) ReadAt(off int64, length int, ch *sim.Charger) ([]byte, error) {
	id := d.tr.begin(d.rname)
	b, err := d.Dev.ReadAt(off, length, ch)
	d.tr.end(id)
	d.c.reads.Add(1)
	d.c.readBytes.Add(int64(len(b)))
	return b, err
}

func (d *countedDev) WriteAt(off int64, data []byte, ch *sim.Charger) error {
	id := d.tr.begin(d.wname)
	err := d.Dev.WriteAt(off, data, ch)
	d.tr.end(id)
	d.c.writes.Add(1)
	d.c.writeBytes.Add(int64(len(data)))
	return err
}

// dcCounters meters one shard's data component.
type dcCounters struct{ gets, writes atomic.Int64 }

// countedDC decorates tc.DataComponent.
type countedDC struct {
	dc tc.DataComponent
	c  *dcCounters
	tr *tracer
}

func (d *countedDC) Get(key []byte) ([]byte, bool, error) {
	id := d.tr.begin("dc.get")
	v, ok, err := d.dc.Get(key)
	d.tr.end(id)
	d.c.gets.Add(1)
	return v, ok, err
}

func (d *countedDC) BlindWrite(key, val []byte) error {
	id := d.tr.begin("dc.write")
	err := d.dc.BlindWrite(key, val)
	d.tr.end(id)
	d.c.writes.Add(1)
	return err
}

func (d *countedDC) Delete(key []byte) error { return d.dc.Delete(key) }

// tracedStore decorates engine.Store with a span around each call: below an
// engine as "store.*", and around the router a wire.Server fronts (the
// router is an engine.Store, and the decorated value is what the server gets
// as its wire.Backend) as "backend.*".
type tracedStore struct {
	engine.Store
	tr              *tracer
	get, put, scans string
}

func newTracedStore(inner engine.Store, tr *tracer, name string) *tracedStore {
	return &tracedStore{Store: inner, tr: tr, get: name + ".get", put: name + ".put", scans: name + ".scan"}
}

func (s *tracedStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	id := s.tr.begin(s.get)
	v, ok, err := s.Store.Get(ctx, key)
	s.tr.end(id)
	return v, ok, err
}

func (s *tracedStore) Put(ctx context.Context, key, val []byte) error {
	id := s.tr.begin(s.put)
	err := s.Store.Put(ctx, key, val)
	s.tr.end(id)
	return err
}

func (s *tracedStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	id := s.tr.begin(s.scans)
	err := s.Store.Scan(ctx, start, limit, fn)
	s.tr.end(id)
	return err
}

// connCounters meters the TCP connections, both ends together.
type connCounters struct{ reads, writes, bytes atomic.Int64 }

// countedConn decorates net.Conn: a Read or Write call is one syscall.
type countedConn struct {
	net.Conn
	c *connCounters
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

// countedListener hands the server counted connections.
type countedListener struct {
	net.Listener
	c *connCounters
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, c: l.c}, nil
}

// dcStore drives a bare tc.DataComponent through the kv surface, calling
// exactly what the TC calls (the ladder's lowest rung).
type dcStore struct{ dc tc.DataComponent }

func (s dcStore) Get(_ context.Context, key []byte) ([]byte, bool, error) { return s.dc.Get(key) }
func (s dcStore) Put(_ context.Context, key, val []byte) error            { return s.dc.BlindWrite(key, val) }
func (s dcStore) Scan(context.Context, []byte, int, func(k, v []byte) bool) error {
	return errors.New("bench: the data-component rung has no scan")
}

// --- stacks ---

type stackKind int

const (
	// stackServed is wire.Client → TCP loopback → wire.Server →
	// shard.Router (4 shards) → engine → tc → bwtree → logstore → ssd.
	stackServed stackKind = iota
	// stackCacheMiss is engine → bwtree → logstore → ssd under a
	// llama.Manager with a quarter of the loaded footprint as budget.
	stackCacheMiss
	// stackMass is engine → masstree.
	stackMass
	// stackLSM is engine → lsm → ssd.
	stackLSM
	// The remaining kinds are the lower ladder rungs of the served stack.
	stackRungDC     // bwtree called as a tc.DataComponent
	stackRungTC     // tc over it
	stackRungEngine // engine over tc
	stackRungRouter // shard.Router (4 shards), in process
)

const servedShards = 4

// buildOpts selects the measuring a stack carries.
type buildOpts struct {
	conns int                             // served stacks: wire connections
	tr    *tracer                         // spans (nil: none)
	wrap  func(engine.Store) engine.Store // tests inject a faulty store below the engine
	obs   bool                            // obs probe: the engine traces into a registry tracer
}

// stack is one built system plus the handles its counters are read from.
type stack struct {
	// conns is what workers drive: one entry per wire connection, or the
	// single in-process entry point.
	conns []kv
	// store is the in-process entry to the same data; loading and the
	// final read-back use it.
	store kv
	// afterLoad finishes construction that depends on the loaded size.
	afterLoad func() error
	// sweep runs the cache manager once (cache-miss only).
	sweep func() (int, error)

	closers []func() error

	data, log devCounters
	devs      []ssd.Dev // undecorated, for busy time and media footprint
	dcs       []*dcCounters
	conn      connCounters
	clients   []*wire.Client
	router    *shard.Router
	engines   []*engine.Engine
	trees     []*bwtree.Tree
	logs      []*logstore.Store
	session   *sim.Session
	lsm       *lsm.Tree
	mass      *masstree.Tree
	buildErr  error
}

func (st *stack) close() error {
	var first error
	for i := len(st.closers) - 1; i >= 0; i-- {
		if err := st.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (st *stack) newDev(c *devCounters, name string, o buildOpts) ssd.Dev {
	cfg := ssd.SamsungSSD
	cfg.Name = name
	d := ssd.New(cfg)
	st.devs = append(st.devs, d)
	return &countedDev{Dev: d, c: c, tr: o.tr, rname: name + ".read", wname: name + ".write"}
}

// newBwTree builds bwtree → logstore → data device with product defaults
// (1 MiB write buffer, 4 KiB pages, consolidate after 8 deltas).
func (st *stack) newBwTree(o buildOpts, session *sim.Session) (*bwtree.Tree, error) {
	ls, err := logstore.Open(logstore.Config{Device: st.newDev(&st.data, "ssd.data", o)})
	if err != nil {
		return nil, err
	}
	tree, err := bwtree.New(bwtree.Config{Store: ls, Session: session})
	if err != nil {
		return nil, err
	}
	st.logs = append(st.logs, ls)
	st.trees = append(st.trees, tree)
	return tree, nil
}

func (st *stack) newDC(o buildOpts) tc.DataComponent {
	tree, err := st.newBwTree(o, nil)
	if err != nil {
		st.buildErr = err
		return nil
	}
	c := &dcCounters{}
	st.dcs = append(st.dcs, c)
	return &countedDC{dc: tree, c: c, tr: o.tr}
}

func (st *stack) newEngine(store engine.Store, o buildOpts) (*engine.Engine, error) {
	if o.wrap != nil {
		store = o.wrap(store)
	}
	if o.tr != nil {
		store = newTracedStore(store, o.tr, "store")
	}
	cfg := engine.Config{Store: store}
	if o.obs {
		cfg.Obs = obs.NewRegistry().Tracer("engine")
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	st.engines = append(st.engines, eng)
	st.closers = append(st.closers, eng.Close)
	st.conns, st.store = []kv{eng}, eng
	return eng, nil
}

func (st *stack) newRouter(o buildOpts) error {
	r, err := shard.New(shard.Config{
		Shards: servedShards,
		NewDC:  func(int) tc.DataComponent { return st.newDC(o) },
		NewLog: func(string) ssd.Dev { return st.newDev(&st.log, "ssd.log", o) },
	})
	if err == nil && st.buildErr != nil {
		r.Close()
		err = st.buildErr
	}
	if err != nil {
		return err
	}
	st.router = r
	for slot := 0; slot < servedShards; slot++ {
		st.engines = append(st.engines, r.Engine(slot))
	}
	st.closers = append(st.closers, r.Close)
	st.conns, st.store = []kv{r}, r
	return nil
}

// serve puts a wire.Server on TCP loopback in front of the router and
// dials o.conns clients, one connection each.
func (st *stack) serve(o buildOpts) error {
	srv, err := wire.NewServer(wire.ServerConfig{Backend: newTracedStore(st.router, o.tr, "backend")})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(&countedListener{Listener: l, c: &st.conn}) }()
	st.closers = append(st.closers, func() error {
		srv.Close()
		return <-served
	})
	addr := l.Addr().String()
	st.conns = nil
	for i := 0; i < o.conns; i++ {
		cl, err := wire.NewClient(wire.ClientConfig{
			Dial: func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return &countedConn{Conn: c, c: &st.conn}, nil
			},
			Seed: int64(i + 1), // distinct dedup identities
		})
		if err != nil {
			return err
		}
		st.clients = append(st.clients, cl)
		st.conns = append(st.conns, cl)
		st.closers = append(st.closers, cl.Close)
	}
	return nil
}

// build constructs one stack from the packages' public constructors.
func build(kind stackKind, o buildOpts) (*stack, error) {
	st := &stack{}
	err := st.build(kind, o)
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) build(kind stackKind, o buildOpts) error {
	switch kind {
	case stackServed:
		if err := st.newRouter(o); err != nil {
			return err
		}
		return st.serve(o)
	case stackRungRouter:
		return st.newRouter(o)
	case stackRungDC:
		dc := st.newDC(o)
		st.conns, st.store = []kv{dcStore{dc}}, dcStore{dc}
		return st.buildErr
	case stackRungTC, stackRungEngine:
		dc := st.newDC(o)
		if st.buildErr != nil {
			return st.buildErr
		}
		t, err := tc.New(tc.Config{DC: dc, LogDevice: st.newDev(&st.log, "ssd.log", o)})
		if err != nil {
			return err
		}
		store := engine.WrapTC(t)
		if kind == stackRungEngine {
			_, err = st.newEngine(store, o)
			return err
		}
		st.closers = append(st.closers, store.Close)
		st.conns, st.store = []kv{store}, store
		return nil
	case stackCacheMiss:
		st.session = sim.NewSession(sim.DefaultCosts())
		tree, err := st.newBwTree(o, st.session)
		if err != nil {
			return err
		}
		st.afterLoad = func() error {
			mgr, err := llama.NewManager(llama.Config{
				Owner:        tree,
				Clock:        st.session.Clock(),
				Policy:       llama.PolicyLRU,
				BudgetBytes:  tree.FootprintBytes() / 4,
				RetainDeltas: true,
				FootprintFn:  tree.FootprintBytes,
			})
			if err != nil {
				return err
			}
			st.sweep = mgr.Sweep
			return nil
		}
		_, err = st.newEngine(engine.WrapBwTree(tree), o)
		return err
	case stackMass:
		st.mass = masstree.New(nil)
		_, err := st.newEngine(engine.WrapMassTree(st.mass), o)
		return err
	case stackLSM:
		t, err := lsm.New(lsm.Config{Device: st.newDev(&st.data, "ssd.data", o)})
		if err != nil {
			return err
		}
		st.lsm = t
		_, err = st.newEngine(engine.WrapLSM(t), o)
		return err
	}
	return fmt.Errorf("bench: unknown stack kind %d", kind)
}

// tick advances the sim clock one microsecond; each cache-miss worker calls
// it per op so page last-access times move without a wall clock.
func (st *stack) tick() { st.session.Clock().Advance(1e-6) }

// mediaBytes is what the simulated devices hold: it lives on the Go heap
// but models flash, so memory accounting subtracts it.
func (st *stack) mediaBytes() int64 {
	var n int64
	for _, d := range st.devs {
		n += d.FootprintBytes()
	}
	return n
}

// --- figures read from the decorators and the packages' public Stats ---

// counts is every cumulative counter the report uses, read at one instant.
type counts map[string]float64

// minus returns the growth of each counter since b.
func (a counts) minus(b counts) counts {
	d := counts{}
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

func (st *stack) counts() counts {
	c := counts{
		"data.reads": float64(st.data.reads.Load()), "data.writes": float64(st.data.writes.Load()),
		"data.readBytes": float64(st.data.readBytes.Load()), "data.writeBytes": float64(st.data.writeBytes.Load()),
		"log.writes": float64(st.log.writes.Load()), "log.writeBytes": float64(st.log.writeBytes.Load()),
		"conn.calls": float64(st.conn.reads.Load() + st.conn.writes.Load()), "conn.bytes": float64(st.conn.bytes.Load()),
	}
	for _, d := range st.devs {
		c["dev.busySeconds"] += d.BusySeconds()
	}
	for i, dc := range st.dcs {
		c["dc.gets"] += float64(dc.gets.Load())
		c[fmt.Sprint("dc.calls.", i)] = float64(dc.gets.Load() + dc.writes.Load())
	}
	for _, t := range st.trees {
		c["bwtree.pageLoads"] += float64(t.Stats().PageLoads.Value())
		c["bwtree.consolidations"] += float64(t.Stats().Consolidations.Value())
	}
	for _, l := range st.logs {
		c["logstore.bufferHits"] += float64(l.Stats().BufferHits.Value())
	}
	for _, e := range st.engines {
		c["engine.shed"] += float64(e.Stats().Shed.Value())
		c["engine.admitted"] += float64(e.Stats().Admitted.Value())
	}
	if st.router != nil {
		c["shard.movedRetries"] = float64(st.router.Stats().MovedRetries.Value())
	}
	for _, cl := range st.clients {
		c["client.retries"] += float64(cl.Stats().Retries.Value())
	}
	if st.lsm != nil {
		ls := st.lsm.Stats()
		c["lsm.tableReads"], c["lsm.bloomSkips"] = float64(ls.TableReads.Value()), float64(ls.BloomSkips.Value())
		c["lsm.compactions"] = float64(ls.Compactions.Value())
		c["lsm.gets"], c["lsm.puts"] = float64(ls.Gets.Value()), float64(ls.Puts.Value())
	}
	return c
}

// gauges is the state the report reads once, after the segments.
type gauges struct {
	residentFrac  float64 // bwtree leaf pages whose base is in memory
	waitP99us     float64 // worst engine's admission-wait p99
	queuePeak     float64
	massFootprint float64
	simR          float64
	mediaBytes    float64
}

func (st *stack) gauges() gauges {
	g := gauges{mediaBytes: float64(st.mediaBytes())}
	var pages, resident float64
	for _, t := range st.trees {
		for _, pid := range t.Pages() {
			pages++
			if t.PageResident(pid) {
				resident++
			}
		}
	}
	if pages > 0 {
		g.residentFrac = resident / pages
	}
	for _, e := range st.engines {
		es := e.Stats()
		if es.WaitMicros.Count() > 0 {
			g.waitP99us = math.Max(g.waitP99us, es.WaitMicros.Quantile(0.99))
		}
		g.queuePeak = math.Max(g.queuePeak, float64(es.QueuePeak.Value()))
	}
	if st.mass != nil {
		g.massFootprint = float64(st.mass.FootprintBytes())
	}
	if st.session != nil {
		g.simR = st.session.Tracker().R()
	}
	return g
}

// isConflict reports a TC write-write conflict, in process or as the
// message a wire client gets back.
func isConflict(err error) bool {
	return errors.Is(err, tc.ErrConflict) || strings.Contains(err.Error(), tc.ErrConflict.Error())
}

// resetSim zeroes the sim tracker so R covers only the ops that follow.
func (st *stack) resetSim() {
	if st.session != nil {
		st.session.Tracker().Reset()
	}
}

// paperCosts returns $P and $I/IOPS at the paper's Section 4.1 prices.
func paperCosts() (processor, perIO float64) {
	c := core.PaperCosts()
	return c.Processor, c.IOPSCost / c.IOPS
}

// --- probes: tight loops over one public entry point each ---

// probeFrame times frame.Append + frame.Decode of a 128 B payload.
func probeFrame(n int) (nsPerOp, allocsPerOp float64) {
	payload := make([]byte, 128)
	var buf []byte
	return timeLoop(n, func(int) {
		buf = frame.Append(buf[:0], payload)
		if _, _, err := frame.Decode(buf, frame.MaxBytes); err != nil {
			panic(err)
		}
	})
}

// probeRoute times Map.SlotOfKey on the even 4-shard map.
func probeRoute(n int) float64 {
	m := shard.NewEvenMap(servedShards)
	var key [keyLen]byte
	ns, _ := timeLoop(n, func(i int) {
		putKey(key[:], uint64(i))
		sink += m.SlotOfKey(key[:])
	})
	return ns
}

// probeAcquire times an uncontended limiter Acquire + Release.
func probeAcquire(n int) float64 {
	lim := overload.NewLimiter(overload.Config{Static: true})
	ctx := context.Background()
	ns, _ := timeLoop(n, func(int) {
		tk, err := lim.Acquire(ctx, overload.ClassNormal)
		if err != nil {
			panic(err)
		}
		lim.Release(tk, true)
	})
	return ns
}

// newProbeMass builds a bare MassTree, optionally charging sim units.
func newProbeMass(charged bool) (*masstree.Tree, *sim.Session) {
	if !charged {
		return masstree.New(nil), nil
	}
	s := sim.NewSession(sim.DefaultCosts())
	return masstree.New(s), s
}

// newProbeBTree builds the buffer-pool B-tree with its default 1024-page pool.
func newProbeBTree() (*btree.Tree, error) {
	return btree.New(btree.Config{Device: ssd.New(ssd.SamsungSSD), PoolPages: 1024})
}

// massKV and btreeKV drive a bare tree through the kv surface.
type massKV struct{ t *masstree.Tree }

func (s massKV) Get(_ context.Context, key []byte) ([]byte, bool, error) {
	v, ok := s.t.Get(key)
	return v, ok, nil
}
func (s massKV) Put(_ context.Context, key, val []byte) error { s.t.Put(key, val); return nil }
func (s massKV) Scan(_ context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	s.t.Scan(start, limit, fn)
	return nil
}

type btreeKV struct{ t *btree.Tree }

func (s btreeKV) Get(_ context.Context, key []byte) ([]byte, bool, error) { return s.t.Get(key) }
func (s btreeKV) Put(_ context.Context, key, val []byte) error            { return s.t.Insert(key, val) }
func (s btreeKV) Scan(_ context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	return s.t.Scan(start, limit, fn)
}

// sink keeps probe results alive.
var sink int
