package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/overload"
	"costperf/internal/shard"
	"costperf/internal/wire/frame"
)

// Backend is what the server fronts: the engine front-end satisfies it
// directly, so every wire request inherits admission control, circuit
// breaking, and deadline propagation. The server reads the value a Get
// returns until its response is written and never modifies it, so a
// backend must not reuse those bytes.
type Backend interface {
	Get(ctx context.Context, key []byte) ([]byte, bool, error)
	Put(ctx context.Context, key, val []byte) error
	Delete(ctx context.Context, key []byte) error
	Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error
}

// ShardMapper is the optional Backend capability a sharded backend
// (shard.Router) exposes: the current epoch-numbered placement map. A
// server whose backend has it attaches the full map to every StatusMoved
// response, so one MOVED round trip teaches the client the new placement
// — epoch, shard count, and range boundaries — even mid-resize.
type ShardMapper interface {
	ShardMap() *shard.Map
}

// Adviser is the optional Backend capability an overload-aware backend
// (engine.Engine, shard.Router) exposes: the advisory backoff a shed
// request should wait before retrying, derived from the admission
// limiter's live backlog. A server whose backend has it attaches the
// hint to every StatusOverload response, closing the control loop that
// turns a thundering-herd retry into a paced one.
type Adviser interface {
	RetryAfterHint() time.Duration
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// Backend serves the requests (required).
	Backend Backend
	// MaxInFlight bounds per-connection pipelining: a connection runs at
	// most this many workers, so at most this many of its requests execute
	// at once; beyond it the read loop stops, pushing backpressure into
	// the client's send path (default 32).
	MaxInFlight int
	// WriteStallTimeout evicts a connection whose client has stopped
	// draining responses: a single response write blocked past this bound
	// closes the connection (default 2s; <0 disables).
	WriteStallTimeout time.Duration
	// DedupWindow is the per-client count of acked writes remembered for
	// retry deduplication (default 1024).
	DedupWindow int
	// MaxScanBytes bounds the encoded size of one scan response; a scan
	// that would exceed it is truncated and flagged (default 256 KiB).
	MaxScanBytes int
}

func (c *ServerConfig) setDefaults() error {
	if c.Backend == nil {
		return errors.New("wire: nil backend")
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.WriteStallTimeout == 0 {
		c.WriteStallTimeout = 2 * time.Second
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 1024
	}
	if c.MaxScanBytes <= 0 {
		c.MaxScanBytes = 256 << 10
	}
	return nil
}

// ServerStats meters the server. All fields are safe for concurrent use.
type ServerStats struct {
	// Accepted counts connections taken on; CurConns is the live gauge.
	Accepted metrics.Counter
	CurConns metrics.Gauge
	// Evicted counts connections closed because a response write stalled
	// past WriteStallTimeout (slow or wedged clients).
	Evicted metrics.Counter
	// Requests counts decoded requests; Responses counts responses
	// written to the wire.
	Requests  metrics.Counter
	Responses metrics.Counter
	// DedupHits counts retried writes answered from the dedup window
	// without re-applying.
	DedupHits metrics.Counter
	// BadFrames counts undecodable frames and request payloads.
	BadFrames metrics.Counter
	// DrainRejects counts requests refused with StatusDraining.
	DrainRejects metrics.Counter
	// Moves counts StatusMoved responses (shard cutovers that escaped the
	// router's transparent retry and crossed the wire).
	Moves metrics.Counter
	// Sheds counts StatusOverload responses — load the admission limiter
	// refused that crossed the wire (each carries a retry-after hint when
	// the backend advises one).
	Sheds metrics.Counter
	// InFlight gauges currently executing requests; InFlightPeak is its
	// high-water mark.
	InFlight     metrics.Gauge
	InFlightPeak metrics.Gauge
}

// String renders the counters for experiment logs.
func (s *ServerStats) String() string {
	return fmt.Sprintf("accepted=%d cur=%d evicted=%d req=%d resp=%d dedup=%d bad=%d drained=%d moved=%d peak=%d",
		s.Accepted.Value(), s.CurConns.Value(), s.Evicted.Value(), s.Requests.Value(),
		s.Responses.Value(), s.DedupHits.Value(), s.BadFrames.Value(),
		s.DrainRejects.Value(), s.Moves.Value(), s.InFlightPeak.Value())
}

// Server fronts a Backend over framed connections. All methods are safe
// for concurrent use.
type Server struct {
	cfg   ServerConfig
	stats ServerStats

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	conns     map[*srvConn]struct{}
	listeners map[net.Listener]struct{}

	draining atomic.Bool
	closed   atomic.Bool
	wg       sync.WaitGroup

	dedup   *dedupTable
	mapper  ShardMapper // non-nil when the backend is sharded
	adviser Adviser     // non-nil when the backend advises retry-after
}

// NewServer creates a server over the given backend.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	mapper, _ := cfg.Backend.(ShardMapper)
	adviser, _ := cfg.Backend.(Adviser)
	return &Server{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		conns:     make(map[*srvConn]struct{}),
		listeners: make(map[net.Listener]struct{}),
		dedup:     newDedupTable(cfg.DedupWindow),
		mapper:    mapper,
		adviser:   adviser,
	}, nil
}

// Stats returns the server's counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// Draining reports whether the server has begun draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve accepts connections from l until the listener fails or the
// server closes/drains. It returns nil on clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	if s.closed.Load() || s.draining.Load() {
		l.Close()
		return ErrDraining
	}
	s.mu.Lock()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			if s.closed.Load() || s.draining.Load() {
				return nil
			}
			return err
		}
		s.ServeConn(c)
	}
}

// ServeConn adopts one connection and serves it asynchronously. It is the
// entry point tests and in-process transports use directly.
func (s *Server) ServeConn(c net.Conn) {
	if s.closed.Load() || s.draining.Load() {
		c.Close()
		return
	}
	sc := &srvConn{s: s, c: c, reqs: make(chan request)}
	sc.ctx, sc.cancel = context.WithCancel(s.ctx)
	for cl := range sc.classCtx {
		sc.classCtx[cl] = overload.WithClass(sc.ctx, overload.Class(cl))
	}
	sc.infCond.L = &sc.infMu
	sc.space.L = &sc.qmu
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		sc.cancel()
		c.Close()
		return
	}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	s.stats.Accepted.Inc()
	s.stats.CurConns.Add(1)
	s.wg.Add(1)
	go sc.reader()
}

// Drain gracefully shuts the server down: stop accepting, refuse new
// requests with StatusDraining, finish and acknowledge everything already
// in flight, flush, then close every connection. It returns nil when all
// connections closed cleanly, or the context error after force-closing
// what remained.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	for _, sc := range conns {
		go sc.gracefulClose()
	}
	// Wait for every connection to deregister.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.Close()
			return fmt.Errorf("wire: drain timed out with %d conns: %w", n, ctx.Err())
		case <-tick.C:
		}
	}
}

// Close hard-closes the server: cancels in-flight request contexts,
// closes every connection and listener, and waits for all goroutines to
// exit — after Close returns, the server has leaked nothing.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		s.wg.Wait()
		return nil
	}
	s.cancel()
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	// Copy out before closing: srvConn.close deregisters under s.mu.
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.close()
	}
	s.wg.Wait()
	return nil
}

// srvConn is one served connection: a reader that decodes requests and
// hands each to a worker, and a set of at most MaxInFlight workers that
// execute requests and write the responses themselves, through one send
// queue with slow-client eviction.
type srvConn struct {
	s *Server
	c net.Conn

	// ctx is cancelled when the connection closes, so an evicted
	// connection's in-flight work stops at its next context check.
	// classCtx holds its child for each wire class, built once, so a
	// request's deadline is its only per-request context.
	ctx      context.Context
	cancel   context.CancelFunc
	classCtx [overload.ClassHigh + 1]context.Context

	// reqs hands a request to an idle worker: it is unbuffered, so a send
	// succeeds only while a worker is parked on it. workers counts the
	// workers started; only the reader starts them.
	reqs    chan request
	workers atomic.Int32

	// infMu guards the in-flight request count and the drain gate. A plain
	// WaitGroup cannot express "wait for zero while arrivals may still
	// race in": the gate and the count must flip under one lock.
	infMu   sync.Mutex
	infCond sync.Cond
	infN    int
	noMore  bool // set by gracefulClose: no new requests may start

	// qmu guards the send queue: response frames encoded by workers and
	// written by whichever of them is the flusher. ends holds each queued
	// frame's end offset in queue, and spare is the flusher's other
	// buffer. space wakes a worker waiting for the queue to drop below its
	// bound. closing asks the flusher to close the connection after its
	// last write; dead drops frames once the connection has closed.
	qmu      sync.Mutex
	space    sync.Cond
	queue    []byte
	spare    []byte
	ends     []int
	flushing bool
	closing  bool
	dead     bool

	closeOnce sync.Once
}

// beginRequest counts a request in flight; false means the connection is
// past its drain gate and the request must be refused.
func (sc *srvConn) beginRequest() bool {
	sc.infMu.Lock()
	defer sc.infMu.Unlock()
	if sc.noMore {
		return false
	}
	sc.infN++
	return true
}

// endRequest retires one in-flight request.
func (sc *srvConn) endRequest() {
	sc.infMu.Lock()
	sc.infN--
	if sc.infN == 0 && sc.noMore {
		sc.infCond.Broadcast()
	}
	sc.infMu.Unlock()
}

// close hard-closes the connection, cancels its requests' contexts and
// deregisters it.
func (sc *srvConn) close() {
	sc.closeOnce.Do(func() {
		sc.cancel()
		sc.qmu.Lock()
		sc.dead = true
		sc.space.Broadcast()
		sc.qmu.Unlock()
		sc.c.Close()
		sc.s.mu.Lock()
		delete(sc.s.conns, sc)
		sc.s.mu.Unlock()
		sc.s.stats.CurConns.Add(-1)
	})
}

// gracefulClose gates out new requests and waits for in-flight ones to
// queue their responses. It then closes at once if no write is running,
// and otherwise leaves the close to the flusher, after its last write.
func (sc *srvConn) gracefulClose() {
	sc.infMu.Lock()
	sc.noMore = true
	for sc.infN > 0 {
		sc.infCond.Wait()
	}
	sc.infMu.Unlock()
	sc.qmu.Lock()
	if sc.flushing {
		sc.closing = true
		sc.qmu.Unlock()
		return
	}
	sc.qmu.Unlock()
	sc.close()
}

// response is one reply, encoded straight into the send queue. An OK
// Get's body is found(1) then val; every other response's body is
// carried as is.
type response struct {
	seq   uint64
	st    Status
	get   bool // an OK Get: found precedes val on the wire
	found bool
	body  []byte
}

// appendResponseFrame appends r to dst as one whole frame.
func appendResponseFrame(dst []byte, r response) []byte {
	b, start := beginFrame(dst)
	b = encodeResponse(b, r.seq, r.st, nil)
	if r.get {
		found := byte(0)
		if r.found {
			found = 1
		}
		b = append(b, found)
	}
	b = append(b, r.body...)
	sealFrame(b, start)
	return b
}

// push queues r's frame. While MaxInFlight+2 frames are already unwritten
// it waits, so a client that stops reading holds workers rather than
// growing the queue. It reports whether the caller became the flusher and
// must call flush; a frame for a closed connection is dropped.
func (sc *srvConn) push(r response) bool {
	sc.qmu.Lock()
	defer sc.qmu.Unlock()
	for len(sc.ends) >= sc.s.cfg.MaxInFlight+2 && !sc.dead {
		sc.space.Wait()
	}
	if sc.dead {
		return false
	}
	sc.queue = appendResponseFrame(sc.queue, r)
	sc.ends = append(sc.ends, len(sc.queue))
	if sc.flushing {
		return false
	}
	sc.flushing = true
	return true
}

// writeBatchBytes caps one response write: the flusher stops taking
// queued frames once its write holds this much, so a window of large scan
// responses goes out in several writes rather than pinning megabytes per
// connection. A single larger frame is written alone.
const writeBatchBytes = 64 << 10

// flush writes the send queue until it is empty; only the flusher calls
// it. Each write takes every frame queued so far, up to the byte cap, so
// at depth 1 a response costs one write and under pipelining responses
// share it. A write blocked past WriteStallTimeout evicts the client, and
// any failed write closes the connection.
func (sc *srvConn) flush() {
	sc.qmu.Lock()
	for len(sc.ends) > 0 {
		n := 1
		for n < len(sc.ends) && sc.ends[n-1] < writeBatchBytes {
			n++
		}
		cut := sc.ends[n-1]
		buf := sc.queue
		sc.queue = append(sc.spare[:0], buf[cut:]...)
		sc.ends = sc.ends[:copy(sc.ends, sc.ends[n:])]
		for i := range sc.ends {
			sc.ends[i] -= cut
		}
		sc.space.Broadcast()
		sc.qmu.Unlock()
		if stall := sc.s.cfg.WriteStallTimeout; stall > 0 {
			sc.c.SetWriteDeadline(time.Now().Add(stall))
		}
		if _, err := sc.c.Write(buf[:cut]); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				sc.s.stats.Evicted.Inc()
			}
			sc.close()
			return
		}
		sc.s.stats.Responses.Add(int64(n))
		sc.qmu.Lock()
		// Keep the buffer for a later write unless a large scan grew it.
		sc.spare = nil
		if cap(buf) <= writeBatchBytes {
			sc.spare = buf[:0]
		}
	}
	sc.flushing = false
	closing := sc.closing
	sc.qmu.Unlock()
	if closing {
		sc.close()
	}
}

// reply queues a response the reader makes itself: a ping's answer or a
// drain refusal. The reader never writes to the socket, so if no write is
// running the queue is flushed off the reader.
func (sc *srvConn) reply(seq uint64, st Status) {
	if sc.push(response{seq: seq, st: st}) {
		sc.s.wg.Add(1)
		go func() {
			defer sc.s.wg.Done()
			sc.flush()
		}()
	}
}

// reader decodes requests and hands them to workers. Frames come through
// one buffered reader, so a read syscall takes in every frame the client
// has sent so far; frame.Read still hands each request a freshly
// allocated payload, which its worker keeps.
func (sc *srvConn) reader() {
	defer sc.s.wg.Done()
	br := bufio.NewReaderSize(sc.c, readBufBytes)
	for {
		payload, err := frame.Read(br, frame.MaxBytes)
		if err != nil {
			if errors.Is(err, frame.ErrCRC) {
				// The stream is still framed; the damaged request is simply
				// lost and the client's retry machinery recovers it.
				sc.s.stats.BadFrames.Inc()
				continue
			}
			if errors.Is(err, fault.ErrCorrupt) {
				sc.s.stats.BadFrames.Inc() // desynced stream: kill the conn
			}
			// EOF, closed, or desync: finish in-flight work,
			// flush what can still be flushed, and close.
			go sc.gracefulClose()
			return
		}
		req, err := decodeRequest(payload)
		if err != nil {
			sc.s.stats.BadFrames.Inc()
			continue // no decodable seq to answer
		}
		sc.s.stats.Requests.Inc()
		if req.Op == opPing {
			sc.reply(req.Seq, StatusOK)
			continue
		}
		if sc.s.draining.Load() {
			sc.s.stats.DrainRejects.Inc()
			sc.reply(req.Seq, StatusDraining)
			continue
		}
		// Count the request as in flight before waiting for a worker, so
		// a drain that starts while we wait still finishes it. The drain
		// gate refusing here is the race-free version of the flag check
		// above.
		if !sc.beginRequest() {
			sc.s.stats.DrainRejects.Inc()
			sc.reply(req.Seq, StatusDraining)
			continue
		}
		if !sc.dispatch(req) {
			sc.endRequest()
			return
		}
	}
}

// dispatch hands req to an idle worker, or starts a worker while fewer
// than MaxInFlight exist, or else waits for one to come free: the worker
// count is the in-flight window, and the reader waiting is what pushes
// backpressure into the client's send path. false means the connection
// closed first.
func (sc *srvConn) dispatch(req request) bool {
	select {
	case sc.reqs <- req:
		return true
	default:
	}
	if int(sc.workers.Load()) < sc.s.cfg.MaxInFlight {
		sc.workers.Add(1)
		sc.s.wg.Add(1)
		go sc.worker(req)
		return true
	}
	select {
	case sc.reqs <- req:
		return true
	case <-sc.ctx.Done():
		return false
	}
}

// worker serves requests until the connection closes: the one it was
// started with, then each one the reader hands it while it is parked.
// Requests own their key/val bytes: frame.Read allocates each payload
// afresh.
func (sc *srvConn) worker(req request) {
	defer sc.s.wg.Done()
	for {
		sc.handle(req)
		select {
		case req = <-sc.reqs:
		case <-sc.ctx.Done():
			return
		}
	}
}

// handle executes one request, queues its response and retires it, then
// writes the queue if no write was running. Retiring before the write
// keeps a drain from waiting on a client that has stopped reading.
func (sc *srvConn) handle(req request) {
	sc.s.stats.InFlight.Add(1)
	sc.s.stats.InFlightPeak.Max(sc.s.stats.InFlight.Value())
	flush := sc.push(sc.execute(req))
	sc.s.stats.InFlight.Add(-1)
	sc.endRequest()
	if flush {
		sc.flush()
	}
}

// execute runs one request against the backend and returns its response.
func (sc *srvConn) execute(req request) response {
	// The request's priority class rides the context into the engine's
	// admission limiter: the wire is how remote tenants reach the
	// brownout ladder.
	ctx := sc.classCtx[req.Class]
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}

	var st Status
	var msg string
	var body []byte
	switch req.Op {
	case opGet:
		v, ok, err := sc.s.cfg.Backend.Get(ctx, req.Key)
		if st, msg = statusOf(err); st == StatusOK {
			return response{seq: req.Seq, get: true, found: ok, body: v}
		}
	case opPut, opDelete:
		st, msg = sc.write(ctx, req)
	case opScan:
		body, st, msg = sc.scan(ctx, req)
	default:
		st = StatusBadRequest
	}
	if msg != "" {
		body = []byte(msg)
	}
	if st == StatusMoved {
		sc.s.stats.Moves.Inc()
		if sc.s.mapper != nil {
			body = encodeMovedBody(sc.s.mapper.ShardMap())
		}
	}
	if st == StatusOverload {
		sc.s.stats.Sheds.Inc()
		if sc.s.adviser != nil {
			body = encodeOverloadBody(sc.s.adviser.RetryAfterHint())
		}
	}
	return response{seq: req.Seq, st: st, body: body}
}

// write applies a Put/Delete through the dedup window: a retry of an
// acked write is answered from the window without touching the backend.
func (sc *srvConn) write(ctx context.Context, req request) (Status, string) {
	if req.ClientID == 0 {
		return sc.apply(ctx, req)
	}
	for {
		e, dup := sc.s.dedup.begin(req.ClientID, req.Seq)
		if !dup {
			st, msg := sc.apply(ctx, req)
			sc.s.dedup.settle(req.ClientID, req.Seq, e, st == StatusOK)
			return st, msg
		}
		// A twin of this request is in flight or already acked: wait for
		// its verdict rather than double-applying.
		select {
		case <-e.settled:
			if e.ok {
				sc.s.stats.DedupHits.Inc()
				return StatusOK, ""
			}
			// The twin failed and was forgotten; this retry re-executes.
			continue
		case <-ctx.Done():
			st, _ := statusOf(ctx.Err())
			return st, ""
		}
	}
}

func (sc *srvConn) apply(ctx context.Context, req request) (Status, string) {
	var err error
	if req.Op == opPut {
		err = sc.s.cfg.Backend.Put(ctx, req.Key, req.Val)
	} else {
		err = sc.s.cfg.Backend.Delete(ctx, req.Key)
	}
	return statusOf(err)
}

// scan runs a bounded scan and encodes its pairs, truncating at the
// response size bound.
func (sc *srvConn) scan(ctx context.Context, req request) ([]byte, Status, string) {
	var pairs []scanPair
	truncated := false
	bytes := 0
	err := sc.s.cfg.Backend.Scan(ctx, req.Key, req.Limit, func(k, v []byte) bool {
		if bytes += 8 + len(k) + len(v); bytes > sc.s.cfg.MaxScanBytes {
			truncated = true
			return false
		}
		pairs = append(pairs, scanPair{
			K: append([]byte(nil), k...),
			V: append([]byte(nil), v...),
		})
		return true
	})
	st, msg := statusOf(err)
	if st != StatusOK {
		return nil, st, msg
	}
	return encodeScanBody(pairs, truncated), StatusOK, ""
}

// maxDedupClients bounds the number of client dedup windows held; the
// least-recently-active window is evicted beyond it.
const maxDedupClients = 1024

// dedupTable holds per-client windows of acked writes.
type dedupTable struct {
	mu      sync.Mutex
	clients map[uint64]*clientWindow
	window  int
	clock   int64
}

type clientWindow struct {
	touch   int64
	entries map[uint64]*dedupEntry
	ring    []uint64 // settled-OK seqs in ack order, for eviction
}

type dedupEntry struct {
	settled chan struct{}
	ok      bool
}

func newDedupTable(window int) *dedupTable {
	return &dedupTable{
		clients: make(map[uint64]*clientWindow),
		window:  window,
	}
}

// begin registers seq for client. dup=true returns the existing entry (in
// flight or acked); dup=false hands the caller a fresh pending entry it
// must settle.
func (d *dedupTable) begin(client, seq uint64) (*dedupEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock++
	w := d.clients[client]
	if w == nil {
		w = &clientWindow{entries: make(map[uint64]*dedupEntry)}
		d.clients[client] = w
		d.evictClientsLocked()
	}
	w.touch = d.clock
	if e, ok := w.entries[seq]; ok {
		return e, true
	}
	e := &dedupEntry{settled: make(chan struct{})}
	w.entries[seq] = e
	return e, false
}

// settle resolves a pending entry: acked writes stay in the window (so
// retries dedup), failures are forgotten (so retries re-execute).
func (d *dedupTable) settle(client, seq uint64, e *dedupEntry, ok bool) {
	d.mu.Lock()
	w := d.clients[client]
	if w != nil {
		if ok {
			w.ring = append(w.ring, seq)
			for len(w.ring) > d.window {
				delete(w.entries, w.ring[0])
				w.ring = w.ring[1:]
			}
		} else {
			delete(w.entries, seq)
		}
	}
	e.ok = ok
	d.mu.Unlock()
	close(e.settled)
}

// evictClientsLocked drops the least-recently-active client window when
// over budget. Caller holds d.mu.
func (d *dedupTable) evictClientsLocked() {
	for len(d.clients) > maxDedupClients {
		var oldest uint64
		var oldestTouch int64 = 1<<63 - 1
		for id, w := range d.clients {
			if w.touch < oldestTouch {
				oldest, oldestTouch = id, w.touch
			}
		}
		delete(d.clients, oldest)
	}
}
