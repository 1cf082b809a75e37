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
	// MaxInFlight bounds per-connection pipelining: at most this many
	// requests execute concurrently per connection; beyond it the read
	// loop stops, pushing backpressure into the client's send path
	// (default 32).
	MaxInFlight int
	// WriteStallTimeout evicts a connection whose client has stopped
	// draining responses: a single response write blocked past this bound
	// closes the connection (default 2s; <0 disables).
	WriteStallTimeout time.Duration
	// ReadIdleTimeout closes a connection that has sent nothing for this
	// long with nothing in flight — the hung half of a half-closed peer
	// (default 0 = never).
	ReadIdleTimeout time.Duration
	// DedupWindow is the per-client count of acked writes remembered for
	// retry deduplication (default 1024).
	DedupWindow int
	// MaxDedupClients bounds the number of client dedup windows held;
	// the least-recently-active window is evicted beyond it (default 1024).
	MaxDedupClients int
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
	if c.MaxDedupClients <= 0 {
		c.MaxDedupClients = 1024
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
		dedup:     newDedupTable(cfg.DedupWindow, cfg.MaxDedupClients),
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
	sc := &srvConn{
		s:    s,
		c:    c,
		sem:  make(chan struct{}, s.cfg.MaxInFlight),
		out:  make(chan response, s.cfg.MaxInFlight+2),
		done: make(chan struct{}),
	}
	sc.infCond.L = &sc.infMu
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	s.stats.Accepted.Inc()
	s.stats.CurConns.Add(1)
	s.wg.Add(2)
	go sc.reader()
	go sc.writer()
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

// srvConn is one served connection: a reader that decodes and dispatches
// under the in-flight window, a writer that batches responses into one
// write with stall eviction, and a handler goroutine per in-flight request.
type srvConn struct {
	s *Server
	c net.Conn

	sem chan struct{} // in-flight window slots
	out chan response // responses waiting for the writer

	// infMu guards the in-flight request count and the drain gate. A plain
	// WaitGroup cannot express "wait for zero while arrivals may still
	// race in": the gate and the count must flip under one lock.
	infMu   sync.Mutex
	infCond sync.Cond
	infN    int
	noMore  bool // set by gracefulClose: no new requests may start

	closeOnce sync.Once
	done      chan struct{}
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

// close hard-closes the connection and deregisters it.
func (sc *srvConn) close() {
	sc.closeOnce.Do(func() {
		close(sc.done)
		sc.c.Close()
		sc.s.mu.Lock()
		delete(sc.s.conns, sc)
		sc.s.mu.Unlock()
		sc.s.stats.CurConns.Add(-1)
	})
}

// gracefulClose gates out new requests, waits for in-flight ones to
// finish and queue their responses, then asks the writer to
// flush-and-close.
func (sc *srvConn) gracefulClose() {
	sc.infMu.Lock()
	sc.noMore = true
	for sc.infN > 0 {
		sc.infCond.Wait()
	}
	sc.infMu.Unlock()
	sc.trySend(response{flush: true}) // writer closes after writing everything before it
}

// response is one reply waiting for the writer, which encodes it straight
// into its batch. An OK Get's body is found(1) then val; every other
// response's body is carried as is.
type response struct {
	seq   uint64
	st    Status
	get   bool // an OK Get: found precedes val on the wire
	found bool
	body  []byte
	flush bool // the drain sentinel: close once everything before it is written
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

// trySend queues a response (or the flush sentinel) without ever
// blocking past a hard close.
func (sc *srvConn) trySend(r response) {
	select {
	case sc.out <- r:
	case <-sc.done:
	}
}

// respond queues one response.
func (sc *srvConn) respond(seq uint64, st Status, body []byte) {
	sc.trySend(response{seq: seq, st: st, body: body})
}

// reader decodes requests and dispatches them under the in-flight window.
// Frames come through one buffered reader, so a read syscall takes in
// every frame the client has sent so far; frame.Read still hands each
// request a freshly allocated payload, which its handler keeps.
func (sc *srvConn) reader() {
	defer sc.s.wg.Done()
	br := bufio.NewReaderSize(sc.c, readBufBytes)
	for {
		if idle := sc.s.cfg.ReadIdleTimeout; idle > 0 {
			sc.c.SetReadDeadline(time.Now().Add(idle))
		}
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
			// EOF, closed, idle timeout, or desync: finish in-flight work,
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
			sc.respond(req.Seq, StatusOK, nil)
			continue
		}
		if sc.s.draining.Load() {
			sc.s.stats.DrainRejects.Inc()
			sc.respond(req.Seq, StatusDraining, nil)
			continue
		}
		// Count the request as in flight before waiting for a window slot,
		// so a drain that starts while we queue still finishes it. The
		// drain gate refusing here is the race-free version of the flag
		// check above.
		if !sc.beginRequest() {
			sc.s.stats.DrainRejects.Inc()
			sc.respond(req.Seq, StatusDraining, nil)
			continue
		}
		select {
		case sc.sem <- struct{}{}:
		case <-sc.done:
			sc.endRequest()
			return
		}
		sc.s.stats.InFlight.Add(1)
		sc.s.stats.InFlightPeak.Max(sc.s.stats.InFlight.Value())
		// Requests own their key/val bytes: frame.Read allocates each
		// payload afresh, and the handler outlives this loop iteration.
		sc.s.wg.Add(1)
		go sc.handle(req)
	}
}

// writeBatchBytes caps one batched response write: the writer stops
// taking queued responses once its batch holds this much, so a window of
// large scan responses goes out in several writes rather than pinning
// megabytes per connection. A single larger response is written alone.
const writeBatchBytes = 64 << 10

// writer serializes responses with slow-client eviction. It blocks for
// one response, then takes every response already queued behind it
// without waiting, and sends the batch with one deadline and one Write:
// at depth 1 that is one frame and no added latency, under pipelining the
// responses share the syscall.
func (sc *srvConn) writer() {
	defer sc.s.wg.Done()
	var buf []byte
	for {
		var r response
		select {
		case r = <-sc.out:
		case <-sc.done:
			return
		}
		batch, n, flush := sc.batch(buf[:0], r)
		buf = batch
		if n > 0 {
			if stall := sc.s.cfg.WriteStallTimeout; stall > 0 {
				sc.c.SetWriteDeadline(time.Now().Add(stall))
			}
			if _, err := sc.c.Write(buf); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					sc.s.stats.Evicted.Inc()
				}
				sc.close()
				return
			}
			sc.s.stats.Responses.Add(int64(n))
		}
		if cap(buf) > writeBatchBytes {
			buf = nil // a large scan's buffer is not kept
		}
		if flush {
			// Everything queued before the sentinel has been written; the
			// graceful close completes here.
			sc.close()
			return
		}
	}
}

// batch frames r and every response queued behind it into buf, up to the
// byte cap or the flush sentinel, and returns the batch, the number of
// frames in it, and whether the sentinel was reached.
func (sc *srvConn) batch(buf []byte, r response) ([]byte, int, bool) {
	n := 0
	for !r.flush {
		buf = appendResponseFrame(buf, r)
		n++
		if len(buf) >= writeBatchBytes {
			return buf, n, false
		}
		select {
		case r = <-sc.out:
		default:
			return buf, n, false
		}
	}
	return buf, n, true
}

// handle executes one request and queues its response.
func (sc *srvConn) handle(req request) {
	defer sc.s.wg.Done()
	defer func() {
		// Leave the gauge before freeing the slot: the reader takes a
		// freed slot and counts itself in at once, so the other order
		// lets InFlight read one past the window.
		sc.s.stats.InFlight.Add(-1)
		<-sc.sem
		sc.endRequest()
	}()

	// The request's priority class rides the context into the engine's
	// admission limiter: the wire is how remote tenants reach the
	// brownout ladder.
	ctx := overload.WithClass(sc.s.ctx, req.Class)
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
			sc.trySend(response{seq: req.Seq, get: true, found: ok, body: v})
			return
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
	sc.respond(req.Seq, st, body)
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
		case <-sc.done:
			st, _ := statusOf(context.Canceled)
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

// dedupTable holds per-client windows of acked writes.
type dedupTable struct {
	mu         sync.Mutex
	clients    map[uint64]*clientWindow
	window     int
	maxClients int
	clock      int64
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

func newDedupTable(window, maxClients int) *dedupTable {
	return &dedupTable{
		clients:    make(map[uint64]*clientWindow),
		window:     window,
		maxClients: maxClients,
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
	for len(d.clients) > d.maxClients {
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
