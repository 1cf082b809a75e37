package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/engine"
	"costperf/internal/wire/frame"
)

// memBackend is a minimal in-memory Backend with fault hooks and apply
// counters, standing in for the engine front-end in unit tests.
type memBackend struct {
	mu      sync.Mutex
	data    map[string][]byte
	applies atomic.Int64
	gets    atomic.Int64

	// failNext errors the next n operations with err.
	failN   atomic.Int64
	failErr error
	// getDelay sleeps Gets, for hedging/drain tests.
	getDelay time.Duration
}

func newMemBackend() *memBackend {
	return &memBackend{data: make(map[string][]byte)}
}

func (m *memBackend) failNext(n int, err error) {
	m.failErr = err
	m.failN.Store(int64(n))
}

func (m *memBackend) hookErr() error {
	if m.failN.Load() > 0 && m.failN.Add(-1) >= 0 {
		return m.failErr
	}
	return nil
}

func (m *memBackend) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	m.gets.Add(1)
	if err := m.hookErr(); err != nil {
		return nil, false, err
	}
	if m.getDelay > 0 {
		select {
		case <-time.After(m.getDelay):
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.data[string(key)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

func (m *memBackend) Put(ctx context.Context, key, val []byte) error {
	if err := m.hookErr(); err != nil {
		return err
	}
	m.applies.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[string(key)] = append([]byte(nil), val...)
	return nil
}

func (m *memBackend) Delete(ctx context.Context, key []byte) error {
	if err := m.hookErr(); err != nil {
		return err
	}
	m.applies.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.data, string(key))
	return nil
}

func (m *memBackend) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	if err := m.hookErr(); err != nil {
		return err
	}
	m.mu.Lock()
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		if k >= string(start) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	snap := make([]scanPair, 0, len(keys))
	for _, k := range keys {
		snap = append(snap, scanPair{K: []byte(k), V: append([]byte(nil), m.data[k]...)})
	}
	m.mu.Unlock()
	for i, p := range snap {
		if limit > 0 && i >= limit {
			break
		}
		if !fn(p.K, p.V) {
			break
		}
	}
	return nil
}

// pipeServer wires a client straight into a server via net.Pipe, no TCP.
func pipeServer(t *testing.T, srv *Server, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Dial = func() (net.Conn, error) {
		a, b := net.Pipe()
		srv.ServeConn(b)
		return a, nil
	}
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *memBackend) {
	t.Helper()
	mb := newMemBackend()
	if cfg.Backend == nil {
		cfg.Backend = mb
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, mb
}

func TestBasicOpsOverTCP(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(l)
	addr := l.Addr().String()

	cl, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Seed: 42,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	ctx := context.Background()
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if err := cl.Put(ctx, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	v, ok, err := cl.Get(ctx, []byte("k07"))
	if err != nil || !ok || !bytes.Equal(v, []byte("v7")) {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, ok, err := cl.Get(ctx, []byte("nope")); err != nil || ok {
		t.Fatalf("get miss: %v %v", ok, err)
	}
	if err := cl.Delete(ctx, []byte("k07")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, ok, _ := cl.Get(ctx, []byte("k07")); ok {
		t.Fatal("deleted key still present")
	}
	var got []string
	if err := cl.Scan(ctx, []byte("k10"), 5, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	want := []string{"k10", "k11", "k12", "k13", "k14"}
	if len(got) != len(want) {
		t.Fatalf("scan got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan got %v want %v", got, want)
		}
	}
	if srv.Stats().Requests.Value() == 0 || srv.Stats().Responses.Value() == 0 {
		t.Fatalf("stats not counting: %v", srv.Stats())
	}
}

// TestDedupExactlyOnce drives the server with raw frames: the same Put
// (client ID, seq) sent twice must apply once and ack twice.
func TestDedupExactlyOnce(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	a, b := net.Pipe()
	defer a.Close()
	srv.ServeConn(b)

	req := request{Op: opPut, ClientID: 7, Seq: 1, Key: []byte("k"), Val: []byte("v")}
	payload := encodeRequest(nil, req)
	for i := 0; i < 2; i++ {
		if err := frame.Write(a, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		resp, err := frame.Read(a, frame.MaxBytes)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		seq, st, _, err := decodeResponse(resp)
		if err != nil || seq != 1 || st != StatusOK {
			t.Fatalf("resp %d: seq=%d st=%v err=%v", i, seq, st, err)
		}
	}
	if n := mb.applies.Load(); n != 1 {
		t.Fatalf("applied %d times, want exactly once", n)
	}
	if n := srv.Stats().DedupHits.Value(); n != 1 {
		t.Fatalf("dedup hits = %d, want 1", n)
	}

	// A failed write must NOT be cached: a retry re-executes it.
	mb.failNext(1, errors.New("transient disk burp"))
	req2 := request{Op: opPut, ClientID: 7, Seq: 2, Key: []byte("k2"), Val: []byte("v2")}
	p2 := encodeRequest(nil, req2)
	for i := 0; i < 2; i++ {
		if err := frame.Write(a, p2); err != nil {
			t.Fatalf("write2 %d: %v", i, err)
		}
		resp, err := frame.Read(a, frame.MaxBytes)
		if err != nil {
			t.Fatalf("read2 %d: %v", i, err)
		}
		_, st, _, _ := decodeResponse(resp)
		if i == 0 && st == StatusOK {
			t.Fatal("first attempt should have failed")
		}
		if i == 1 && st != StatusOK {
			t.Fatalf("retry after failure: st=%v", st)
		}
	}
	if v := mb.data["k2"]; !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("retry did not re-execute: %q", v)
	}
}

// TestStatusTaxonomy pins that typed engine errors cross the wire and come
// back as the same sentinels, and that overload is retried.
func TestStatusTaxonomy(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	cl := pipeServer(t, srv, ClientConfig{Seed: 7, RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond})
	ctx := context.Background()

	// Overload: shed twice, then admitted — the client retries through it.
	mb.failNext(2, engine.ErrOverload)
	if err := cl.Put(ctx, []byte("a"), []byte("1")); err != nil {
		t.Fatalf("put through overload: %v", err)
	}
	if cl.Stats().Retries.Value() < 2 || cl.Stats().Overloads.Value() < 2 {
		t.Fatalf("overload not retried: %v", cl.Stats())
	}

	// Non-retryable statuses surface typed immediately.
	for _, tc := range []struct {
		inject, want error
	}{
		{engine.ErrReadOnly, engine.ErrReadOnly},
		{engine.ErrCircuitOpen, engine.ErrCircuitOpen},
		{context.DeadlineExceeded, context.DeadlineExceeded},
	} {
		mb.failNext(1, tc.inject)
		err := cl.Put(ctx, []byte("b"), []byte("2"))
		if !errors.Is(err, tc.want) {
			t.Fatalf("injected %v, got %v", tc.inject, err)
		}
	}

	// Persistent overload exhausts the budget and reports both sentinels.
	cl2 := pipeServer(t, srv, ClientConfig{
		Seed: 8, MaxRetries: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	})
	mb.failNext(1000, engine.ErrOverload)
	err := cl2.Put(ctx, []byte("c"), []byte("3"))
	mb.failN.Store(0)
	if !errors.Is(err, ErrUnavailable) || !errors.Is(err, engine.ErrOverload) {
		t.Fatalf("exhausted overload: %v", err)
	}
}

// TestDrainFinishesInFlight starts a slow request, drains mid-flight, and
// requires the request to complete and ack before the connection closes.
func TestDrainFinishesInFlight(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	mb.getDelay = 50 * time.Millisecond
	mb.data["k"] = []byte("v")
	cl := pipeServer(t, srv, ClientConfig{Seed: 9, AttemptTimeout: 2 * time.Second})

	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}

	type res struct {
		v   []byte
		ok  bool
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, ok, err := cl.Get(context.Background(), []byte("k"))
		ch <- res{v, ok, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the Get reach the backend

	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-ch
	if r.err != nil || !r.ok || !bytes.Equal(r.v, []byte("v")) {
		t.Fatalf("in-flight get during drain: %q %v %v", r.v, r.ok, r.err)
	}
	if srv.Stats().CurConns.Value() != 0 {
		t.Fatalf("connections survived drain: %v", srv.Stats())
	}
}

// TestDrainRefusesNew pins the StatusDraining path for requests arriving
// after drain begins.
func TestDrainRefusesNew(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{})
	a, b := net.Pipe()
	defer a.Close()
	srv.ServeConn(b)
	srv.draining.Store(true)

	if err := frame.Write(a, encodeRequest(nil, request{Op: opGet, Seq: 5, Key: []byte("k")})); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := frame.Read(a, frame.MaxBytes)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	_, st, _, _ := decodeResponse(resp)
	if st != StatusDraining {
		t.Fatalf("status = %v, want draining", st)
	}
	if srv.Stats().DrainRejects.Value() != 1 {
		t.Fatalf("drain rejects = %d", srv.Stats().DrainRejects.Value())
	}
}

// TestSlowClientEviction wedges a client that never reads its responses;
// the server's write stall bound must evict it rather than leak the conn.
func TestSlowClientEviction(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{WriteStallTimeout: 30 * time.Millisecond})
	mb.data["k"] = []byte("v")
	a, b := net.Pipe()
	defer a.Close()
	srv.ServeConn(b)

	// Send a request but never read the response: net.Pipe is unbuffered,
	// so the server's response write blocks until the stall bound fires.
	if err := frame.Write(a, encodeRequest(nil, request{Op: opGet, Seq: 1, Key: []byte("k")})); err != nil {
		t.Fatalf("write: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Evicted.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow client never evicted: %v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for srv.Stats().CurConns.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("evicted conn not deregistered: %v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientReconnect kills the serving side and requires the client to
// re-dial transparently on the next operation.
func TestClientReconnect(t *testing.T) {
	srv1, _ := newTestServer(t, ServerConfig{})
	srv2, _ := newTestServer(t, ServerConfig{})
	var current atomic.Pointer[Server]
	current.Store(srv1)

	cl, err := NewClient(ClientConfig{
		Seed:      11,
		RetryBase: time.Millisecond,
		RetryMax:  4 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			a, b := net.Pipe()
			current.Load().ServeConn(b)
			return a, nil
		},
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	ctx := context.Background()
	if err := cl.Put(ctx, []byte("k"), []byte("v1")); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	current.Store(srv2)
	srv1.Close()
	if err := cl.Put(ctx, []byte("k"), []byte("v2")); err != nil {
		t.Fatalf("put after server death: %v", err)
	}
	if cl.Stats().Reconnects.Value() < 1 {
		t.Fatalf("no reconnect recorded: %v", cl.Stats())
	}
}

// TestHedgedRead pins that a slow read gets a hedge and still one result.
func TestHedgedRead(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	mb.getDelay = 60 * time.Millisecond
	mb.data["k"] = []byte("v")
	cl := pipeServer(t, srv, ClientConfig{
		Seed:           12,
		HedgeAfter:     10 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
	})
	v, ok, err := cl.Get(context.Background(), []byte("k"))
	if err != nil || !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("hedged get: %q %v %v", v, ok, err)
	}
	if cl.Stats().Hedges.Value() != 1 {
		t.Fatalf("hedges = %d, want 1", cl.Stats().Hedges.Value())
	}
	// Both executions ran server-side; the duplicate response was dropped.
	if mb.gets.Load() != 2 {
		t.Fatalf("server-side gets = %d, want 2", mb.gets.Load())
	}
}

// TestScanTruncation bounds one scan response and requires the truncated
// flag to end the scan early rather than blow the frame bound.
func TestScanTruncation(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{MaxScanBytes: 64})
	for i := 0; i < 32; i++ {
		mb.data[fmt.Sprintf("k%02d", i)] = bytes.Repeat([]byte("x"), 16)
	}
	cl := pipeServer(t, srv, ClientConfig{Seed: 13})
	n := 0
	if err := cl.Scan(context.Background(), nil, 0, func(k, v []byte) bool {
		n++
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if n == 0 || n >= 32 {
		t.Fatalf("truncated scan visited %d of 32", n)
	}
}

// TestBadFramesDoNotKillStream sends a CRC-damaged frame between two good
// requests; the damaged one is dropped, the stream keeps serving.
func TestBadFramesDoNotKillStream(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	mb.data["k"] = []byte("v")
	a, b := net.Pipe()
	defer a.Close()
	srv.ServeConn(b)

	good := frame.Append(nil, encodeRequest(nil, request{Op: opGet, Seq: 1, Key: []byte("k")}))
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // damage the payload, CRC catches it

	done := make(chan error, 1)
	go func() {
		if _, err := a.Write(bad); err != nil {
			done <- err
			return
		}
		_, err := a.Write(good)
		done <- err
	}()
	resp, err := frame.Read(a, frame.MaxBytes)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("write: %v", werr)
	}
	seq, st, body, err := decodeResponse(resp)
	if err != nil || seq != 1 || st != StatusOK || len(body) < 1 || body[0] != 1 {
		t.Fatalf("resp after bad frame: seq=%d st=%v err=%v", seq, st, err)
	}
	if srv.Stats().BadFrames.Value() != 1 {
		t.Fatalf("bad frames = %d, want 1", srv.Stats().BadFrames.Value())
	}
}

// TestPipeliningBackpressure floods one connection with more concurrent
// requests than the window; all must complete, and the in-flight peak must
// respect the bound.
func TestPipeliningBackpressure(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{MaxInFlight: 4})
	mb.getDelay = time.Millisecond
	mb.data["k"] = []byte("v")
	cl := pipeServer(t, srv, ClientConfig{Seed: 14, MaxInFlight: 64, AttemptTimeout: 5 * time.Second})

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cl.Get(context.Background(), []byte("k"))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("get under pipelining: %v", err)
		}
	}
	if peak := srv.Stats().InFlightPeak.Value(); peak > 4 {
		t.Fatalf("in-flight peak %d exceeds window 4", peak)
	}
}

// TestWorkersBoundedAndReused pins the per-connection worker set: a
// pipelined burst starts no more workers than MaxInFlight, and requests
// sent one at a time reuse a parked worker instead of starting one each.
func TestWorkersBoundedAndReused(t *testing.T) {
	t.Run("burst", func(t *testing.T) {
		const window = 4
		srv, mb := newTestServer(t, ServerConfig{MaxInFlight: window})
		mb.getDelay = time.Millisecond
		mb.data["k"] = []byte("v")
		cl := pipeServer(t, srv, ClientConfig{Seed: 15, MaxInFlight: 64, AttemptTimeout: 5 * time.Second})
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := cl.Get(context.Background(), []byte("k"))
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("get: %v", err)
			}
		}
		if w := onlyConn(t, srv).workers.Load(); w < 2 || w > window {
			t.Fatalf("64 pipelined Gets started %d workers, want 2..%d", w, window)
		}
	})
	t.Run("sequential", func(t *testing.T) {
		srv, mb := newTestServer(t, ServerConfig{})
		mb.data["k"] = []byte("v")
		cl := pipeServer(t, srv, ClientConfig{Seed: 16})
		for i := 0; i < 32; i++ {
			if _, _, err := cl.Get(context.Background(), []byte("k")); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		// The worker that wrote the last response may not have parked yet
		// when the next request arrives, so a second one can start; a
		// third would need two requests in flight at once.
		if w := onlyConn(t, srv).workers.Load(); w > 2 {
			t.Fatalf("32 sequential Gets started %d workers, want at most 2", w)
		}
	})
}

// blockingGets is a backend whose Gets block until their context ends,
// reporting the context's error.
type blockingGets struct {
	*memBackend
	entered chan struct{}
	ended   chan error
}

func (b *blockingGets) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	b.entered <- struct{}{}
	<-ctx.Done()
	b.ended <- ctx.Err()
	return nil, false, ctx.Err()
}

// TestEvictionCancelsInFlightWork evicts a connection while one of its
// Gets is blocked in the backend: the Get's context is cancelled with the
// connection, long before the request's own 10 s deadline.
func TestEvictionCancelsInFlightWork(t *testing.T) {
	bg := &blockingGets{memBackend: newMemBackend(), entered: make(chan struct{}, 1), ended: make(chan error, 1)}
	srv, _ := newTestServer(t, ServerConfig{Backend: bg, WriteStallTimeout: 30 * time.Millisecond})
	a, b := net.Pipe()
	defer a.Close()
	srv.ServeConn(b)

	if err := frame.Write(a, encodeRequest(nil, request{Op: opGet, Seq: 1, Deadline: 10 * time.Second, Key: []byte("k")})); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-bg.entered
	// A ping whose response is never read: net.Pipe is unbuffered, so its
	// write stalls and the connection is evicted.
	if err := frame.Write(a, encodeRequest(nil, request{Op: opPing, Seq: 2})); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case err := <-bg.ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked Get ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("blocked Get still running 5 s after its connection stalled: %v", srv.Stats())
	}
	if e := srv.Stats().Evicted.Value(); e != 1 {
		t.Fatalf("evicted = %d, want 1", e)
	}
}

// TestNoGoroutineLeaks closes everything and requires the goroutine count
// to return to baseline — the drain/close machinery leaks nothing.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, mb := newTestServer(t, ServerConfig{})
	mb.data["k"] = []byte("v")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(l) }()
	addr := l.Addr().String()

	for i := 0; i < 4; i++ {
		cl, err := NewClient(ClientConfig{
			Seed: int64(20 + i),
			Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		for j := 0; j < 8; j++ {
			if _, _, err := cl.Get(context.Background(), []byte("k")); err != nil {
				t.Fatalf("get: %v", err)
			}
		}
		cl.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	<-serveDone

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
