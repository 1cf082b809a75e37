package wire

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/fault"
	"costperf/internal/wire/frame"
)

// frameSizes splits one Write's bytes into frames and returns their sizes
// on the wire; a write that does not split into whole frames yields nil.
func frameSizes(p []byte) []int {
	var sizes []int
	for len(p) > 0 {
		_, rest, err := frame.Decode(p, frame.MaxBytes)
		if err != nil {
			return nil
		}
		sizes = append(sizes, len(p)-len(rest))
		p = rest
	}
	return sizes
}

// gateConn holds its first Write until released, runs an optional hook
// ahead of every Write, and records the frames each Write carried.
type gateConn struct {
	net.Conn
	entered chan struct{} // closed when the first Write arrives
	release chan struct{} // close to let the first Write through
	before  func(i int)   // called ahead of Write i (0-based); may be nil

	mu     sync.Mutex
	writes [][]int // frame sizes per Write
}

func newGateConn(c net.Conn) *gateConn {
	return &gateConn{Conn: c, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateConn) Write(p []byte) (int, error) {
	g.mu.Lock()
	i := len(g.writes)
	g.writes = append(g.writes, frameSizes(p))
	g.mu.Unlock()
	if i == 0 {
		close(g.entered)
		<-g.release
	}
	if g.before != nil {
		g.before(i)
	}
	return g.Conn.Write(p)
}

func (g *gateConn) recorded() [][]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]int(nil), g.writes...)
}

// connCalls counts Read and Write calls on a socket: each one is a
// syscall.
type connCalls struct{ reads, writes atomic.Int64 }

// countingConn counts its calls into n.
type countingConn struct {
	net.Conn
	n *connCalls
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(p)
}

// onlyConn returns the server's single live connection.
func onlyConn(t *testing.T, srv *Server) *srvConn {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("server holds %d conns, want 1", len(srv.conns))
	}
	for sc := range srv.conns {
		return sc
	}
	return nil
}

// queued returns the number of response frames waiting in sc's send
// queue, and whether a graceful close has asked the flusher to close the
// connection after writing them.
func queued(sc *srvConn) (int, bool) {
	sc.qmu.Lock()
	defer sc.qmu.Unlock()
	return len(sc.ends), sc.closing
}

// waitFor polls cond until it holds or two seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// readResponses reads response frames from c until it fails and sends the
// sequence numbers it saw.
func readResponses(c net.Conn) <-chan []uint64 {
	out := make(chan []uint64, 1)
	go func() {
		var seqs []uint64
		for {
			p, err := frame.Read(c, frame.MaxBytes)
			if err != nil {
				out <- seqs
				return
			}
			if seq, _, _, err := decodeResponse(p); err == nil {
				seqs = append(seqs, seq)
			}
		}
	}()
	return out
}

// TestFramesMatchFrameAppend pins the in-place frame encoders to the
// frame codec's own bytes.
func TestFramesMatchFrameAppend(t *testing.T) {
	req := request{Op: opPut, ClientID: 3, Seq: 9, Deadline: time.Second, Key: []byte("k"), Val: []byte("v")}
	if got, want := appendRequestFrame([]byte("x"), req), frame.Append([]byte("x"), encodeRequest(nil, req)); !bytes.Equal(got, want) {
		t.Fatalf("request frame %x, want %x", got, want)
	}
	for _, r := range []response{
		{seq: 1, st: StatusOK, get: true, found: true, body: []byte("val")},
		{seq: 2, st: StatusOK, get: true},
		{seq: 3, st: StatusInternal, body: []byte("boom")},
	} {
		body := r.body
		if r.get {
			found := byte(0)
			if r.found {
				found = 1
			}
			body = append([]byte{found}, r.body...)
		}
		want := frame.Append(nil, encodeResponse(nil, r.seq, r.st, body))
		if got := appendResponseFrame(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("response frame %x, want %x", got, want)
		}
	}
}

// TestPipelinedGetsShareReadSyscalls sends 64 pipelined Gets from one
// client and counts the server's read syscalls: a buffered reader takes
// in several frames per read, where reading each frame's header and
// payload straight off the socket costs three reads a frame.
func TestPipelinedGetsShareReadSyscalls(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	mb.data["k"] = []byte("v")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	var calls connCalls
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			srv.ServeConn(&countingConn{Conn: c, n: &calls})
		}
	}()
	cl, err := NewClient(ClientConfig{
		Seed:        31,
		MaxInFlight: 64,
		Dial:        func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	const n = 64
	start := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			<-start
			v, ok, err := cl.Get(context.Background(), []byte("k"))
			if err == nil && (!ok || !bytes.Equal(v, []byte("v"))) {
				err = fmt.Errorf("got %q, %v", v, ok)
			}
			errs <- err
		}()
	}
	close(start)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if got := calls.reads.Load(); got > n {
		t.Fatalf("server made %d read calls for %d pipelined Gets, want <= %d", got, n, n)
	}
}

// TestCoalescedWriteLossRetriesExactlyOnce loses one client write that
// carries 8 coalesced Puts. The loss unit is the whole write, so the
// stream stays decodable; every Put completes by retry and the backend
// applies each exactly once.
func TestCoalescedWriteLossRetriesExactlyOnce(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	inj := fault.NewNetInjector(1)
	gate := newGateConn(nil)
	// Write 0 (a Ping) is held so the Puts queue behind it; write 1 then
	// carries all of them and is dropped.
	gate.before = func(i int) {
		if i == 1 {
			inj.PartitionFor(1)
		}
	}
	var dials atomic.Int32
	cl, err := NewClient(ClientConfig{
		Seed:           32,
		AttemptTimeout: 50 * time.Millisecond,
		RetryBase:      time.Millisecond,
		RetryMax:       4 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			a, b := net.Pipe()
			srv.ServeConn(b)
			if dials.Add(1) > 1 {
				return a, nil
			}
			gate.Conn = fault.WrapConn(a, inj)
			return gate, nil
		},
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	ctx := context.Background()
	pinged := make(chan error, 1)
	go func() { pinged <- cl.Ping(ctx) }()
	<-gate.entered

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errs <- cl.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
		}(i)
	}
	// A Put counts as sent once its frame is queued behind the held flush.
	waitFor(t, "8 queued Puts", func() bool { return cl.Stats().Sent.Value() == n })
	close(gate.release)

	if err := <-pinged; err != nil {
		t.Fatalf("ping: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if w := gate.recorded(); len(w) < 2 || len(w[1]) != n {
		t.Fatalf("writes carried frames %v, want %d coalesced in write 1", w, n)
	}
	if d := inj.Stats().Dropped; d != 1 {
		t.Fatalf("dropped %d writes, want 1", d)
	}
	if cl.Stats().Retries.Value() < n {
		t.Fatalf("retries = %d, want >= %d", cl.Stats().Retries.Value(), n)
	}
	if a := mb.applies.Load(); a != n {
		t.Fatalf("backend applied %d writes, want exactly %d", a, n)
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i := 0; i < n; i++ {
		if v := mb.data[fmt.Sprintf("k%d", i)]; string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q", i, v)
		}
	}
}

// TestDrainWritesResponsesQueuedBehindBatch holds the flusher inside a
// batched write while more responses queue behind it, then drains: every
// response queued before the drain's close mark is written before the
// connection closes, and Responses counts frames, not writes.
func TestDrainWritesResponsesQueuedBehindBatch(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	mb.data["k"] = []byte("v")
	a, b := net.Pipe()
	defer a.Close()
	gate := newGateConn(b)
	srv.ServeConn(gate)
	sc := onlyConn(t, srv)

	const n = 16
	var reqs []byte
	for i := 1; i <= n; i++ {
		reqs = appendRequestFrame(reqs, request{Op: opGet, Seq: uint64(i), Key: []byte("k")})
	}
	go a.Write(reqs)
	<-gate.entered
	waitFor(t, "handlers to finish", func() bool {
		return srv.Stats().Requests.Value() == n && srv.Stats().InFlight.Value() == 0
	})
	held := len(gate.recorded()[0])

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	// The responses not in the held write, then the close mark.
	waitFor(t, "the close mark", func() bool {
		frames, closing := queued(sc)
		return frames == n-held && closing
	})
	got := readResponses(a)
	close(gate.release)

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	seqs := <-got
	if len(seqs) != n {
		t.Fatalf("read %d responses before close, want %d", len(seqs), n)
	}
	seen := make(map[uint64]bool)
	for _, s := range seqs {
		seen[s] = true
	}
	if len(seen) != n {
		t.Fatalf("responses %v are not %d distinct seqs", seqs, n)
	}
	if r := srv.Stats().Responses.Value(); r != n {
		t.Fatalf("Responses = %d, want %d", r, n)
	}
	if w := gate.recorded(); len(w) >= n {
		t.Fatalf("%d writes for %d queued responses: nothing was batched", len(w), n)
	}
}

// TestLargeResponsesStopBatchAtCap queues scan responses of ~40 KiB
// behind a held write: a batch takes responses until it holds
// writeBatchBytes, so two go out per write, not all four in one.
func TestLargeResponsesStopBatchAtCap(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	for i := 0; i < 10; i++ {
		mb.data[fmt.Sprintf("k%d", i)] = bytes.Repeat([]byte("x"), 4<<10)
	}
	a, b := net.Pipe()
	defer a.Close()
	gate := newGateConn(b)
	srv.ServeConn(gate)
	sc := onlyConn(t, srv)
	got := readResponses(a)

	if err := frame.Write(a, encodeRequest(nil, request{Op: opPing, Seq: 1})); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-gate.entered
	const scans = 4
	var reqs []byte
	for i := 0; i < scans; i++ {
		reqs = appendRequestFrame(reqs, request{Op: opScan, Seq: uint64(2 + i), Limit: 10})
	}
	if _, err := a.Write(reqs); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, "queued scan responses", func() bool {
		frames, _ := queued(sc)
		return frames == scans
	})
	close(gate.release)
	waitFor(t, "all responses", func() bool { return srv.Stats().Responses.Value() == 1+scans })

	writes := gate.recorded()
	frames := 0
	for i, w := range writes {
		if w == nil {
			t.Fatalf("write %d did not carry whole frames", i)
		}
		frames += len(w)
		before := 0
		for _, sz := range w[:len(w)-1] {
			before += sz
		}
		if before >= writeBatchBytes {
			t.Fatalf("write %d took a frame after reaching the cap: sizes %v", i, w)
		}
	}
	if frames != 1+scans || len(writes) != 3 {
		t.Fatalf("writes carried frames %v, want [ping] then two batches of two scans", writes)
	}
	a.Close()
	if seqs := <-got; len(seqs) != 1+scans {
		t.Fatalf("read %d responses, want %d", len(seqs), 1+scans)
	}
}

// TestStalledBatchStillEvicts wedges the server's first batched write:
// the connection is evicted once WriteStallTimeout passes, as with one
// write per response.
func TestStalledBatchStillEvicts(t *testing.T) {
	const stall = 40 * time.Millisecond
	srv, mb := newTestServer(t, ServerConfig{WriteStallTimeout: stall})
	mb.data["k"] = []byte("v")
	inj := fault.NewNetInjector(1)
	inj.SetConnFaults(0, 1) // every write stalls
	a, b := net.Pipe()
	defer a.Close()
	start := time.Now()
	srv.ServeConn(fault.WrapConn(b, inj))

	var reqs []byte
	for i := 1; i <= 8; i++ {
		reqs = appendRequestFrame(reqs, request{Op: opGet, Seq: uint64(i), Key: []byte("k")})
	}
	go a.Write(reqs)
	waitFor(t, "eviction", func() bool { return srv.Stats().Evicted.Value() == 1 })
	if el := time.Since(start); el < stall {
		t.Fatalf("evicted after %v, before the %v stall bound", el, stall)
	}
	waitFor(t, "deregistration", func() bool { return srv.Stats().CurConns.Value() == 0 })
	if r := srv.Stats().Responses.Value(); r != 0 {
		t.Fatalf("Responses = %d from a stalled write, want 0", r)
	}
}
