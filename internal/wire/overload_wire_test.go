package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"costperf/internal/engine"
	"costperf/internal/metrics"
	"costperf/internal/overload"
	"costperf/internal/wire/frame"
)

// The engine front-end must advertise retry-after hints to the server.
var _ Adviser = (*engine.Engine)(nil)

// TestClassWireEncoding pins the op-byte class encoding: classes
// round-trip through the top 3 bits, a normal-class request encodes
// byte-identically to the legacy format, unspecified scans default to
// the scan class, remote probe claims clamp to high, and out-of-range
// wire values are rejected as malformed.
func TestClassWireEncoding(t *testing.T) {
	for _, c := range []overload.Class{
		overload.ClassScan, overload.ClassLow, overload.ClassNormal, overload.ClassHigh,
	} {
		p := encodeRequest(nil, request{Op: opPut, Class: c, Key: []byte("k"), Val: []byte("v")})
		r, err := decodeRequest(p)
		if err != nil {
			t.Fatalf("decode class %v: %v", c, err)
		}
		if r.Class != c || r.Op != opPut {
			t.Fatalf("class %v round-tripped as %v (op %d)", c, r.Class, r.Op)
		}
	}

	// Byte stability: a normal-class request is the legacy encoding — a
	// bare op byte with zero class bits — so pre-priority fixtures and
	// captures still decode and new normal traffic is byte-identical.
	tagged := encodeRequest(nil, request{Op: opGet, Class: overload.ClassNormal, Key: []byte("k")})
	if tagged[0] != opGet {
		t.Fatalf("normal-class op byte = %#x, want bare opGet (legacy bytes)", tagged[0])
	}

	// An unspecified class on a scan decodes as the scan class — the
	// op's natural rung on the brownout ladder.
	p := encodeRequest(nil, request{Op: opScan, Class: overload.ClassNormal, Key: []byte("a"), Limit: 1})
	r, err := decodeRequest(p)
	if err != nil || r.Class != overload.ClassScan {
		t.Fatalf("unspecified scan class = %v, %v; want ClassScan", r.Class, err)
	}

	// A remote probe claim (wire value 5, never produced by classToWire)
	// is clamped to high, not honored and not rejected.
	raw := encodeRequest(nil, request{Op: opGet, Key: []byte("k")})
	raw[0] = opGet | (byte(overload.ClassProbe)+1)<<5
	r, err = decodeRequest(raw)
	if err != nil || r.Class != overload.ClassHigh {
		t.Fatalf("probe claim decoded as %v, %v; want clamp to ClassHigh", r.Class, err)
	}

	// Wire values past the encodable range are malformed bytes.
	for _, v := range []byte{6, 7} {
		raw[0] = opGet | v<<5
		if _, err := decodeRequest(raw); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("wire class %d decoded without error", v)
		}
	}
}

// advisingBackend wraps memBackend with a fixed retry-after hint,
// standing in for an engine or router whose limiter advises one.
type advisingBackend struct {
	*memBackend
	hint time.Duration
}

func (a *advisingBackend) RetryAfterHint() time.Duration { return a.hint }

// TestOverloadHintCrossesWire pins the hint loop: the server attaches
// its adviser's retry-after to StatusOverload, and the shed client
// waits at least that long before retrying — the server's estimate of
// its backlog outranks the client's blind schedule.
func TestOverloadHintCrossesWire(t *testing.T) {
	const hint = 30 * time.Millisecond
	ab := &advisingBackend{memBackend: newMemBackend(), hint: hint}
	srv, _ := newTestServer(t, ServerConfig{Backend: ab})
	cl := pipeServer(t, srv, ClientConfig{
		Seed: 11, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	})
	ctx := context.Background()

	ab.failNext(1, engine.ErrOverload)
	start := time.Now()
	if err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("put through hinted overload: %v", err)
	}
	elapsed := time.Since(start)
	// The blind schedule would retry within ~2ms; honoring the hint
	// means the retry waited the hint out.
	if elapsed < hint {
		t.Fatalf("retried after %v, want at least the %v hint", elapsed, hint)
	}
	if got := cl.Stats().HintedMicros.Value(); got != hint.Microseconds() {
		t.Fatalf("HintedMicros = %d, want %d", got, hint.Microseconds())
	}
	if srv.Stats().Sheds.Value() != 1 {
		t.Fatalf("server Sheds = %d, want 1", srv.Stats().Sheds.Value())
	}
}

// TestRetryBudgetExhaustion pins the token bucket: under persistent
// overload the client's retries drain the budget, after which shed
// operations fail immediately instead of feeding the storm.
func TestRetryBudgetExhaustion(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	cl := pipeServer(t, srv, ClientConfig{
		Seed: 13, MaxRetries: 3,
		RetryBase: 100 * time.Microsecond, RetryMax: 200 * time.Microsecond,
		RetryBudget: 0.5,
	})
	ctx := context.Background()

	mb.failNext(1<<30, engine.ErrOverload)
	var denied bool
	var lastErr error
	// The bucket starts full (10 tokens); each op earns 0.5 and may
	// spend up to MaxRetries — a handful of ops drains it.
	for i := 0; i < 12 && !denied; i++ {
		lastErr = cl.Put(ctx, []byte("k"), []byte("v"))
		if lastErr == nil {
			t.Fatal("put succeeded under forced overload")
		}
		denied = cl.Stats().BudgetDenied.Value() > 0
	}
	mb.failN.Store(0)
	if !denied {
		t.Fatalf("budget never ran dry: %v", cl.Stats())
	}
	if !errors.Is(lastErr, ErrUnavailable) || !errors.Is(lastErr, engine.ErrOverload) {
		t.Fatalf("budget-dry error = %v, want ErrUnavailable wrapping overload", lastErr)
	}

	// Recovery: once the server serves again, successes re-earn tokens
	// and the client is not wedged.
	for i := 0; i < 30; i++ {
		if err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("put after recovery: %v", err)
		}
	}
}

// TestDedupShedExactlyOnce (satellite of the overload PR) pins the
// dedup window against server-side shedding: a write that was shed
// AFTER its dedup entry was inserted must be forgotten (so the retry
// re-executes, exactly once), while a write that was acked stays in the
// window (so a retry during a later overload is answered from the
// window, not shed and not re-applied).
func TestDedupShedExactlyOnce(t *testing.T) {
	srv, mb := newTestServer(t, ServerConfig{})
	a, b := net.Pipe()
	defer a.Close()
	srv.ServeConn(b)

	roundTrip := func(req request) Status {
		t.Helper()
		if err := frame.Write(a, encodeRequest(nil, req)); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := frame.Read(a, frame.MaxBytes)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		seq, st, _, err := decodeResponse(resp)
		if err != nil || seq != req.Seq {
			t.Fatalf("resp: seq=%d st=%v err=%v", seq, st, err)
		}
		return st
	}

	// Shed after dedup insertion: the engine sheds the Put AFTER the
	// server registered (clientID, seq) in the window. The failed entry
	// must be forgotten so the retry executes — once.
	mb.failNext(1, engine.ErrOverload)
	req := request{Op: opPut, ClientID: 21, Seq: 1, Key: []byte("k"), Val: []byte("v")}
	if st := roundTrip(req); st != StatusOverload {
		t.Fatalf("shed attempt = %v, want StatusOverload", st)
	}
	if n := mb.applies.Load(); n != 0 {
		t.Fatalf("shed write applied %d times", n)
	}
	if st := roundTrip(req); st != StatusOK {
		t.Fatalf("retry of shed write = %v, want StatusOK", st)
	}
	if n := mb.applies.Load(); n != 1 {
		t.Fatalf("retry applied %d times, want exactly once", n)
	}

	// Acked then retried during overload: the window answers the retry
	// without consulting the (currently shedding) backend, and without
	// re-applying.
	req2 := request{Op: opPut, ClientID: 21, Seq: 2, Key: []byte("k2"), Val: []byte("v2")}
	if st := roundTrip(req2); st != StatusOK {
		t.Fatalf("first ack = %v", st)
	}
	mb.failNext(1<<30, engine.ErrOverload)
	if st := roundTrip(req2); st != StatusOK {
		t.Fatalf("retry of acked write during overload = %v, want StatusOK from the dedup window", st)
	}
	mb.failN.Store(0)
	if n := mb.applies.Load(); n != 2 {
		t.Fatalf("applies = %d, want 2 (no re-execution of the acked write)", n)
	}
	if srv.Stats().DedupHits.Value() != 1 {
		t.Fatalf("DedupHits = %d, want 1", srv.Stats().DedupHits.Value())
	}
}

// TestClassReachesEngine drives a class-tagged scan against a real
// engine backend whose queue is saturated and asserts the wire class
// is what the engine sheds by.
func TestClassReachesEngine(t *testing.T) {
	blocker := newMemBackend()
	blocker.getDelay = 200 * time.Millisecond
	eng, err := engine.New(engine.Config{Store: wrapBackend{blocker}, MaxConcurrent: 1, MaxQueue: 4})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	srv, _ := newTestServer(t, ServerConfig{Backend: eng})
	cl := pipeServer(t, srv, ClientConfig{
		Seed: 17, MaxRetries: 1, AttemptTimeout: 5 * time.Second,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	})
	ctx := context.Background()

	// Saturate: one slow Get holds the engine's only slot; two more
	// queue to scan's bound (4/4 = 1... two normals reach depth 2 > 1).
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, _, err := cl.Get(ctx, []byte("x"))
			done <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().QueueDepth.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("engine queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	// An untagged scan crosses the wire as scan-class and sheds at its
	// bound while normal reads are still being queued.
	err = cl.Scan(ctx, nil, 1, func(k, v []byte) bool { return true })
	if !errors.Is(err, engine.ErrOverload) && !errors.Is(err, ErrUnavailable) {
		t.Fatalf("scan against saturated engine = %v, want overload-shed", err)
	}
	if eng.Limiter().Stats().Shed.Scan.Value() == 0 {
		t.Fatal("the wire scan was not shed at scan class")
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("saturating get: %v", err)
		}
	}
}

// wrapBackend adapts memBackend to engine.Store (Health/Close).
type wrapBackend struct{ *memBackend }

func (wrapBackend) Health() *metrics.Health { return nil }
func (wrapBackend) Close() error            { return nil }
