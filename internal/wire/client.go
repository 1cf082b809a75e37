package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/backoff"
	"costperf/internal/engine"
	"costperf/internal/metrics"
	"costperf/internal/overload"
	"costperf/internal/shard"
	"costperf/internal/wire/frame"
)

// ClientConfig configures a Client.
type ClientConfig struct {
	// Dial opens a connection to the server (required). It is called for
	// the first connection and after every connection failure.
	Dial func() (net.Conn, error)
	// ClientID is the stable idempotency identity presented to the
	// server's dedup window; it must survive reconnects. 0 derives one
	// from Seed; to opt out of deduplication set DisableDedup.
	ClientID uint64
	// DisableDedup sends a zero client ID, opting out of server-side
	// write deduplication.
	DisableDedup bool
	// Seed seeds retry jitter and the derived ClientID (default 1).
	Seed int64
	// MaxInFlight bounds pipelined requests in flight (default 32).
	MaxInFlight int
	// AttemptTimeout bounds one request attempt: past it the attempt is
	// presumed lost (dropped frame, dead peer) and retried (default 1s).
	AttemptTimeout time.Duration
	// MaxRetries bounds retries per operation — with the exponential
	// backoff this is what keeps a retry storm's amplification bounded
	// (default 8).
	MaxRetries int
	// RetryBase/RetryMax shape the jittered exponential backoff between
	// retries, the same [d/2, d] half-jitter the engine's breaker probes
	// use (defaults 2ms / 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeAfter, when >0, sends a duplicate of a read still unanswered
	// after this long — but only when the remaining deadline leaves room
	// for the hedge to matter. Writes are never hedged; the dedup window
	// would absorb them anyway, but reads are where tail latency hides.
	HedgeAfter time.Duration
	// ConsecTimeouts is the run of attempt timeouts on one connection
	// that makes the client presume it dead and reconnect (default 3).
	ConsecTimeouts int
	// Class is the priority class sent with every request ("scan", "low",
	// "normal", "high"; empty = normal). The server's admission limiter
	// sheds lower classes first under pressure. A per-operation override
	// travels in the context via overload.WithClass.
	Class string
	// RetryBudget, when >0, bounds retry amplification with a token
	// bucket: each logical operation earns RetryBudget tokens (so e.g.
	// 0.1 sustains one retry per ten ops) and every retry spends one;
	// when the bucket is dry the operation fails with ErrUnavailable
	// instead of retrying. This is the client-side half of metastable-
	// failure protection — a storm of retries against a struggling
	// server is exactly the load that keeps it struggling. 0 disables
	// the budget (retries bounded only by MaxRetries).
	RetryBudget float64
}

// retryBucketCap bounds the retry token bucket: enough burst for a
// transient blip, not enough to fuel a storm.
const retryBucketCap = 10

func (c *ClientConfig) setDefaults() error {
	if c.Dial == nil {
		return errors.New("wire: nil dial func")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ClientID == 0 && !c.DisableDedup {
		// Derive a stable nonzero identity from the seed (splitmix64).
		z := uint64(c.Seed) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		c.ClientID = z ^ (z >> 31)
		if c.ClientID == 0 {
			c.ClientID = 1
		}
	}
	if c.DisableDedup {
		c.ClientID = 0
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = c.RetryBase
	}
	if c.ConsecTimeouts <= 0 {
		c.ConsecTimeouts = 3
	}
	if c.Class != "" {
		if _, ok := overload.ParseClass(c.Class); !ok {
			return fmt.Errorf("wire: unknown priority class %q", c.Class)
		}
	}
	return nil
}

// defaultClass resolves the configured class name (empty = normal).
func (c *ClientConfig) defaultClass() overload.Class {
	if c.Class == "" {
		return overload.ClassNormal
	}
	cl, _ := overload.ParseClass(c.Class)
	return cl
}

// ClientStats meters the client; Sent/Ops is the retry amplification the
// chaos harness bounds.
type ClientStats struct {
	// Ops counts logical operations started; Sent counts request frames
	// handed to the connection's send queue (first attempts + retries +
	// hedges).
	Ops  metrics.Counter
	Sent metrics.Counter
	// Retries counts re-sent attempts; Hedges counts duplicate reads sent
	// for tail latency; Reconnects counts re-dials after the first.
	Retries    metrics.Counter
	Hedges     metrics.Counter
	Reconnects metrics.Counter
	// AttemptTimeouts counts attempts presumed lost; Overloads counts
	// StatusOverload responses (each retried with backoff).
	AttemptTimeouts metrics.Counter
	Overloads       metrics.Counter
	// BudgetDenied counts retries suppressed by a dry retry budget —
	// each one is load NOT sent at a struggling server.
	BudgetDenied metrics.Counter
	// HintedMicros gauges the last server-provided retry-after hint.
	HintedMicros metrics.Gauge
	// Moves counts StatusMoved responses: shard cutovers observed on the
	// wire, each teaching the client the server's new shard map.
	Moves metrics.Counter
}

// String renders the counters for experiment logs.
func (s *ClientStats) String() string {
	return fmt.Sprintf("ops=%d sent=%d retries=%d hedges=%d reconnects=%d timeouts=%d overloads=%d moves=%d denied=%d",
		s.Ops.Value(), s.Sent.Value(), s.Retries.Value(), s.Hedges.Value(),
		s.Reconnects.Value(), s.AttemptTimeouts.Value(), s.Overloads.Value(), s.Moves.Value(),
		s.BudgetDenied.Value())
}

// Client is a resilient connection to a wire server: pipelined requests,
// reconnects with jittered exponential backoff, idempotent retries, and
// deadline-aware hedged reads. All methods are safe for concurrent use.
type Client struct {
	cfg   ClientConfig
	stats ClientStats

	seq    atomic.Uint64
	window chan struct{}

	// Shard map learned from MOVED responses: the full epoch-numbered
	// placement table. Advisory — routing stays server-side — but it lets
	// a fleet-aware caller observe cutovers and resizes. A stale-epoch
	// MOVED body never regresses the learned map.
	shardMap atomic.Pointer[shard.Map]

	mu     sync.Mutex // guards cc, dialed
	cc     *clientConn
	dialed bool

	// src draws the jittered exponential retry schedule (shared with the
	// engine's breaker probes and the shard router via internal/backoff).
	src *backoff.Source

	// Retry token bucket (see ClientConfig.RetryBudget).
	budMu  sync.Mutex
	tokens float64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewClient creates a client; no connection is made until the first
// operation.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return &Client{
		cfg:    cfg,
		window: make(chan struct{}, cfg.MaxInFlight),
		src:    backoff.New(backoff.Policy{Base: cfg.RetryBase, Max: cfg.RetryMax}, cfg.Seed),
		tokens: retryBucketCap, // start full: a transient blip can retry at once
		closed: make(chan struct{}),
	}, nil
}

// Stats returns the client's counters.
func (c *Client) Stats() *ClientStats { return &c.stats }

// ShardMap summarizes the server's shard map as last taught by a MOVED
// response; ok is false until the client has seen one.
func (c *Client) ShardMap() (epoch uint64, shards int, ok bool) {
	m := c.shardMap.Load()
	if m == nil {
		return 0, 0, false
	}
	return m.Epoch, len(m.Entries), true
}

// Map returns the full placement table last taught by a MOVED response
// (nil until one arrives). The map is immutable; callers may route with
// it, diff it, or re-encode it.
func (c *Client) Map() *shard.Map { return c.shardMap.Load() }

// Get returns the value for key.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	body, err := c.do(ctx, request{Op: opGet, Key: key}, true)
	if err != nil {
		return nil, false, err
	}
	if len(body) < 1 || body[0] > 1 {
		return nil, false, ErrBadMessage
	}
	if body[0] == 0 {
		return nil, false, nil
	}
	return body[1:], true, nil
}

// Put upserts key -> val. Retries are exactly-once: the server's dedup
// window answers a retry of an acked Put without re-applying it.
func (c *Client) Put(ctx context.Context, key, val []byte) error {
	_, err := c.do(ctx, request{Op: opPut, Key: key, Val: val}, false)
	return err
}

// Delete removes key, with the same exactly-once retry contract as Put.
func (c *Client) Delete(ctx context.Context, key []byte) error {
	_, err := c.do(ctx, request{Op: opDelete, Key: key}, false)
	return err
}

// Scan visits pairs with key >= start in order until fn returns false or
// limit pairs are visited. The server bounds one response's size; a
// truncated scan simply ends early, like a short read.
func (c *Client) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	body, err := c.do(ctx, request{Op: opScan, Key: start, Limit: limit}, true)
	if err != nil {
		return err
	}
	pairs, _, err := decodeScanBody(body)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		if !fn(p.K, p.V) {
			break
		}
	}
	return nil
}

// Ping round-trips an empty request, establishing the connection.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, request{Op: opPing}, false)
	return err
}

// Close fails in-flight operations and releases the connection. After
// Close returns no client goroutines remain.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.mu.Lock()
	if c.cc != nil {
		c.cc.fail(ErrClientClosed)
		c.cc = nil
	}
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}

// do runs one logical operation: acquire a window slot, then attempt,
// retry with jittered exponential backoff on transport failures and
// overload, and (for reads) hedge the tail.
func (c *Client) do(ctx context.Context, req request, isRead bool) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-c.closed:
		return nil, ErrClientClosed
	default:
	}
	c.stats.Ops.Inc()
	select {
	case c.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closed:
		return nil, ErrClientClosed
	}
	defer func() { <-c.window }()

	req.ClientID = c.cfg.ClientID
	req.Seq = c.seq.Add(1)
	req.Class = overload.ClassFrom(ctx, c.cfg.defaultClass())
	c.earnRetryTokens()
	lastErr := error(nil)
	var hint time.Duration // server's retry-after, from the last overload

	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if !c.spendRetryToken() {
				// The budget is dry: sending this retry would add load to a
				// server already shedding it. Failing here is the choice
				// that lets the server drain.
				c.stats.BudgetDenied.Inc()
				return nil, fmt.Errorf("%w (retry budget exhausted): %w", ErrUnavailable, lastErr)
			}
			c.stats.Retries.Inc()
			if err := c.backoff(ctx, attempt, hint); err != nil {
				return nil, err
			}
			hint = 0
		}
		body, retry, h, err := c.attempt(ctx, req, isRead)
		if err == nil {
			return body, nil
		}
		if !retry {
			return nil, err
		}
		lastErr, hint = err, h
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrUnavailable, c.cfg.MaxRetries+1, lastErr)
}

// earnRetryTokens credits the retry bucket for one logical operation.
func (c *Client) earnRetryTokens() {
	if c.cfg.RetryBudget <= 0 {
		return
	}
	c.budMu.Lock()
	c.tokens += c.cfg.RetryBudget
	if c.tokens > retryBucketCap {
		c.tokens = retryBucketCap
	}
	c.budMu.Unlock()
}

// spendRetryToken takes one token; false means the budget is dry and
// the retry must not be sent.
func (c *Client) spendRetryToken() bool {
	if c.cfg.RetryBudget <= 0 {
		return true
	}
	c.budMu.Lock()
	defer c.budMu.Unlock()
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// attempt sends the request once (plus at most one hedge) and waits for
// its response, the attempt timeout, or a dead connection. retry=true
// means the failure is transient and the caller's budget decides; hint
// is the server's retry-after advice when it shed the request.
func (c *Client) attempt(ctx context.Context, req request, isRead bool) (body []byte, retry bool, hint time.Duration, err error) {
	cc, err := c.conn()
	if err != nil {
		return nil, true, 0, err
	}

	// The attempt deadline is the response-loss detector; the request
	// carries the tighter of it and the caller's deadline so the server
	// stops burning work the moment we stop waiting.
	attemptDl := time.Now().Add(c.cfg.AttemptTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(attemptDl) {
		attemptDl = dl
	}
	req.Deadline = time.Until(attemptDl)
	if req.Deadline <= 0 {
		return nil, false, 0, ctx.Err()
	}

	call := cc.register(req.Seq)
	defer cc.unregister(req.Seq, call)
	if err := cc.send(req, attemptDl); err != nil {
		return nil, true, 0, err
	}
	c.stats.Sent.Inc()

	timer := time.NewTimer(time.Until(attemptDl))
	defer timer.Stop()
	var hedge <-chan time.Time
	if isRead && c.cfg.HedgeAfter > 0 && time.Until(attemptDl) > 2*c.cfg.HedgeAfter {
		ht := time.NewTimer(c.cfg.HedgeAfter)
		defer ht.Stop()
		hedge = ht.C
	}

	for {
		select {
		case <-call.done:
			cc.consecTO.Store(0)
			return c.settleStatus(call)
		case <-hedge:
			// Tail-latency hedge: same seq, same connection, the same
			// bytes re-encoded — a duplicate response is ignored, a
			// duplicate write would be deduped, but only reads hedge.
			hedge = nil
			c.stats.Hedges.Inc()
			if err := cc.send(req, attemptDl); err == nil {
				c.stats.Sent.Inc()
			}
		case <-timer.C:
			c.stats.AttemptTimeouts.Inc()
			if cc.consecTO.Add(1) >= int64(c.cfg.ConsecTimeouts) {
				// The connection has eaten several attempts in a row:
				// presume it half-dead and rebuild it.
				cc.fail(fmt.Errorf("wire: %d consecutive attempt timeouts", c.cfg.ConsecTimeouts))
			}
			return nil, true, 0, fmt.Errorf("wire: attempt timed out after %v", c.cfg.AttemptTimeout)
		case <-cc.broken:
			return nil, true, 0, cc.brokenErr()
		case <-ctx.Done():
			return nil, false, 0, ctx.Err()
		case <-c.closed:
			return nil, false, 0, ErrClientClosed
		}
	}
}

// settleStatus turns a completed call into the operation's result.
func (c *Client) settleStatus(call *call) ([]byte, bool, time.Duration, error) {
	switch call.status {
	case StatusOK:
		return call.body, false, 0, nil
	case StatusOverload:
		// The server shed us: retry after backoff, within budget,
		// honoring the server's own estimate of how long its backlog
		// needs to drain.
		c.stats.Overloads.Inc()
		hint := decodeOverloadBody(call.body)
		if hint > 0 {
			c.stats.HintedMicros.Set(hint.Microseconds())
		}
		return nil, true, hint, errFromStatus(call.status, "")
	case StatusDraining:
		// The server is going away: drop the connection so the next
		// attempt re-dials (after failover/restart), and retry.
		c.dropConn()
		return nil, true, 0, ErrDraining
	case StatusMoved:
		// The key's shard cut over to a new owner mid-request. Learn the
		// map the server attached, then retry: by the next attempt the
		// router has installed the new owner.
		c.stats.Moves.Inc()
		if m, ok := decodeMovedBody(call.body); ok {
			for {
				old := c.shardMap.Load()
				if old != nil && old.Epoch >= m.Epoch {
					break
				}
				if c.shardMap.CompareAndSwap(old, m) {
					break
				}
			}
		}
		return nil, true, 0, errFromStatus(call.status, "")
	default:
		return nil, false, 0, errFromStatus(call.status, string(call.body))
	}
}

// backoff sleeps the jittered exponential interval for the given attempt
// number — d = min(base<<(attempt-1), max), drawn uniformly from [d/2, d]
// by the shared internal/backoff source — or the server's retry-after
// hint when that is longer: the server knows its backlog, the client
// only knows its schedule.
func (c *Client) backoff(ctx context.Context, attempt int, minWait time.Duration) error {
	d := c.src.Next(attempt)
	if minWait > d {
		d = minWait
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.closed:
		return ErrClientClosed
	}
}

// conn returns the live connection, dialing a fresh one if needed.
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cc != nil {
		select {
		case <-c.cc.broken:
			c.cc = nil
		default:
			return c.cc, nil
		}
	}
	select {
	case <-c.closed:
		return nil, ErrClientClosed
	default:
	}
	raw, err := c.cfg.Dial()
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	if c.dialed {
		c.stats.Reconnects.Inc()
	}
	c.dialed = true
	cc := &clientConn{
		c:       raw,
		pending: make(map[uint64]*call),
		broken:  make(chan struct{}),
	}
	c.cc = cc
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		cc.receive()
	}()
	return cc, nil
}

// dropConn discards the current connection (e.g. on StatusDraining) so
// the next attempt re-dials.
func (c *Client) dropConn() {
	c.mu.Lock()
	if c.cc != nil {
		c.cc.fail(ErrDraining)
		c.cc = nil
	}
	c.mu.Unlock()
}

// clientConn is one dialed connection with its pending-call table and
// its send queue.
type clientConn struct {
	c net.Conn

	// qmu guards the send queue: frames encoded by callers, written by
	// whichever caller is the flusher. spare is the flusher's other
	// buffer, swapped with queue so neither is reallocated per batch.
	qmu      sync.Mutex
	queue    []byte
	spare    []byte
	flushing bool

	mu      sync.Mutex
	pending map[uint64]*call
	err     error

	broken   chan struct{}
	failOnce sync.Once
	consecTO atomic.Int64
}

// call is one in-flight attempt's registration. Records are pooled, so an
// attempt allocates neither a call nor its done channel.
type call struct {
	done   chan struct{} // capacity 1: signaled once, under clientConn.mu
	status Status
	body   []byte
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func (cc *clientConn) register(seq uint64) *call {
	cl := callPool.Get().(*call)
	cc.mu.Lock()
	cc.pending[seq] = cl
	cc.mu.Unlock()
	return cl
}

// unregister retires cl and pools it. A response settles a call only
// while it is pending, under cc.mu, so once it is out of the table and
// its signal is drained nothing can reach it any more.
func (cc *clientConn) unregister(seq uint64, cl *call) {
	cc.mu.Lock()
	if cc.pending[seq] == cl {
		delete(cc.pending, seq)
	}
	cc.mu.Unlock()
	select {
	case <-cl.done:
	default:
	}
	cl.status, cl.body = 0, nil
	callPool.Put(cl)
}

// send encodes req as one frame onto the connection's send queue. If no
// flush is running the caller becomes the flusher: it writes the whole
// queue, frames added meanwhile included, until the queue is empty, each
// batch as one Write under the caller's attempt deadline, so a stalled
// connection surfaces as a failed attempt rather than a wedged goroutine.
// If a flush is running the caller returns at once and its frame goes out
// in the flusher's next write. A failed write fails the connection, so
// every attempt whose frame it carried sees cc.broken and retries.
func (cc *clientConn) send(req request, deadline time.Time) error {
	cc.qmu.Lock()
	cc.queue = appendRequestFrame(cc.queue, req)
	if cc.flushing {
		cc.qmu.Unlock()
		return nil
	}
	cc.flushing = true
	for len(cc.queue) > 0 {
		buf := cc.queue
		cc.queue = cc.spare[:0]
		cc.qmu.Unlock()
		cc.c.SetWriteDeadline(deadline)
		_, err := cc.c.Write(buf)
		cc.qmu.Lock()
		// Keep the buffer for the next batch unless a run of big Puts
		// grew it past the server's batch cap.
		cc.spare = nil
		if cap(buf) <= writeBatchBytes {
			cc.spare = buf[:0]
		}
		if err != nil {
			cc.queue = cc.queue[:0]
			cc.flushing = false
			cc.qmu.Unlock()
			cc.fail(err)
			return err
		}
	}
	cc.flushing = false
	cc.qmu.Unlock()
	return nil
}

// receive decodes responses and settles pending calls until the
// connection dies. Frames come through one buffered reader; each payload
// is still freshly allocated, because the bodies handed to callers (a
// Get's value, a scan's pairs) alias it.
func (cc *clientConn) receive() {
	br := bufio.NewReaderSize(cc.c, readBufBytes)
	for {
		payload, err := frame.Read(br, frame.MaxBytes)
		if err != nil {
			cc.fail(err)
			return
		}
		seq, st, body, err := decodeResponse(payload)
		if err != nil {
			continue // damaged response frame: the attempt timer recovers
		}
		cc.mu.Lock()
		if cl := cc.pending[seq]; cl != nil {
			delete(cc.pending, seq)
			cl.status, cl.body = st, body
			cl.done <- struct{}{}
		}
		// A seq with no pending call is a duplicate or hedged response
		// already settled.
		cc.mu.Unlock()
	}
}

// fail marks the connection dead and wakes everyone waiting on it.
func (cc *clientConn) fail(err error) {
	cc.failOnce.Do(func() {
		cc.mu.Lock()
		cc.err = err
		cc.mu.Unlock()
		close(cc.broken)
		cc.c.Close()
	})
}

func (cc *clientConn) brokenErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err == nil {
		return errors.New("wire: connection failed")
	}
	return cc.err
}

// Unavailable reports whether err is the client's gave-up error (every
// retry exhausted), as opposed to a typed server status.
func Unavailable(err error) bool { return errors.Is(err, ErrUnavailable) }

// Overloaded reports whether err is the server's typed overload status
// crossing the wire.
func Overloaded(err error) bool { return errors.Is(err, engine.ErrOverload) }
