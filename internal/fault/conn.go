package fault

import (
	"net"
	"os"
	"sync"
	"time"
)

// Conn wraps a net.Conn and applies a NetInjector's per-message outcomes
// to every Write call. The contract with the protocol layer is that one
// Write carries one or more whole self-delimiting frames, never part of
// one (internal/wire batches frames that way), so the injector's
// message-granular faults map cleanly onto a byte stream, each outcome
// acting on every frame of the write:
//
//   - Drop: the write reports success but its frames never leave — the
//     stream stays decodable because whole frames are the loss unit.
//   - Dup: the frames are transmitted twice back to back.
//   - Hold: the frames are delivered right after the next write's
//     (minimal reordering).
//   - HalfClose: this direction dies silently — the frames, and every
//     later write on this Conn, report success and vanish, while
//     reads keep flowing. The peer only notices through missing traffic.
//   - Stall: the connection wedges — this write, and every later one,
//     blocks until the write deadline expires or the Conn is closed, like
//     a peer that stopped draining its receive window.
//
// Reads pass through untouched. Partitions programmed on the injector
// surface as drops (every message eaten until heal), matching the
// injector's message-link semantics.
//
// Stall honors SetWriteDeadline/SetDeadline, returning os.ErrDeadlineExceeded
// exactly as a real socket write would on a zero-window peer, so callers'
// deadline-based stall eviction logic sees the real thing.
type Conn struct {
	net.Conn
	inj *NetInjector

	wmu     sync.Mutex
	held    []byte // one write's frames held for reordering
	outDead bool   // half-closed: writes succeed but vanish
	stalled bool   // wedged: writes block until deadline/close

	// The write deadline has its own lock so SetWriteDeadline never
	// queues behind a stalled Write holding wmu.
	dmu      sync.Mutex
	deadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// WrapConn wraps c; inj may be nil for a perfect network.
func WrapConn(c net.Conn, inj *NetInjector) *Conn {
	return &Conn{Conn: c, inj: inj, closed: make(chan struct{})}
}

// Write applies one injector outcome to the frames in p.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.stalled {
		return c.stallLocked()
	}
	var out NetOutcome
	if c.inj != nil {
		out = c.inj.Outcome()
	}
	switch {
	case out.Stall:
		c.stalled = true
		return c.stallLocked()
	case out.HalfClose:
		c.outDead = true
		c.held = nil
		return len(p), nil
	case c.outDead || out.Drop:
		return len(p), nil
	case out.Hold && c.held == nil:
		c.held = append([]byte(nil), p...)
		return len(p), nil
	}
	if _, err := c.Conn.Write(p); err != nil {
		return 0, err
	}
	if out.Dup {
		if _, err := c.Conn.Write(p); err != nil {
			return 0, err
		}
	}
	if c.held != nil {
		held := c.held
		c.held = nil
		if _, err := c.Conn.Write(held); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// stallLocked blocks a wedged write until the write deadline or Close.
// Caller holds wmu (so later writes queue behind the stall, exactly like
// a full kernel send buffer).
func (c *Conn) stallLocked() (int, error) {
	c.dmu.Lock()
	deadline := c.deadline
	c.dmu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return 0, os.ErrDeadlineExceeded
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	case <-timeout:
		return 0, os.ErrDeadlineExceeded
	}
}

// SetWriteDeadline records the deadline for the stall path and passes it
// through to the wrapped conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.dmu.Lock()
	c.deadline = t
	c.dmu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// SetDeadline records the write half for the stall path and passes the
// whole deadline through.
func (c *Conn) SetDeadline(t time.Time) error {
	c.dmu.Lock()
	c.deadline = t
	c.dmu.Unlock()
	return c.Conn.SetDeadline(t)
}

// Close unblocks any stalled writer and closes the wrapped conn.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
