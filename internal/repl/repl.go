// Package repl replicates a transaction component's recovery log to a warm
// standby: continuous log shipping, point-in-time recovery, and automatic
// failover with epoch fencing.
//
// The Deuteronomy split (internal/tc) makes the recovery log the natural
// replication boundary: every committed write exists as a framed,
// CRC-covered record at a known LSN, and replay is the same blind-update
// path as normal operation. So replication here is byte shipping:
//
//   - Shipper tails the primary's durable log [cursor, DurableLSN) in LSN
//     order, cuts record-aligned batches, and streams them over a Link
//     with a bounded in-flight window, per-batch acks, and jittered
//     exponential-backoff resends. Cursors are resumable: a restarted
//     shipper asks the standby where it is and continues from there.
//
//   - Standby verifies each frame (epoch, CRC, LSN continuity), persists
//     the bytes to its own log device at identical offsets — the standby
//     log is a byte-identical prefix of the primary's — applies the
//     records to its data component, and tracks applied-LSN lag for
//     stale-bounded reads and PITR checkpoints.
//
//   - Cluster glues both into an engine.Store: writes are semi-synchronous
//     (acked to the caller only after the standby acked the commit's LSN,
//     so failover never loses an acknowledged write), and when the primary
//     latches degraded the cluster drains the ack window, fences the old
//     primary behind an epoch bump, and promotes the standby in place.
//
// In the paper's cost terms (Eq. 4-6) a warm standby rents a second copy
// of the flash plus the ship bandwidth, like mirroring — but the second
// copy is a full store that can take over service, not just a redundant
// leg (see DESIGN.md, "Replication & PITR").
package repl

import "errors"

// Typed errors.
var (
	// ErrFenced rejects a commit or frame carrying a stale epoch: the
	// sender was demoted by a failover it has not observed.
	ErrFenced = errors.New("repl: fenced (stale epoch)")
	// ErrTooStale is returned by standby reads when the applied-LSN lag
	// exceeds the configured staleness bound.
	ErrTooStale = errors.New("repl: standby lag exceeds staleness bound")
	// ErrBeyondApplied rejects a PITR target past what the standby has
	// applied: those bytes have not been shipped yet.
	ErrBeyondApplied = errors.New("repl: PITR target beyond applied LSN")
	// ErrBeforeRetention rejects a PITR target below the oldest retained
	// checkpoint: the log prefix before it is eligible for archival and
	// no longer guaranteed reconstructible.
	ErrBeforeRetention = errors.New("repl: PITR target below retained checkpoint window")
	// ErrStopped is returned by waits after the shipper or standby halted.
	ErrStopped = errors.New("repl: stopped")
	// ErrShipTimeout is returned when a semi-synchronous write could not
	// confirm standby application within the configured bound; the write
	// is durable on the primary but was never acknowledged to the caller.
	ErrShipTimeout = errors.New("repl: timed out waiting for standby ack")
	// ErrPromoted is returned by shipper operations after failover
	// dissolved the old primary/standby pairing.
	ErrPromoted = errors.New("repl: cluster already promoted")
	// ErrLogTail refuses to continue a sealed standby's log whose reopened
	// tail is not the applied LSN the seal returned: the log holds bytes
	// the standby never applied, or lacks bytes it did.
	ErrLogTail = errors.New("repl: reopened log tail is not the applied LSN")
)
