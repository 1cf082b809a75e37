// Package shard hash-partitions the keyspace across N independent
// engine+TC instances so a fault degrades 1/N of the keys instead of
// 100%.
//
// The paper's cost/performance argument (Eq. 7-8) assumes the caching
// hierarchy scales with traffic; Deuteronomy separates the transaction
// component from the data component exactly so data-management instances
// can be multiplied and moved independently. This package applies that
// idea to the hardened single-store front-end built in earlier PRs:
//
//   - Every shard is a full fault domain: its own recovery log (plain or
//     mirrored device), its own engine front-end (admission queue +
//     circuit breaker), its own health, and optionally its own warm
//     standby (repl.Cluster) with automatic failover. A latched-degraded
//     store, a quarantined mirror, or a dead log device takes down one
//     shard; the router keeps serving the rest.
//   - Scatter-gather scans merge the per-shard iterators into one
//     globally ordered stream. When a shard cannot serve its range the
//     caller chooses the failure mode: fail fast, or take the surviving
//     shards' data plus a typed *PartialScanError naming what is missing.
//   - Live migration moves one shard to a fresh owner while traffic
//     continues: the shard's recovery log is streamed to the new owner
//     with the internal/repl shipper, the old owner is fenced behind an
//     owner-generation epoch (its in-flight commits are rejected with
//     ErrMoved), the tail is drained, and the router cuts over. Requests
//     that race the cutover wait briefly for the new owner and retry
//     transparently.
package shard

import (
	"errors"
	"fmt"

	"costperf/internal/deuteronomy"
	"costperf/internal/masstree"
)

// Typed sentinels. errors.Is works through every wrapper in the package.
var (
	// ErrMoved reports a write routed to a shard owner that has been
	// fenced by a migration: the owner's generation is stale and its
	// commits are rejected. The router retries moved writes against the
	// new owner once it installs; ErrMoved escapes to the caller only
	// when the cutover outlasts the configured wait.
	ErrMoved = errors.New("shard: owner superseded by migration")
	// ErrPartialScan reports a scatter-gather scan that completed with
	// one or more shards unavailable. The concrete error is always a
	// *PartialScanError carrying the per-shard failures; the merged
	// output delivered before the error is the surviving shards' data,
	// correctly ordered.
	ErrPartialScan = errors.New("shard: partial scan result")
	// ErrMigrating rejects a migration of a shard that already has one
	// in flight (resume the existing *Migration instead).
	ErrMigrating = errors.New("shard: migration already in flight")
	// ErrReplicatedShard rejects live migration of a shard running as a
	// replicated cluster: its mobility story is the cluster's own
	// failover (promote the warm standby), not log re-shipping — the
	// standby already holds the byte-identical log.
	ErrReplicatedShard = errors.New("shard: replicated shards move by failover, not migration")
	// ErrCatchup reports a migration that could not bring the target's
	// applied log even with the source's durable log within the
	// configured bounds (for example because the migration link stayed
	// partitioned). The migration is resumable once the link heals.
	ErrCatchup = errors.New("shard: migration target failed to catch up")
	// ErrClosed is returned by operations on a closed router.
	ErrClosed = errors.New("shard: router closed")
	// ErrBadMap reports a shard map (typically a wire MOVED body) that
	// failed structural validation: wrong length, unsorted ranges,
	// duplicate slots. A damaged map is refused, never routed with.
	ErrBadMap = errors.New("shard: malformed shard map")
	// ErrNotAdjacent rejects a merge of two shards whose hash ranges are
	// not contiguous — only neighbors in the placement table can merge
	// into one range.
	ErrNotAdjacent = errors.New("shard: shards are not hash-adjacent")
	// ErrNoShard reports an operation naming a slot the current map does
	// not place (retired by a resize, or never existed).
	ErrNoShard = errors.New("shard: no such shard in the current map")
)

// fnv64 offset/prime (FNV-1a), inlined so routing needs no allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// SlotOf routes a key under the default n-shard placement: the even
// range map an n-shard router is born with (shardmap.go). Tests,
// benchmarks, and wire clients that pre-route use it; a router that has
// been resized routes by its live map instead (Router.SlotOfKey).
func SlotOf(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	return NewEvenMap(n).SlotOfKey(key)
}

// MassDC adapts a main-memory MassTree to tc.DataComponent (and
// tc.Scanner, so snapshot scans work). It is the default data component
// for router shards and the shared oracle/replica adapter the kvbench
// standby mode and the integration harnesses use.
type MassDC struct{ t *masstree.Tree }

// NewMassDC returns an empty MassTree-backed data component.
func NewMassDC() *MassDC { return &MassDC{t: masstree.New(nil)} }

// Get implements tc.DataComponent.
func (d *MassDC) Get(key []byte) ([]byte, bool, error) {
	v, ok := d.t.Get(key)
	return v, ok, nil
}

// BlindWrite implements tc.DataComponent.
func (d *MassDC) BlindWrite(key, val []byte) error { d.t.Put(key, val); return nil }

// Delete implements tc.DataComponent.
func (d *MassDC) Delete(key []byte) error { d.t.Delete(key); return nil }

// Scan implements tc.Scanner.
func (d *MassDC) Scan(start []byte, limit int, fn func(key, val []byte) bool) error {
	d.t.Scan(start, limit, fn)
	return nil
}

// Len reports the number of keys held.
func (d *MassDC) Len() int { return d.t.Len() }

// NewBwDC returns an empty Bw-tree data component: the paper's data
// caching stack (deuteronomy.Open) on its own fresh Samsung-class SSD,
// uncharged like NewMassDC. The stack's tree serves tc.DataComponent and
// tc.Scanner; its Cache and Log stay reachable for maintenance.
func NewBwDC() *deuteronomy.Stack {
	s, err := deuteronomy.Open(deuteronomy.Config{})
	if err != nil {
		// Only a programming error fails to open an empty device.
		panic(fmt.Sprintf("shard: NewBwDC: %v", err))
	}
	return s
}
