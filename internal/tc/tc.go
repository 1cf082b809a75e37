package tc

import (
	"errors"
	"sync"
	"sync/atomic"

	"costperf/internal/fault"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/recordcache"
	"costperf/internal/sim"
	"costperf/internal/ssd"
)

// DataComponent is the interface the TC requires of its data component
// (the Bw-tree in Deuteronomy). Writes are blind: they must not require
// reading the target page.
type DataComponent interface {
	Get(key []byte) ([]byte, bool, error)
	BlindWrite(key, val []byte) error
	Delete(key []byte) error
}

// Common errors.
var (
	ErrTxDone   = errors.New("tc: transaction already finished")
	ErrConflict = errors.New("tc: write-write conflict")
	ErrClosed   = errors.New("tc: closed")
	ErrNoScan   = errors.New("tc: data component does not support scans")
	// ErrDegraded is returned by commits after a persistent log-device
	// write failure latched the TC read-only (see Stats.Health).
	ErrDegraded = errors.New("tc: degraded (read-only)")
)

// version is one committed value in the MVCC store. The value slices
// alias the recovery-log buffers conceptually: retaining them in memory is
// the paper's "recovery log as record cache".
type version struct {
	val      []byte
	commitTS uint64
	isDelete bool
}

// keyVersions is a key's version chain, newest first and never empty.
// Commit and GC trim it to what live snapshots can read: one version when
// no older snapshot is live.
type keyVersions struct {
	vs []version
}

// visible returns the newest version a snapshot at ts reads. A key with no
// entry (nil) or no visible version reads from the read cache and the data
// component, whose value every live snapshot shares.
func (kv *keyVersions) visible(ts uint64) (version, bool) {
	if kv != nil {
		for _, v := range kv.vs {
			if v.commitTS <= ts {
				return v, true
			}
		}
	}
	return version{}, false
}

// Stats counts TC events.
type Stats struct {
	Conflicts        metrics.Counter
	VersionStoreHits metrics.Counter // reads served by MVCC versions (log-buffer record cache)
	ReadCacheHits    metrics.Counter // reads served by the read cache
	DCReads          metrics.Counter // reads that had to go to the data component
	VersionsDropped  metrics.Counter // versions reclaimed by commit-time trims and GC
	// Retry meters the transient-fault retry budget spent on log I/O.
	Retry metrics.RetryStats
	// Health latches degraded (read-only) after a persistent log failure.
	Health metrics.Health
}

// Config configures a TC.
type Config struct {
	// DC is the data component.
	DC DataComponent
	// LogDevice holds the recovery log (typically a dedicated device or
	// region).
	LogDevice ssd.Dev
	// LogBufferBytes sizes the in-memory recovery-log buffer (default 1 MiB).
	LogBufferBytes int
	// Session enables execution-cost accounting (may be nil).
	Session *sim.Session
	// Obs, when non-nil, receives one tracing span per transactional
	// read/commit; reads that fall through to the data component are
	// marked as misses. Nil traces nothing at zero cost.
	Obs *obs.Tracer
	// CommitGate, when non-nil, is consulted at the start of every commit;
	// a non-nil return rejects the transaction. Replication installs an
	// epoch fence here so a demoted primary cannot commit after failover.
	CommitGate func() error
	// LogStartLSN positions the recovery log's first append at this device
	// offset instead of 0. A promoted standby continues its shipped log in
	// place, keeping the whole LSN history PITR-addressable.
	LogStartLSN int64
	// InitialClock seeds the commit-timestamp clock (a promoted standby
	// passes the highest timestamp it applied, keeping timestamps
	// monotonic across failover).
	InitialClock uint64
}

// readCacheBytes budgets the log-structured read cache.
const readCacheBytes = 4 << 20

// TC is the transaction component. Safe for concurrent use.
type TC struct {
	cfg Config

	clock  atomic.Uint64 // logical timestamp: even granularity is fine
	closed atomic.Bool

	mu     sync.Mutex
	mvcc   map[string]*keyVersions
	active map[uint64]uint64 // txID -> beginTS
	nextTx uint64
	log    *rlog
	rcache *recordcache.Ring
	stats  Stats
}

// New creates a TC over the given data component.
func New(cfg Config) (*TC, error) {
	if cfg.DC == nil {
		return nil, errors.New("tc: nil data component")
	}
	if cfg.LogDevice == nil {
		return nil, errors.New("tc: nil log device")
	}
	rc, err := recordcache.NewRing(readCacheBytes)
	if err != nil {
		return nil, err
	}
	tc := &TC{
		cfg:    cfg,
		mvcc:   map[string]*keyVersions{},
		active: map[uint64]uint64{},
		nextTx: 1,
		rcache: rc,
	}
	tc.log = newRlog(cfg.LogDevice, cfg.LogBufferBytes, fault.DefaultRetry(), &tc.stats.Retry, &tc.stats.Health)
	tc.log.start = cfg.LogStartLSN
	tc.clock.Store(cfg.InitialClock)
	// A self-healing log device (ssd.Mirror) escalates unrecoverable
	// dual-leg corruption by latching the TC read-only.
	if ha, ok := cfg.LogDevice.(interface {
		AttachHealth(*metrics.Health)
	}); ok {
		ha.AttachHealth(&tc.stats.Health)
	}
	return tc, nil
}

// Stats returns the TC's counters.
func (tc *TC) Stats() *Stats { return &tc.stats }

// Tx is a transaction handle (snapshot isolation, first-committer-wins).
// A Tx is used by one goroutine.
type Tx struct {
	tc      *TC
	id      uint64
	beginTS uint64
	writes  map[string]redoEntry
	done    bool
}

// Begin starts a transaction reading from the current snapshot.
func (tc *TC) Begin() (*Tx, error) {
	if tc.closed.Load() {
		return nil, ErrClosed
	}
	tc.mu.Lock()
	id := tc.nextTx
	tc.nextTx++
	begin := tc.clock.Load()
	tc.active[id] = begin
	tc.mu.Unlock()
	return &Tx{tc: tc, id: id, beginTS: begin, writes: map[string]redoEntry{}}, nil
}

// Read returns the value of key visible at the transaction's snapshot.
// The lookup path is the Figure 6 cascade: own writes, MVCC version store
// (recovery-log record cache), read cache, then the data component.
func (t *Tx) Read(key []byte) (_ []byte, _ bool, err error) {
	if t.done {
		return nil, false, ErrTxDone
	}
	tc := t.tc
	sp := tc.cfg.Obs.Start(obs.OpGet)
	defer func() { sp.End(err) }()
	ch := tc.cfg.Session.Begin()
	ch.Hash()
	// 1. Own writes.
	if w, ok := t.writes[string(key)]; ok {
		ch.Settle()
		if w.isDelete {
			return nil, false, nil
		}
		return w.val, true, nil
	}
	// 2. MVCC version store: newest version with commitTS <= snapshot. The
	// clock is read under the same lock, so every commit it covers has
	// already reached the data component.
	tc.mu.Lock()
	v, ok := tc.mvcc[string(key)].visible(t.beginTS)
	clock := tc.clock.Load()
	tc.mu.Unlock()
	if ok {
		tc.stats.VersionStoreHits.Inc()
		ch.Chase(1)
		ch.Copy(len(v.val))
		ch.Settle()
		return v.val, !v.isDelete, nil
	}
	// 3. Read cache.
	if v, ok := tc.rcache.Get(key); ok {
		tc.stats.ReadCacheHits.Inc()
		ch.Hash()
		ch.Copy(len(v))
		ch.Settle()
		return v, true, nil
	}
	// 4. Data component. The TC's own caches all missed; whether the DC
	// itself hits memory is the DC's span to report — from the TC's view
	// this read escaped its caching tiers.
	sp.Miss()
	tc.stats.DCReads.Inc()
	ch.Settle() // the DC charges its own operation
	dv, dok, err := tc.cfg.DC.Get(key)
	if err != nil {
		return nil, false, err
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if kv := tc.mvcc[string(key)]; kv != nil && kv.vs[0].commitTS > clock {
		// A commit raced the DC read, which may have returned its value.
		// That commit captured this snapshot's pre-image first.
		if v, ok := kv.visible(t.beginTS); ok {
			return v.val, !v.isDelete, nil
		}
	} else if dok {
		// No commit since clock: the value is current. Adding it under
		// tc.mu keeps a commit's invalidation from slipping in between.
		tc.rcache.Add(key, dv)
	}
	return dv, dok, nil
}

// Write buffers an update; it becomes visible at commit.
func (t *Tx) Write(key, val []byte) error {
	if t.done {
		return ErrTxDone
	}
	t.writes[string(key)] = redoEntry{
		key: append([]byte(nil), key...),
		val: append([]byte(nil), val...),
	}
	return nil
}

// Delete buffers a deletion.
func (t *Tx) Delete(key []byte) error {
	if t.done {
		return ErrTxDone
	}
	t.writes[string(key)] = redoEntry{
		key:      append([]byte(nil), key...),
		isDelete: true,
	}
	return nil
}

// Commit validates (first-committer-wins), appends the redo record,
// installs versions, and posts blind updates to the data component.
func (t *Tx) Commit() (err error) {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	tc := t.tc
	sp := tc.cfg.Obs.Start(obs.OpCommit)
	defer func() { sp.End(err) }()
	if tc.closed.Load() {
		return ErrClosed
	}
	if gate := tc.cfg.CommitGate; gate != nil {
		if err := gate(); err != nil {
			tc.mu.Lock()
			delete(tc.active, t.id)
			tc.mu.Unlock()
			return err
		}
	}
	tc.mu.Lock()
	delete(tc.active, t.id)
	if len(t.writes) == 0 {
		tc.mu.Unlock()
		return nil
	}
	// Write-write conflict check: another committer touched our keys
	// after our snapshot.
	for k := range t.writes {
		if kv := tc.mvcc[k]; kv != nil && kv.vs[0].commitTS > t.beginTS {
			tc.mu.Unlock()
			tc.stats.Conflicts.Inc()
			return ErrConflict
		}
	}
	commitTS := tc.clock.Add(1)
	rec := commitRecord{commitTS: commitTS}
	for _, w := range t.writes {
		rec.entries = append(rec.entries, w)
	}
	// Redo log append, version install, and DC blind updates happen before
	// releasing the commit section: releasing earlier would let a later
	// committer's updates reach the log or the data component first,
	// reordering the durable state against commit timestamps (a lost update
	// once GC makes the DC authoritative). Deuteronomy orders DC updates by
	// timestamp; serializing the post-commit publication is our
	// equivalent. Reads remain concurrent (they take the same mutex only
	// briefly) and the log still group-commits.
	//
	// Pre-image captures and the log append come first: if either fails, no
	// version of this transaction has been installed, so the in-memory state
	// never diverges from what recovery can reconstruct — the transaction
	// simply never committed. A captured pre-image only repeats the DC.
	defer tc.mu.Unlock()
	oldest := tc.oldestLocked()
	for _, w := range rec.entries {
		if oldest == commitTS || tc.mvcc[string(w.key)] != nil {
			continue
		}
		// A key with no entry reads from the data component, which this
		// commit is about to overwrite. An older snapshot is live, so
		// capture the pre-image it reads, at timestamp 0: visible to every
		// live snapshot.
		pv, pok, err := tc.cfg.DC.Get(w.key)
		if err != nil {
			return err
		}
		tc.mvcc[string(w.key)] = &keyVersions{vs: []version{{val: pv, isDelete: !pok}}}
	}
	if err := tc.log.append(rec); err != nil {
		return err
	}
	for _, w := range rec.entries {
		kv := tc.mvcc[string(w.key)]
		if kv == nil {
			kv = &keyVersions{}
			tc.mvcc[string(w.key)] = kv
		}
		kv.vs = append(kv.vs, version{})
		copy(kv.vs[1:], kv.vs)
		kv.vs[0] = version{val: w.val, commitTS: commitTS, isDelete: w.isDelete}
		tc.trimLocked(kv, oldest)
		tc.rcache.Invalidate(w.key)
	}
	return redo(tc.cfg.DC, rec.entries)
}

// Abort discards the transaction.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	tc := t.tc
	tc.mu.Lock()
	delete(tc.active, t.id)
	tc.mu.Unlock()
}

// Flush forces the recovery log to the device (group commit).
func (tc *TC) Flush() error { return tc.log.flush() }

// oldestLocked returns the oldest snapshot a live transaction reads at: the
// minimum of the active begin timestamps and the clock.
func (tc *TC) oldestLocked() uint64 {
	oldest := tc.clock.Load()
	for _, begin := range tc.active {
		if begin < oldest {
			oldest = begin
		}
	}
	return oldest
}

// trimLocked drops every version older than the newest one a snapshot at
// oldest reads; no live snapshot reads them. The chain keeps its capacity,
// so a commit installs in place.
func (tc *TC) trimLocked(kv *keyVersions, oldest uint64) {
	for i, v := range kv.vs {
		if v.commitTS <= oldest {
			if dropped := kv.vs[i+1:]; len(dropped) > 0 {
				tc.stats.VersionsDropped.Add(int64(len(dropped)))
				clear(dropped)
				kv.vs = kv.vs[:i+1]
			}
			return
		}
	}
}

// GC deletes every entry whose newest version is globally visible — the
// data component holds that value, so readers fall through to it — and
// trims the rest as Commit does. Commit keeps chains short; GC is what
// lets entries leave the version store.
func (tc *TC) GC() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	oldest := tc.oldestLocked()
	for k, kv := range tc.mvcc {
		if kv.vs[0].commitTS <= oldest {
			tc.stats.VersionsDropped.Add(int64(len(kv.vs)))
			delete(tc.mvcc, k)
			continue
		}
		tc.trimLocked(kv, oldest)
	}
}

// VersionCount reports the number of keys in the version store (for tests
// and experiments).
func (tc *TC) VersionCount() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.mvcc)
}

// Close flushes the log and closes the TC.
func (tc *TC) Close() error {
	if tc.closed.Swap(true) {
		return nil
	}
	return tc.log.flush()
}

// RecoverResult reports what log replay reconstructed.
type RecoverResult struct {
	// MaxTS is the highest commit timestamp replayed.
	MaxTS uint64
	// Applied is the number of redo entries applied to the data component.
	Applied int
	// Replay summarizes how far the log scan got and why it stopped.
	Replay ReplaySummary
}

// Recover replays a recovery log against a data component, reapplying all
// committed writes in commit order. Redo application uses the same blind
// updates as normal operation — the paper notes there is no difference
// between normal and recovery processing (Section 6.2). The replay summary
// (records applied, truncation offset, stop reason) is logged and returned.
func Recover(logDevice ssd.Dev, dc DataComponent) (RecoverResult, error) {
	return RecoverTo(logDevice, dc, RecoverOpts{})
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
