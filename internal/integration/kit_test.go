package integration

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"costperf/internal/engine"
	"costperf/internal/fault"
	"costperf/internal/shard"
	"costperf/internal/tc"
)

// The chaos kit: what the seeded sweeps share. A sweep declares its seed
// counts and guards in a sweep value and hands run a per-seed body. The
// body builds its system, drives writers whose acknowledged writes land in
// an ackedOracle (arbitrary values) or a versionLedger ((key index,
// version) values), and checks the system against them at the end.

// full switches every sweep to its soak seed count (scripts/check.sh sets
// it under the CHECK_* soak gates); the default keeps tier-1 runs quick.
var full = flag.Bool("full", false, "run every seeded chaos sweep at its full soak seed count")

// sweep describes one seeded sweep: seeds first, first+1, ... as subtests.
type sweep struct {
	first          int64
	n, short, soak int // seed counts by default, under -short, under -full (0: n)
	name           func(seed int64) string
	parallel       bool
	// watchdog bounds one seed: past it every stack is dumped and the
	// binary panics, as `go test -timeout` does (0: no bound).
	watchdog time.Duration
	// leakCheck requires the sweep as a whole to leave no goroutine behind.
	leakCheck bool
}

// run runs body once per seed, each on its own subtest goroutine.
func (s sweep) run(t *testing.T, body func(t *testing.T, seed int64)) {
	n := s.n
	switch {
	case *full && s.soak > 0:
		n = s.soak
	case testing.Short():
		n = s.short
	}
	if s.leakCheck {
		baseline := runtime.NumGoroutine()
		t.Cleanup(func() { checkNoLeaks(t, baseline) })
	}
	for seed := s.first; seed < s.first+int64(n); seed++ {
		t.Run(s.name(seed), func(t *testing.T) {
			if s.parallel {
				t.Parallel()
			}
			if s.watchdog > 0 {
				defer watchdog(t.Name(), s.watchdog).Stop()
			}
			body(t, seed)
		})
	}
}

// watchdog panics with every goroutine's stack once d elapses, unless the
// returned timer is stopped first.
func watchdog(name string, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s wedged past %v\n%s", name, d, buf[:runtime.Stack(buf, true)]))
	})
}

// checkNoLeaks waits up to 5s for the goroutine count to fall back to
// baseline: every server Close waits for its goroutines, every client Close
// fails its pendings and joins its receiver.
func checkNoLeaks(t *testing.T, baseline int) {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Errorf("goroutines leaked: %d -> %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			return
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// versionVal encodes a (key index, version) value: 4 bytes of index, then
// 8 of version, big-endian.
func versionVal(idx int, version uint64) []byte {
	v := make([]byte, 12)
	binary.BigEndian.PutUint32(v, uint32(idx))
	binary.BigEndian.PutUint64(v[4:], version)
	return v
}

// decodeVersionVal is versionVal's inverse.
func decodeVersionVal(v []byte) (idx int, version uint64, err error) {
	if len(v) != 12 {
		return 0, 0, fmt.Errorf("value has %d bytes, want 12", len(v))
	}
	return int(binary.BigEndian.Uint32(v)), binary.BigEndian.Uint64(v[4:]), nil
}

// versionLedger tracks, per key index, the highest version handed to a Put
// and the highest version acknowledged. Each key has one writer, which
// issues the next version only after the previous Put settled, so both
// move monotonically and any older version a reader sees is a store bug.
type versionLedger struct {
	issued, acked []atomic.Uint64
	// ackedAll lists every acknowledged version per key. Only the key's
	// writer appends, and checkApplied reads it after the writers stopped.
	ackedAll [][]uint64
}

func newVersionLedger(keys int) *versionLedger {
	return &versionLedger{
		issued:   make([]atomic.Uint64, keys),
		acked:    make([]atomic.Uint64, keys),
		ackedAll: make([][]uint64, keys),
	}
}

// issue hands out key idx's next version; call it before the Put, so an
// observed version never exceeds issued.
func (l *versionLedger) issue(idx int) uint64 { return l.issued[idx].Add(1) }

// ack records that key idx's Put of version was acknowledged.
func (l *versionLedger) ack(idx int, version uint64) {
	l.acked[idx].Store(version)
	l.ackedAll[idx] = append(l.ackedAll[idx], version)
}

// checkVersion reports why v, read for key idx, is impossible: it must
// decode to key idx at a version in [floor, issued].
func (l *versionLedger) checkVersion(idx int, v []byte, floor uint64) error {
	ki, ver, err := decodeVersionVal(v)
	switch {
	case err != nil:
		return err
	case ki != idx:
		return fmt.Errorf("holds the value of key %d", ki)
	case ver < floor:
		return fmt.Errorf("went back in time: v%d after v%d was acked", ver, floor)
	}
	if hi := l.issued[idx].Load(); ver > hi {
		return fmt.Errorf("holds v%d, but only v%d was ever issued", ver, hi)
	}
	return nil
}

// checkApplied fails the test unless the store applied every
// acknowledged version.
func (l *versionLedger) checkApplied(t *testing.T, applied *applyLedger) {
	t.Helper()
	for idx, versions := range l.ackedAll {
		for _, v := range versions {
			if applied.count(versionVal(idx, v)) == 0 {
				t.Fatalf("key %d version %d acked but never applied", idx, v)
			}
		}
	}
}

// applyLedger decorates the store under an engine and counts successful
// Puts per exact value. Values encode (key index, version), so a count is
// how often the store applied one version, whatever the layers above it
// acknowledged.
type applyLedger struct {
	engine.Store

	mu      sync.Mutex
	applies map[string]int
}

func newApplyLedger(s engine.Store) *applyLedger {
	return &applyLedger{Store: s, applies: make(map[string]int)}
}

func (l *applyLedger) Put(ctx context.Context, key, val []byte) error {
	err := l.Store.Put(ctx, key, val)
	if err == nil {
		l.mu.Lock()
		l.applies[string(val)]++
		l.mu.Unlock()
	}
	return err
}

func (l *applyLedger) count(val []byte) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applies[string(val)]
}

// ackedOracle records only acknowledged writes: the state the store must
// hold once every writer has stopped.
type ackedOracle struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newAckedOracle() *ackedOracle { return &ackedOracle{m: map[string][]byte{}} }

func (o *ackedOracle) ack(key, val []byte) {
	o.mu.Lock()
	o.m[string(key)] = val
	o.mu.Unlock()
}

// snapshot copies the oracle as of now.
func (o *ackedOracle) snapshot() *ackedOracle {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := newAckedOracle()
	for k, v := range o.m {
		c.m[k] = v
	}
	return c
}

// verifyReads fails the test unless every acknowledged key reads back
// byte-identical through get.
func (o *ackedOracle) verifyReads(t *testing.T, get func(key []byte) ([]byte, bool, error)) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, want := range o.m {
		got, ok, err := get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("acked key %q unreadable: ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acked key %q = %q, want %q", k, got, want)
		}
	}
}

// verifyScan fails the test unless a full scan is in strict key order and
// equals the oracle exactly: nothing extra, nothing stale, nothing missing.
func (o *ackedOracle) verifyScan(t *testing.T, scan func(fn func(k, v []byte) bool) error) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	dump := map[string][]byte{}
	var prev []byte
	err := scan(func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Errorf("scan order violated: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		dump[string(k)] = append([]byte(nil), v...)
		return true
	})
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	if len(dump) != len(o.m) {
		t.Fatalf("store holds %d keys, oracle %d", len(dump), len(o.m))
	}
	for k, want := range o.m {
		if !bytes.Equal(dump[k], want) {
			t.Fatalf("scanned key %q = %q, want %q", k, dump[k], want)
		}
	}
}

// preload writes 200 keys through put and acknowledges them in o.
func preload(t *testing.T, seed int64, put func(context.Context, []byte, []byte) error, o *ackedOracle) {
	t.Helper()
	for i := 0; i < 200; i++ {
		k, v := []byte(fmt.Sprintf("init%04d", i)), []byte(fmt.Sprintf("seed%d-v%d", seed, i))
		if err := put(context.Background(), k, v); err != nil {
			t.Fatalf("preload: %v", err)
		}
		o.ack(k, v)
	}
}

// writerFleet is a cutover sweep's background load: three writers on
// disjoint key slices, each writing monotonically increasing versions
// until stopped, every acknowledged write recorded in the oracle. A write
// may fail only with the moved-owner family, which a fenced owner's commit
// gate returns before the log append, so the write never committed and
// the oracle keeps the previous version; and only on a key mayFail accepts.
type writerFleet struct {
	stop atomic.Bool
	wg   sync.WaitGroup
	errs chan error
}

func startWriters(seed int64, put func(context.Context, []byte, []byte) error, o *ackedOracle, mayFail func(key []byte) bool) *writerFleet {
	const writers = 3
	f := &writerFleet{errs: make(chan error, writers)}
	ctx := context.Background()
	for w := 0; w < writers; w++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			wrng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			for version := 0; !f.stop.Load(); version++ {
				key := []byte(fmt.Sprintf("w%d-k%02d", w, wrng.Intn(40)))
				val := []byte(fmt.Sprintf("w%d-s%d-v%06d", w, seed, version))
				err := put(ctx, key, val)
				switch {
				case err == nil:
					o.ack(key, val)
				case !errors.Is(err, shard.ErrMoved) && !errors.Is(err, engine.ErrClosed) && !errors.Is(err, tc.ErrClosed):
					f.errs <- fmt.Errorf("writer %d key %s: unexpected error %w", w, key, err)
					return
				case !mayFail(key):
					f.errs <- fmt.Errorf("writer %d: error %v on key %s outside the moving range", w, err, key)
					return
				}
			}
		}()
	}
	return f
}

// finish lets the writers land a few more versions, stops them, and fails
// the test with every error they reported.
func (f *writerFleet) finish(t *testing.T) {
	t.Helper()
	time.Sleep(5 * time.Millisecond)
	f.stop.Store(true)
	f.wg.Wait()
	close(f.errs)
	for err := range f.errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// phaseCrash fails a cutover once, at one phase boundary (at < 0: never).
type phaseCrash struct {
	at    shard.Phase
	fired atomic.Bool
}

func (c *phaseCrash) onPhase(ph shard.Phase) error {
	if c.at >= 0 && ph == c.at && !c.fired.Swap(true) {
		return errors.New("injected crash")
	}
	return nil
}

// driveCutover pushes a resumable cutover (Migrate, Split or Merge) to
// Done: each Run resumes where the last one stopped, through the injected
// crash and through dials refused while link is partitioned in short,
// healed episodes. It then checks the crash fired.
func driveCutover(t *testing.T, seed int64, label string, link *fault.NetInjector, crash *phaseCrash,
	run func(context.Context) error, done func() bool) {
	t.Helper()
	partDone := make(chan struct{})
	go func() {
		defer close(partDone)
		// Time-bounded episodes with explicit heals: a message-count
		// budget alone can wedge the link forever, because refused dials
		// do not consume it.
		prng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for !done() {
			time.Sleep(time.Duration(1+prng.Intn(3)) * time.Millisecond)
			link.Partition()
			time.Sleep(time.Duration(1+prng.Intn(2)) * time.Millisecond)
			link.Heal()
		}
		link.Heal()
	}()
	var lastErr error
	for attempt := 0; attempt < 200 && !done(); attempt++ {
		if lastErr = run(context.Background()); lastErr != nil {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !done() {
		t.Fatalf("%s never completed; last error: %v", label, lastErr)
	}
	<-partDone
	if crash.at >= 0 && !crash.fired.Load() {
		t.Fatalf("%s crash at %v never fired", label, crash.at)
	}
}

// checkFenced fails the test unless a commit on a stale owner's TC is
// rejected with want.
func checkFenced(t *testing.T, name string, src *tc.TC, want error) {
	t.Helper()
	tx, err := src.Begin()
	if err != nil {
		t.Fatalf("begin on fenced %s: %v", name, err)
	}
	if err := tx.Write([]byte("zombie"), []byte("write")); err != nil {
		t.Fatalf("stage write on fenced %s: %v", name, err)
	}
	if err := tx.Commit(); !errors.Is(err, want) {
		t.Fatalf("commit on fenced %s = %v, want %v", name, err, want)
	}
}
