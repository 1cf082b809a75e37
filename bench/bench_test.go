package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"costperf/internal/engine"
)

func TestStreamIsSeeded(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w.scaled(50).spec)
		a := streamHash(s.ops(1, 0, 2, 4096))
		if b := streamHash(s.ops(1, 0, 2, 4096)); a != b {
			t.Errorf("%s: same seed gave op-stream hashes %x and %x", w.name, a, b)
		}
		if b := streamHash(s.ops(2, 0, 2, 4096)); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.name)
		}
		if b := streamHash(s.ops(1, 1, 2, 4096)); a == b {
			t.Errorf("%s: workers 0 and 1 gave the same op stream", w.name)
		}
	}
}

func TestStreamMixAndWriterOwnership(t *testing.T) {
	spec := streamSpec{keys: 1000, dist: distZipf, mix: mix{put: 0.15, scan: 0.20}}
	const n, workers = 100_000, 4
	var counts [numKinds]int
	for _, o := range newStream(spec).ops(7, 3, workers, n) {
		counts[o.kind()]++
		if o.id() >= uint64(spec.keys) {
			t.Fatalf("key id %d outside the keyspace", o.id())
		}
		if o.kind() == opPut && o.id()%workers != 3 {
			t.Fatalf("worker 3 writes key %d, which another worker owns", o.id())
		}
	}
	for k, want := range [numKinds]float64{0.65, 0.15, 0.20} {
		if got := float64(counts[k]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.3f, want %.2f", kindNames[k], got, want)
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	// Log-uniform over 100 ns .. 100 ms, so every octave is exercised.
	var h hist
	var all []float64
	r := rng(1)
	for i := 0; i < 200_000; i++ {
		v := 100 * math.Pow(1e6, r.float())
		h.record(int64(v))
		all = append(all, float64(int64(v)))
	}
	sort.Float64s(all)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := all[int(math.Ceil(q*float64(len(all))))-1]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%g = %.0f ns, exact %.0f ns: off by more than 1 %%", 100*q, got, want)
		}
	}
	// Failed ops sort last: with 2 % failed, p99 is among them.
	for i := 0; i < 4100; i++ {
		h.recordFailed()
	}
	if got := h.quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2 %% failed ops = %v, want +Inf", got)
	}
	if got := h.quantile(0.5); math.IsInf(got, 1) {
		t.Errorf("p50 with 2 %% failed ops is +Inf")
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] → backend [10,90] → dc [20,50] and ssd [60,70]; a second op [200,230] alone.
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "backend", Start: 10, End: 90, Parent: 0, Op: 1},
		{Name: "dc", Start: 20, End: 50, Parent: 1, Op: 1},
		{Name: "ssd", Start: 60, End: 70, Parent: 1, Op: 1},
		{Name: "op", Start: 200, End: 230, Parent: -1, Op: 2},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"op":      {Calls: 2, TotalNs: 130, SelfNs: 50},
		"backend": {Calls: 1, TotalNs: 80, SelfNs: 40},
		"dc":      {Calls: 1, TotalNs: 30, SelfNs: 30},
		"ssd":     {Calls: 1, TotalNs: 10, SelfNs: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
	hit, miss := hitMiss(spans, "backend", "ssd")
	if hit != 0 || miss != 0.040 {
		t.Errorf("hitMiss = %v, %v; want 0 hits and one 0.040 us miss", hit, miss)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer(8)
	if id := tr.begin("off"); id != -1 {
		t.Fatalf("a tracer that is off recorded a span")
	}
	tr.on.Store(true)
	op := tr.begin("op")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(op)
	next := tr.begin("op")
	tr.end(next)
	if tr.spans[inner].Parent != op || tr.spans[op].Parent != -1 || tr.spans[next].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[op].Op == tr.spans[next].Op || tr.spans[op].Op != tr.spans[inner].Op {
		t.Errorf("op ids: %+v", tr.spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // the untraced configuration must not panic
}

func TestCheckValue(t *testing.T) {
	v := make([]byte, valLen)
	fillValue(v, 42, 7)
	if err := checkValue(v, 42); err != nil {
		t.Fatalf("good value rejected: %v", err)
	}
	if err := checkValue(v, 43); err == nil {
		t.Errorf("a value of key 42 was accepted for key 43")
	}
	for _, bit := range []int{0, 8*8 + 3, 16*8 + 1, valLen*8 - 1} {
		flipped := append([]byte(nil), v...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := checkValue(flipped, 42); err == nil {
			t.Errorf("a value with bit %d flipped was accepted", bit)
		}
	}
	if err := checkValue(v[:valLen-1], 42); err == nil {
		t.Errorf("a short value was accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../" + manifestPath)
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds || len(m.Workloads) != len(workloads) ||
		len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json is out of step with the program's tables; run with -manifest")
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, want %q", i, m.Workloads[i].Name, w.name)
		}
	}
	for i, d := range endToEnd {
		e := m.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end-to-end metric %d is %+v, want %s", i, e, d.name)
		}
		if e.Bound < d.floor || e.Bound > maxBound {
			t.Errorf("%s: bound %v outside [floor %v, %v]", d.name, e.Bound, d.floor, maxBound)
		}
	}
	for i, d := range perLayer {
		if l := m.PerLayer[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
			t.Errorf("per-layer metric %d is %+v, want %s", i, l, d.name)
		}
	}
}

// smokeOptions parses a smoke invocation writing under a temporary directory.
func smokeOptions(t *testing.T, args ...string) options {
	t.Helper()
	o, code := parseOptions(append([]string{"-smoke", "-out", t.TempDir()}, args...))
	if code != 0 {
		t.Fatalf("bad options %v", args)
	}
	return o
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run takes several seconds")
	}
	var out bytes.Buffer
	start := time.Now()
	if code := dispatch(smokeOptions(t), &out); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, out.String())
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke run took %v, want under 20 s", d)
	}
	text := out.String()
	if !strings.Contains(text, "not a measurement") {
		t.Errorf("smoke output does not say it is not a measurement")
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if last := lines[len(lines)-1]; !strings.HasSuffix(last, `"claim": null}`) {
		t.Errorf("last line %q does not end with a null claim", last)
	}
	for _, w := range workloads {
		if !strings.Contains(text, "== "+w.name+" ") {
			t.Errorf("smoke run skipped %s", w.name)
		}
	}
}

// flipStore is a faulty engine.Store: every 100th Get returns a value with
// one bit flipped.
type flipStore struct {
	engine.Store
	n int
}

func (s *flipStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	v, ok, err := s.Store.Get(ctx, key)
	if s.n++; ok && s.n%100 == 0 {
		v = append([]byte(nil), v...)
		v[20] ^= 4
	}
	return v, ok, err
}

// wrongKeyStore answers every 100th Get with the neighbouring key's value.
type wrongKeyStore struct {
	engine.Store
	n int
}

func (s *wrongKeyStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if s.n++; s.n%100 == 0 {
		other := append([]byte(nil), key...)
		other[keyLen-1] ^= 1
		return s.Store.Get(ctx, other)
	}
	return s.Store.Get(ctx, key)
}

func TestSmokeCatchesFaultyStore(t *testing.T) {
	faults := map[string]func(engine.Store) engine.Store{
		"bit flip":  func(s engine.Store) engine.Store { return &flipStore{Store: s} },
		"wrong key": func(s engine.Store) engine.Store { return &wrongKeyStore{Store: s} },
	}
	for name, wrap := range faults {
		// One worker, so the fault decorators need no locking.
		o := smokeOptions(t, "-workload", "mm-point", "-trace", "0")
		o.workloads[0].workers = 1
		o.opts.wrap = wrap
		var out bytes.Buffer
		if code := dispatch(o, &out); code == 0 {
			t.Errorf("%s: the run exited 0 over a faulty store:\n%s", name, out.String())
		}
		if !strings.Contains(out.String(), "FAILED") {
			t.Errorf("%s: no failure was reported", name)
		}
	}
}
