package obs

import (
	"math/rand"
	"testing"
	"time"

	"costperf/internal/sim"
)

// TestSnapshotMeanHitMissExact ends seeded spans with known latencies and
// checks MeanHit and MeanMiss are the exact means of the hit and miss
// spans: shed and timed-out spans count in neither, and Mean is the exact
// mean over every span.
func TestSnapshotMeanHitMissExact(t *testing.T) {
	tr := NewTracer("t")
	rng := rand.New(rand.NewSource(1))
	var all, hitSum, missSum, hits, misses int64
	outcomes := []Outcome{OutcomeOK, OutcomeOK, OutcomeError, OutcomeShed, OutcomeTimeout}
	const n = 5000
	for i := 0; i < n; i++ {
		lat := rng.Int63n(int64(time.Millisecond))
		o := outcomes[rng.Intn(len(outcomes))]
		ch := sim.ClassOnly()
		sp := tr.Nest(Op(rng.Intn(int(opCount))), ch)
		miss := rng.Intn(3) == 0
		if miss {
			ch.DeviceIO()
		}
		sp.end(o, lat)
		all += lat
		if o != OutcomeOK && o != OutcomeError {
			continue
		}
		if miss {
			missSum += lat
			misses++
		} else {
			hitSum += lat
			hits++
		}
	}
	s := tr.Snapshot()
	if s.Hits != hits || s.Misses != misses {
		t.Fatalf("hits/misses = %d/%d, want %d/%d", s.Hits, s.Misses, hits, misses)
	}
	if want := time.Duration(float64(hitSum) / float64(hits)); s.MeanHit != want {
		t.Fatalf("MeanHit = %v, want %v", s.MeanHit, want)
	}
	if want := time.Duration(float64(missSum) / float64(misses)); s.MeanMiss != want {
		t.Fatalf("MeanMiss = %v, want %v", s.MeanMiss, want)
	}
	if want := time.Duration(float64(all) / n); s.Mean != want {
		t.Fatalf("Mean = %v, want %v", s.Mean, want)
	}
	tr.Reset()
	if s := tr.Snapshot(); s.MeanHit != 0 || s.MeanMiss != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("after Reset: MeanHit=%v MeanMiss=%v Mean=%v P99=%v, want zeros",
			s.MeanHit, s.MeanMiss, s.Mean, s.P99)
	}
}
