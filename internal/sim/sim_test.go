package sim

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestOpClassString(t *testing.T) {
	cases := map[OpClass]string{OpMM: "MM", OpSS: "SS", OpCSS: "CSS"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if got := OpClass(99).String(); got != "OpClass(99)" {
		t.Errorf("invalid class String = %q", got)
	}
}

func TestTrackerChargeAndMeans(t *testing.T) {
	var tr Tracker
	tr.Charge(OpMM, 100)
	tr.Charge(OpMM, 100)
	tr.Charge(OpSS, 580)
	if got := tr.Ops(OpMM); got != 2 {
		t.Fatalf("Ops(MM) = %d, want 2", got)
	}
	if got := tr.Ops(OpSS); got != 1 {
		t.Fatalf("Ops(SS) = %d, want 1", got)
	}
	if got := tr.TotalOps(); got != 3 {
		t.Fatalf("TotalOps = %d, want 3", got)
	}
	if got := tr.MeanCost(OpMM); got != 100 {
		t.Fatalf("MeanCost(MM) = %v, want 100", got)
	}
	if got := tr.R(); math.Abs(got-5.8) > 1e-6 {
		t.Fatalf("R = %v, want 5.8", got)
	}
	wantF := 1.0 / 3.0
	if got := tr.MissFraction(); math.Abs(got-wantF) > 1e-9 {
		t.Fatalf("F = %v, want %v", got, wantF)
	}
}

func TestTrackerEmpty(t *testing.T) {
	var tr Tracker
	if tr.R() != 0 || tr.MissFraction() != 0 || tr.Throughput() != 0 || tr.MMThroughput() != 0 {
		t.Fatal("empty tracker should report zeros")
	}
}

func TestTrackerThroughputMatchesEquation2(t *testing.T) {
	// Construct a mix with known F and R and verify the tracker's measured
	// throughput equals P0 / ((1-F) + F*R), Equation 2 of the paper.
	var tr Tracker
	const mmCost, r = 100.0, 5.8
	const nMM, nSS = 700, 300
	for i := 0; i < nMM; i++ {
		tr.Charge(OpMM, mmCost)
	}
	for i := 0; i < nSS; i++ {
		tr.Charge(OpSS, mmCost*r)
	}
	f := tr.MissFraction()
	p0 := tr.MMThroughput()
	wantPF := p0 / ((1 - f) + f*r)
	if got := tr.Throughput(); math.Abs(got-wantPF)/wantPF > 1e-6 {
		t.Fatalf("Throughput = %v, Equation 2 predicts %v", got, wantPF)
	}
}

func TestTrackerAddCost(t *testing.T) {
	var tr Tracker
	tr.Charge(OpSS, 100)
	tr.AddCost(OpSS, 50) // background work: cost, no op
	if got := tr.Ops(OpSS); got != 1 {
		t.Fatalf("Ops = %d, want 1", got)
	}
	if got := tr.CostOf(OpSS); math.Abs(float64(got)-150) > 1e-3 {
		t.Fatalf("CostOf = %v, want 150", got)
	}
}

func TestTrackerInvalidClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid class did not panic")
		}
	}()
	var tr Tracker
	tr.Charge(OpClass(12), 1)
}

func TestTrackerNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative cost did not panic")
		}
	}()
	var tr Tracker
	tr.Charge(OpMM, -1)
}

func TestTrackerConcurrent(t *testing.T) {
	var tr Tracker
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Charge(OpMM, 10)
			}
		}()
	}
	wg.Wait()
	if got := tr.Ops(OpMM); got != workers*each {
		t.Fatalf("Ops = %d, want %d", got, workers*each)
	}
	if got := float64(tr.CostOf(OpMM)); math.Abs(got-float64(workers*each*10)) > 1 {
		t.Fatalf("CostOf = %v, want %d", got, workers*each*10)
	}
}

func TestTrackerResetAndString(t *testing.T) {
	var tr Tracker
	tr.Charge(OpMM, 5)
	if tr.String() == "" {
		t.Fatal("empty String")
	}
	tr.Reset()
	if tr.TotalOps() != 0 || tr.TotalCost() != 0 {
		t.Fatal("Reset did not clear tracker")
	}
}

func TestChargerLifecycle(t *testing.T) {
	s := NewSession(DefaultCosts())
	ch := s.Begin()
	ch.Compare(3)
	ch.Chase(2)
	ch.Copy(100)
	ch.Hash()
	p := s.Profile()
	want := 3*p.Compare + 2*p.PointerChase + 100*p.MemCopyPerByte + p.HashStep
	if got := ch.Cost(); math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
	if ch.Class() != OpMM {
		t.Fatalf("Class = %v, want MM", ch.Class())
	}
	ch.Escalate(OpSS)
	ch.Escalate(OpMM) // must not downgrade
	if ch.Class() != OpSS {
		t.Fatalf("Class after escalate = %v, want SS", ch.Class())
	}
	ch.Settle()
	if got := s.Tracker().Ops(OpSS); got != 1 {
		t.Fatalf("settled ops = %d, want 1", got)
	}
	if ch.Cost() != 0 || ch.Class() != OpMM {
		t.Fatal("Settle did not reset charger")
	}
}

func TestChargerAbandon(t *testing.T) {
	s := NewSession(DefaultCosts())
	ch := s.Begin()
	ch.Compare(5)
	ch.Escalate(OpSS)
	ch.Abandon()
	if s.Tracker().TotalOps() != 0 {
		t.Fatal("Abandon recorded an operation")
	}
	if ch.Cost() != 0 || ch.Class() != OpMM {
		t.Fatal("Abandon did not reset charger")
	}
}

func TestChargerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	s := NewSession(DefaultCosts())
	s.Begin().Add(-1)
}

// TestNilChargerNotCharged pins the "no Session ⇒ nothing is charged"
// contract: a nil Session begins a nil charger, and every Charger method
// accepts it without panicking and without recording anything.
func TestNilChargerNotCharged(t *testing.T) {
	var s *Session
	ch := s.Begin()
	if ch != nil {
		t.Fatalf("nil Session Begin = %v, want nil", ch)
	}
	ch.Add(5)
	ch.Compare(3)
	ch.Chase(2)
	ch.Copy(100)
	ch.Hash()
	ch.Escalate(OpSS)
	if ch.Class() != OpMM {
		t.Fatalf("nil Class = %v, want MM", ch.Class())
	}
	if ch.Cost() != 0 {
		t.Fatalf("nil Cost = %v, want 0", ch.Cost())
	}
	if got := *ch.Profile(); got != (CostProfile{}) {
		t.Fatalf("nil Profile = %+v, want zero", got)
	}
	ch.Settle()
	ch.Abandon()
	if ch.Err() != nil {
		t.Fatalf("nil Err = %v, want nil", ch.Err())
	}
	if ch.Context() != context.Background() {
		t.Fatal("nil Context is not context.Background()")
	}
}

func TestNilChargerWithContext(t *testing.T) {
	var ch *Charger
	if got := ch.WithContext(context.Background()); got != nil {
		t.Fatalf("nil WithContext(Background) = %v, want nil", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	bound := ch.WithContext(ctx)
	if bound == nil {
		t.Fatal("nil WithContext(cancellable) returned nil")
	}
	if bound.Err() != nil {
		t.Fatalf("Err before cancel = %v", bound.Err())
	}
	cancel()
	if !errors.Is(bound.Err(), context.Canceled) {
		t.Fatalf("Err after cancel = %v, want context.Canceled", bound.Err())
	}
}

func TestVirtualClock(t *testing.T) {
	var c VirtualClock
	if c.Now() != 0 {
		t.Fatal("zero clock not at 0")
	}
	c.Advance(1.5)
	c.Advance(0.5)
	if got := c.Now(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Now = %v, want 2.0", got)
	}
	c.Set(10)
	if got := c.Now(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Now = %v, want 10", got)
	}
}

func TestVirtualClockBackwardsPanics(t *testing.T) {
	var c VirtualClock
	c.Advance(5)
	for name, f := range map[string]func(){
		"Advance": func() { c.Advance(-1) },
		"Set":     func() { c.Set(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s backwards did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: for any non-negative charge sequence, TotalCost equals the sum
// of per-class costs and MissFraction lies in [0, 1].
func TestTrackerInvariantsProperty(t *testing.T) {
	f := func(mm, ss, css []uint16) bool {
		var tr Tracker
		for _, v := range mm {
			tr.Charge(OpMM, Cost(v))
		}
		for _, v := range ss {
			tr.Charge(OpSS, Cost(v))
		}
		for _, v := range css {
			tr.Charge(OpCSS, Cost(v))
		}
		sum := tr.CostOf(OpMM) + tr.CostOf(OpSS) + tr.CostOf(OpCSS)
		if math.Abs(float64(sum-tr.TotalCost())) > 1e-3 {
			return false
		}
		fr := tr.MissFraction()
		return fr >= 0 && fr <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCostsOrdering(t *testing.T) {
	p := DefaultCosts()
	if p.IOIssueKernel <= p.IOIssueUser {
		t.Fatal("kernel I/O path must cost more than user-level path (paper Section 7.1.1)")
	}
	if p.Compare <= 0 || p.PointerChase <= p.Compare {
		t.Fatal("pointer chase should cost more than a warm compare")
	}
}
