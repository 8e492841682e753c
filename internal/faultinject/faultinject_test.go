package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestNilSetIsInert(t *testing.T) {
	var s *Set
	for p := Point(0); p < pointCount; p++ {
		if s.Should(p) {
			t.Fatalf("nil set fired point %v", p)
		}
		if s.Fired(p) != 0 {
			t.Fatalf("nil set reports fires for %v", p)
		}
		s.Panic(p) // must not panic
		s.Stall(p) // must not stall
	}
	if s.TotalFired() != 0 {
		t.Fatal("nil set reports total fires")
	}
}

func TestDeterministicReplay(t *testing.T) {
	draw := func() []bool {
		s := New(42).Enable(WorkerPanic, 0.3).Enable(LeaseAlloc, 0.7)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, s.Should(WorkerPanic), s.Should(LeaseAlloc))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	// A different seed should give a different firing pattern.
	c := New(43).Enable(WorkerPanic, 0.3)
	diff := false
	s := New(42).Enable(WorkerPanic, 0.3)
	for i := 0; i < 200; i++ {
		if s.Should(WorkerPanic) != c.Should(WorkerPanic) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 produced identical 200-draw patterns")
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	s := New(7).Enable(WorkerPanic, 0.25)
	for i := 0; i < 10000; i++ {
		s.Should(WorkerPanic)
	}
	got := s.Fired(WorkerPanic)
	if got < 2200 || got > 2800 {
		t.Fatalf("p=0.25 over 10000 draws fired %d times", got)
	}
}

func TestLimitAndAfter(t *testing.T) {
	s := New(1).Enable(WorkerPanic, 1).Limit(WorkerPanic, 3)
	n := 0
	for i := 0; i < 10; i++ {
		if s.Should(WorkerPanic) {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("limit 3 fired %d times", n)
	}

	s = New(1).Enable(LeaseAlloc, 1).After(LeaseAlloc, 5)
	for i := 0; i < 5; i++ {
		if s.Should(LeaseAlloc) {
			t.Fatalf("After(5) fired on draw %d", i)
		}
	}
	if !s.Should(LeaseAlloc) {
		t.Fatal("After(5) did not fire on draw 6")
	}
}

func TestPanicValueIsTypedError(t *testing.T) {
	s := New(9).Enable(WorkerPanic, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Panic did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %T is not an error", r)
		}
		var inj *Injected
		if !errors.As(err, &inj) || inj.Point != WorkerPanic {
			t.Fatalf("panic value %v is not Injected{WorkerPanic}", err)
		}
	}()
	s.Panic(WorkerPanic)
}

func TestDelay(t *testing.T) {
	s := New(3).EnableDelay(MorselStall, 1, 5*time.Millisecond)
	if d := s.Delay(MorselStall); d != 5*time.Millisecond {
		t.Fatalf("Delay = %v", d)
	}
	if d := s.Delay(CancelStorm); d != defaultDelay(CancelStorm) {
		t.Fatalf("unarmed point delay = %v, want default %v", d, defaultDelay(CancelStorm))
	}
	start := time.Now()
	s.Stall(MorselStall)
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("Stall returned before the armed delay elapsed")
	}
}

func TestParse(t *testing.T) {
	s, err := Parse("seed:42,panic:0.5,stall:1@2ms#3,lease:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed() != 42 {
		t.Fatalf("seed = %d", s.Seed())
	}
	if d := s.Delay(MorselStall); d != 2*time.Millisecond {
		t.Fatalf("stall delay = %v", d)
	}
	// limit 3 on stall: fires exactly 3 times at p=1.
	n := 0
	for i := 0; i < 10; i++ {
		if s.Should(MorselStall) {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("stall limit fired %d times", n)
	}

	if s, err := Parse(""); err != nil || s != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", s, err)
	}
	for _, bad := range []string{"panic", "panic:x", "panic:NaN", "bogus:0.5", "seed:abc", "panic:0.5@zz"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) did not fail", bad)
		}
	}
}

func TestStringRoundTripsThroughParse(t *testing.T) {
	s := New(11).Enable(WorkerPanic, 0.5).EnableDelay(MorselStall, 1, time.Millisecond)
	spec := s.String()
	r, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(String()=%q): %v", spec, err)
	}
	if r.Seed() != 11 {
		t.Fatalf("round-tripped seed = %d", r.Seed())
	}
	// Identical sets replay identically.
	for i := 0; i < 100; i++ {
		if s2, r2 := s.Should(WorkerPanic), r.Should(WorkerPanic); s2 != r2 {
			t.Fatalf("round-tripped set diverged at draw %d", i)
		}
	}
}

// armed is the part of a set Parse configures and String renders: the seed
// and, for every point Should lets fire, its probability, delay and limit.
type armed struct {
	seed   uint64
	points [pointCount]struct {
		prob  float64
		delay time.Duration
		limit uint64
	}
}

func armedOf(s *Set) armed {
	a := armed{seed: s.seed}
	for p := Point(0); p < pointCount; p++ {
		if !(s.prob[p] <= 0) { // Should's test, NaN included
			a.points[p].prob, a.points[p].delay, a.points[p].limit = s.prob[p], s.delay[p], s.limit[p]
		}
	}
	return a
}

// FuzzParseFaultSpec: no spec may panic Parse, and an accepted spec's String
// must parse back to a set that fires the same points, with the same seed,
// probabilities, delays and limits.
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"seed:42,panic:0.5,stall:1@2ms#3,lease:0.25",
		"seed:11,panic:0.5,stall:1@1ms",
		"seed:42,panic:0.1,lease:0.05,stall:0.2@500us,cancel:0.01,grant:0.5#3",
		"panic:0#2", "panic:NaN", "stall:1@-1ms", "STALL:1@0s#0",
		"", "panic", "panic:x", "bogus:0.5", "seed:abc", "panic:0.5@zz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil || s == nil {
			return
		}
		r, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q does not parse: %v", spec, s.String(), err)
		}
		if armedOf(r) != armedOf(s) {
			t.Fatalf("Parse(%q).String() = %q parses to a different set: %+v, want %+v", spec, s.String(), armedOf(r), armedOf(s))
		}
	})
}
