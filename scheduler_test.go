package mpsm

import (
	"context"
	"testing"
)

// withMorselSize sets the number of private-run tuples per morsel, so that the
// morsel path splits runs far smaller than the default morsel.
func withMorselSize(tuples int) Option {
	return func(s *settings) { s.MorselSize = tuples }
}

func TestParseScheduler(t *testing.T) {
	for name, want := range map[string]Scheduler{
		"static": Static,
		"Static": Static,
		"morsel": Morsel,
		"MORSEL": Morsel,
	} {
		got, err := ParseScheduler(name)
		if err != nil || got != want {
			t.Fatalf("ParseScheduler(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseScheduler("unknown"); err == nil {
		t.Fatal("ParseScheduler should reject unknown names")
	}
}

// TestEngineSchedulerParity runs the same joins through the public Engine
// with both schedulers and requires identical results, including per-call
// overrides of an engine-level default.
func TestEngineSchedulerParity(t *testing.T) {
	r := GenerateUniform("R", 2000, 11)
	s := GenerateForeignKey("S", r, 8000, 12)

	static := New(WithWorkers(6))
	morsel := New(WithWorkers(6), WithScheduler(Morsel), withMorselSize(128))

	for _, alg := range []Algorithm{PMPSM, BMPSM, DMPSM, Wisconsin, RadixHash} {
		want, err := static.Join(context.Background(), r, s, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v static: %v", alg, err)
		}
		got, err := morsel.Join(context.Background(), r, s, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v morsel: %v", alg, err)
		}
		if got.Matches != want.Matches || got.MaxSum != want.MaxSum {
			t.Fatalf("%v: morsel (matches=%d max=%d) != static (matches=%d max=%d)",
				alg, got.Matches, got.MaxSum, want.Matches, want.MaxSum)
		}
		if want.Matches == 0 {
			t.Fatalf("%v: no matches — the parity check is vacuous", alg)
		}
	}

	// A per-call WithScheduler overrides the engine default.
	want, err := morsel.Join(context.Background(), r, s, WithScheduler(Static))
	if err != nil {
		t.Fatal(err)
	}
	if want.Matches == 0 {
		t.Fatal("per-call static override produced no matches")
	}
}

// TestSchedulerStreamAndCancel checks that the morsel scheduler composes
// with the streaming iterator, including its break-cancels-join semantics.
func TestSchedulerStreamAndCancel(t *testing.T) {
	r := GenerateUniform("R", 4000, 21)
	s := GenerateForeignKey("S", r, 16000, 22)
	engine := New(WithWorkers(4), WithScheduler(Morsel), withMorselSize(64))

	seq, errf := engine.JoinStream(context.Background(), r, s)
	var seen int
	for range seq {
		seen++
		if seen == 10 {
			break
		}
	}
	if err := errf(); err != nil {
		t.Fatalf("breaking out of a morsel-scheduled stream errored: %v", err)
	}
	if seen != 10 {
		t.Fatalf("consumed %d pairs, want 10", seen)
	}

	// A canceled context aborts a morsel-scheduled join with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.Join(ctx, r, s); err != context.Canceled {
		t.Fatalf("canceled morsel join returned %v, want context.Canceled", err)
	}
}
