package search

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sortedRun sorts a key column in place and returns it.
func sortedRun(keys []uint64) []uint64 {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// referenceLowerBound is the trusted oracle implementation.
func referenceLowerBound(run []uint64, probe uint64) int {
	return sort.Search(len(run), func(i int) bool { return run[i] >= probe })
}

func TestLowerBoundSmallCases(t *testing.T) {
	run := sortedRun([]uint64{10, 20, 20, 30, 40})
	cases := map[uint64]int{
		0:   0,
		10:  0,
		11:  1,
		20:  1,
		21:  3,
		30:  3,
		40:  4,
		41:  5,
		100: 5,
	}
	for probe, want := range cases {
		if got := LowerBoundKeys(run, probe); got != want {
			t.Errorf("LowerBoundKeys(%d) = %d, want %d", probe, got, want)
		}
	}
}

func TestLowerBoundEmptyAndSingle(t *testing.T) {
	if got := LowerBoundKeys(nil, 5); got != 0 {
		t.Fatalf("LowerBoundKeys(nil, 5) = %d, want 0", got)
	}
	run := sortedRun([]uint64{7})
	if got := LowerBoundKeys(run, 7); got != 0 {
		t.Fatalf("LowerBoundKeys([7], 7) = %d, want 0", got)
	}
	if got := LowerBoundKeys(run, 8); got != 1 {
		t.Fatalf("LowerBoundKeys([7], 8) = %d, want 1", got)
	}
}

func TestLowerBoundAllEqualKeys(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = 42
	}
	run := sortedRun(keys)
	if got := LowerBoundKeys(run, 42); got != 0 {
		t.Fatalf("LowerBoundKeys(=42) = %d, want 0", got)
	}
	if got := LowerBoundKeys(run, 43); got != 1000 {
		t.Fatalf("LowerBoundKeys(43) = %d, want 1000", got)
	}
	if got := LowerBoundKeys(run, 1); got != 0 {
		t.Fatalf("LowerBoundKeys(1) = %d, want 0", got)
	}
}

func TestLowerBoundUniformMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = rng.Uint64() % (1 << 32)
	}
	run := sortedRun(keys)
	for trial := 0; trial < 5000; trial++ {
		probe := rng.Uint64() % (1 << 33)
		want := referenceLowerBound(run, probe)
		if got := LowerBoundKeys(run, probe); got != want {
			t.Fatalf("LowerBoundKeys(%d) = %d, want %d", probe, got, want)
		}
	}
}

func TestLowerBoundSkewedMatchesReference(t *testing.T) {
	// Heavily skewed keys defeat pure interpolation; the binary fallback
	// must keep the result exact.
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 20000)
	for i := range keys {
		if i%100 == 0 {
			keys[i] = 1 << 60 // a few huge outliers
		} else {
			keys[i] = rng.Uint64() % 1000
		}
	}
	run := sortedRun(keys)
	probes := []uint64{0, 1, 500, 999, 1000, 1 << 59, 1 << 60, 1<<60 + 1}
	for trial := 0; trial < 2000; trial++ {
		probes = append(probes, rng.Uint64()%(1<<61))
	}
	for _, probe := range probes {
		want := referenceLowerBound(run, probe)
		if got := LowerBoundKeys(run, probe); got != want {
			t.Fatalf("LowerBoundKeys(%d) = %d, want %d", probe, got, want)
		}
	}
}

func TestLowerBoundProperty(t *testing.T) {
	f := func(rawKeys []uint64, probe uint64) bool {
		run := sortedRun(rawKeys)
		got := LowerBoundKeys(run, probe)
		want := referenceLowerBound(run, probe)
		if got != want {
			return false
		}
		// Semantic checks independent of the oracle.
		if got > 0 && run[got-1] >= probe {
			return false
		}
		if got < len(run) && run[got] < probe {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUpperBound(t *testing.T) {
	run := sortedRun([]uint64{10, 20, 20, 30})
	cases := map[uint64]int{
		5:  0,
		10: 1,
		20: 3,
		25: 3,
		30: 4,
		31: 4,
	}
	for probe, want := range cases {
		if got := UpperBoundKeys(run, probe); got != want {
			t.Errorf("UpperBoundKeys(%d) = %d, want %d", probe, got, want)
		}
	}
	// Max probe must not overflow.
	if got := UpperBoundKeys(run, ^uint64(0)); got != len(run) {
		t.Fatalf("UpperBoundKeys(max) = %d, want %d", got, len(run))
	}
}

func TestBinaryLowerBoundDirect(t *testing.T) {
	run := sortedRun([]uint64{1, 3, 5, 7, 9, 11})
	for probe := uint64(0); probe <= 12; probe++ {
		want := referenceLowerBound(run, probe)
		if got := binaryLowerBoundKeys(run, 0, len(run), probe); got != want {
			t.Errorf("binaryLowerBoundKeys(%d) = %d, want %d", probe, got, want)
		}
	}
}

func TestLowerBoundGiantKeySpans(t *testing.T) {
	// Regression for the 2^53 float64 precision guard: key spans wider than
	// float64's integer-exact range used to degrade interpolation — the
	// uint64→float64 conversions round, the computed mid can land outside
	// [lo+1, hi-1) (only the clamps kept it legal), and convergence could
	// stall to one element per iteration. Keys hug both ends of the uint64
	// domain so every interval the search visits has a giant span.
	rng := rand.New(rand.NewSource(99))
	keys := make([]uint64, 0, 4096)
	const maxU64 = ^uint64(0)
	for i := 0; i < 2000; i++ {
		keys = append(keys, rng.Uint64()%(1<<20))              // near 0
		keys = append(keys, maxU64-rng.Uint64()%(1<<20))       // near 2^64
		keys = append(keys, maxU64/2+rng.Uint64()%(1<<20)-512) // straddling 2^63
	}
	keys = append(keys, 0, 1, maxU64, maxU64-1, maxU64-2, uint64(1)<<53, uint64(1)<<53+1)
	run := sortedRun(keys)

	probes := []uint64{0, 1, 2, maxU64, maxU64 - 1, maxU64 / 2, uint64(1) << 53, uint64(1)<<53 - 1, uint64(1)<<53 + 1}
	for i := 0; i < 2000; i++ {
		probes = append(probes, rng.Uint64())
		probes = append(probes, maxU64-rng.Uint64()%(1<<21))
		probes = append(probes, rng.Uint64()%(1<<21))
	}
	for _, probe := range probes {
		if got, want := LowerBoundKeys(run, probe), referenceLowerBound(run, probe); got != want {
			t.Fatalf("LowerBoundKeys(probe=%d) = %d, want %d", probe, got, want)
		}
	}
	for _, probe := range probes {
		if probe == maxU64 {
			continue
		}
		if got, want := UpperBoundKeys(run, probe), referenceLowerBound(run, probe+1); got != want {
			t.Fatalf("UpperBoundKeys(probe=%d) = %d, want %d", probe, got, want)
		}
	}
}

func TestLowerBoundSpanGuardConverges(t *testing.T) {
	// Two far-apart keys with everything in between empty: the first
	// interval spans nearly the whole uint64 domain, which must route to
	// binary search rather than interpolate on rounded floats.
	keys := make([]uint64, 64)
	for i := range keys {
		if i < 32 {
			keys[i] = uint64(i)
		} else {
			keys[i] = ^uint64(0) - uint64(63-i)
		}
	}
	run := sortedRun(keys)
	for probe := uint64(0); probe < 64; probe++ {
		if got, want := LowerBoundKeys(run, probe), referenceLowerBound(run, probe); got != want {
			t.Fatalf("LowerBoundKeys(%d) = %d, want %d", probe, got, want)
		}
	}
	if got, want := LowerBoundKeys(run, uint64(1)<<40), 32; got != want {
		t.Fatalf("LowerBoundKeys(2^40) = %d, want %d", got, want)
	}
}
