package partition

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func sortedTuples(n int, seed int64, keyRange uint64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: rng.Uint64() % keyRange, Payload: uint64(i)}
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key })
	return tuples
}

// keysOf returns the key column of a run.
func keysOf(run []relation.Tuple) []uint64 {
	keys := make([]uint64, len(run))
	for i, t := range run {
		keys[i] = t.Key
	}
	return keys
}

func TestEquiHeightBounds(t *testing.T) {
	run := []relation.Tuple{{Key: 1}, {Key: 7}, {Key: 10}, {Key: 15}, {Key: 22}, {Key: 31}, {Key: 66}, {Key: 81}}
	// Figure 8, run S1 with 4 bounds: b11=7, b12=15, b13=31, b14=81.
	bounds := EquiHeightBoundsKeys(keysOf(run), 4)
	want := []uint64{7, 15, 31, 81}
	if len(bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
}

func TestEquiHeightBoundsEdgeCases(t *testing.T) {
	if EquiHeightBoundsKeys(nil, 4) != nil {
		t.Fatal("empty run should yield nil bounds")
	}
	if EquiHeightBoundsKeys([]uint64{3}, 0) != nil {
		t.Fatal("zero bounds should yield nil")
	}
	// More bounds than tuples: last bound is still the max key.
	bounds := EquiHeightBoundsKeys([]uint64{3, 9}, 5)
	if len(bounds) != 5 {
		t.Fatalf("len(bounds) = %d, want 5", len(bounds))
	}
	if bounds[4] != 9 {
		t.Fatalf("last bound = %d, want max key 9", bounds[4])
	}
}

func TestEquiHeightBoundsLastIsMax(t *testing.T) {
	run := sortedTuples(1000, 5, 1<<30)
	bounds := EquiHeightBoundsKeys(keysOf(run), 16)
	if bounds[len(bounds)-1] != run[len(run)-1].Key {
		t.Fatal("last bound must equal the run's maximum key")
	}
	// Bounds must be non-decreasing.
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatal("bounds not monotone")
		}
	}
}

func TestBuildCDFFigure8(t *testing.T) {
	// Figure 8: four runs of 8 tuples each, skewed toward small keys.
	runs := [][]relation.Tuple{
		{{Key: 1}, {Key: 7}, {Key: 10}, {Key: 15}, {Key: 22}, {Key: 31}, {Key: 66}, {Key: 81}},
		{{Key: 2}, {Key: 12}, {Key: 17}, {Key: 25}, {Key: 33}, {Key: 42}, {Key: 78}, {Key: 90}},
		{{Key: 4}, {Key: 9}, {Key: 13}, {Key: 30}, {Key: 37}, {Key: 48}, {Key: 54}, {Key: 75}},
		{{Key: 5}, {Key: 13}, {Key: 28}, {Key: 44}, {Key: 49}, {Key: 56}, {Key: 77}, {Key: 100}},
	}
	var boundsPerRun [][]uint64
	var lens []int
	for _, r := range runs {
		boundsPerRun = append(boundsPerRun, EquiHeightBoundsKeys(keysOf(r), 4))
		lens = append(lens, len(r))
	}
	cdf := BuildCDF(boundsPerRun, lens)
	if cdf.Total() != 32 {
		t.Fatalf("Total = %f, want 32", cdf.Total())
	}
	// At the global maximum key the CDF must report the full mass.
	if got := cdf.Estimate(100); got != 32 {
		t.Fatalf("Estimate(100) = %f, want 32", got)
	}
	// The CDF must be monotone.
	prev := 0.0
	for key := uint64(0); key <= 110; key++ {
		est := cdf.Estimate(key)
		if est < prev-1e-9 {
			t.Fatalf("CDF not monotone at key %d: %f < %f", key, est, prev)
		}
		prev = est
	}
	// Skew check: most keys are small, so the median of the mass should be
	// reached well before the middle of the key domain (50).
	half := cdf.Estimate(50)
	if half < 20 {
		t.Fatalf("Estimate(50) = %f, expected the skew toward small keys to put most mass below 50", half)
	}
}

func TestCDFEstimateAccuracy(t *testing.T) {
	// With many bounds, the CDF estimate should be close to the true rank.
	n := 20000
	run := sortedTuples(n, 11, 1<<24)
	bounds := EquiHeightBoundsKeys(keysOf(run), 128)
	cdf := BuildCDF([][]uint64{bounds}, []int{n})
	for _, probe := range []uint64{1 << 10, 1 << 20, 1 << 22, 1 << 23} {
		trueRank := sort.Search(n, func(i int) bool { return run[i].Key > probe })
		est := cdf.Estimate(probe)
		if math.Abs(est-float64(trueRank)) > float64(n)/64 {
			t.Fatalf("Estimate(%d) = %f, true rank %d (error too large)", probe, est, trueRank)
		}
	}
}

func TestCDFEstimateRange(t *testing.T) {
	n := 10000
	run := sortedTuples(n, 13, 1<<20)
	bounds := EquiHeightBoundsKeys(keysOf(run), 64)
	cdf := BuildCDF([][]uint64{bounds}, []int{n})

	full := cdf.EstimateRange(0, ^uint64(0))
	if math.Abs(full-float64(n)) > 1 {
		t.Fatalf("EstimateRange(full) = %f, want ~%d", full, n)
	}
	if got := cdf.EstimateRange(100, 100); got != 0 {
		t.Fatalf("empty range estimate = %f, want 0", got)
	}
	if got := cdf.EstimateRange(200, 100); got != 0 {
		t.Fatalf("inverted range estimate = %f, want 0", got)
	}
	// Two adjacent ranges must sum to the enclosing range.
	a := cdf.EstimateRange(0, 1<<19)
	b := cdf.EstimateRange(1<<19, 1<<20)
	ab := cdf.EstimateRange(0, 1<<20)
	if math.Abs(a+b-ab) > 1e-6 {
		t.Fatalf("range additivity violated: %f + %f != %f", a, b, ab)
	}
}

func TestCDFEmptyAndMismatch(t *testing.T) {
	cdf := BuildCDF(nil, nil)
	if cdf.Estimate(123) != 0 || cdf.Total() != 0 {
		t.Fatal("empty CDF should estimate 0 everywhere")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths should panic")
		}
	}()
	BuildCDF([][]uint64{{1}}, []int{1, 2})
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(rawKeys []uint64, probes []uint64) bool {
		if len(rawKeys) == 0 {
			return true
		}
		tuples := make([]relation.Tuple, len(rawKeys))
		for i, k := range rawKeys {
			tuples[i].Key = k % (1 << 32)
		}
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key })
		bounds := EquiHeightBoundsKeys(keysOf(tuples), 8)
		cdf := BuildCDF([][]uint64{bounds}, []int{len(tuples)})
		for i := range probes {
			probes[i] %= 1 << 33
		}
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		prev := -1.0
		for _, p := range probes {
			est := cdf.Estimate(p)
			if est < prev-1e-9 || est > cdf.Total()+1e-9 {
				return false
			}
			prev = est
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
