package sorting

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// adversarialDistributions generates the key distributions the ISSUE names as
// radix-sort stress cases: degenerate digit histograms (all-equal, 2-value),
// presorted directions, keys with only high bits set (≥ 2^56, exercising the
// deepest digit levels), and a zipf-skewed distribution whose buckets are
// maximally unbalanced.
func adversarialDistributions(n int, seed int64) map[string][]relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1.0, 1<<30)
	out := map[string][]relation.Tuple{
		"all-equal":       make([]relation.Tuple, n),
		"reverse-sorted":  make([]relation.Tuple, n),
		"two-value":       make([]relation.Tuple, n),
		"high-bits":       make([]relation.Tuple, n),
		"zipf":            make([]relation.Tuple, n),
		"uniform-64":      make([]relation.Tuple, n),
		"uniform-32":      make([]relation.Tuple, n),
		"tiny-domain":     make([]relation.Tuple, n),
		"sorted-plateaus": make([]relation.Tuple, n),
		"bucket-skew":     make([]relation.Tuple, n),
	}
	for i := 0; i < n; i++ {
		p := uint64(i)
		out["all-equal"][i] = relation.Tuple{Key: 42, Payload: p}
		out["reverse-sorted"][i] = relation.Tuple{Key: uint64(n - i), Payload: p}
		out["two-value"][i] = relation.Tuple{Key: uint64(i & 1), Payload: p}
		out["high-bits"][i] = relation.Tuple{Key: uint64(1)<<56 | rng.Uint64()>>8<<8 | uint64(i&0xFF), Payload: p}
		out["zipf"][i] = relation.Tuple{Key: zipf.Uint64(), Payload: p}
		out["uniform-64"][i] = relation.Tuple{Key: rng.Uint64(), Payload: p}
		out["uniform-32"][i] = relation.Tuple{Key: rng.Uint64() >> 32, Payload: p}
		out["tiny-domain"][i] = relation.Tuple{Key: rng.Uint64() % 7, Payload: p}
		out["sorted-plateaus"][i] = relation.Tuple{Key: uint64(i / 64), Payload: p}
		// High byte spreads the top radix digit into mid-size buckets whose
		// middle key bits are all zero — every value in the bucket shares the
		// next wide digit, forcing the packed sort's counting-scatter refusal.
		out["bucket-skew"][i] = relation.Tuple{Key: uint64(rng.Intn(256))<<36 | uint64(rng.Intn(3)), Payload: p}
	}
	// Push a few keys to the extremes of the domain.
	for _, name := range []string{"high-bits", "uniform-64"} {
		out[name][0].Key = math.MaxUint64
		out[name][n-1].Key = 0
	}
	return out
}

// checkAgainstStdlib requires got to be input in the order the stable stdlib
// sort gives it, pair for pair.
func checkAgainstStdlib(t *testing.T, name string, input, got []relation.Tuple) {
	t.Helper()
	want := stdlibOracle(input)
	if len(got) != len(want) {
		t.Fatalf("%s: length changed: %d -> %d", name, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %+v at %d, the stable order has %+v", name, got[i], i, want[i])
		}
	}
}

// TestSortDifferential runs SortInto, out of place and in place, against the
// stable stdlib sort over the adversarial distributions at sizes spanning the
// insertion cutoff, the single-bucket threshold and stage 1.
func TestSortDifferential(t *testing.T) {
	sizes := []int{3, packedInsertionCutoff, packedInsertionCutoff + 1, 3000, 20000, l2Values + 1}
	for _, n := range sizes {
		for name, input := range adversarialDistributions(n, int64(n)) {
			src := slices.Clone(input)
			dst := make([]relation.Tuple, n+3) // tolerate oversized destinations
			SortInto(src, dst)
			checkAgainstStdlib(t, name+"/SortInto", input, dst[:n])
			if !slices.Equal(src, input) {
				t.Fatalf("%s: SortInto modified its source", name)
			}
			checkAgainstStdlib(t, name+"/SortInto(in place)", input, sortedInto(input))
		}
	}
}

// FuzzSortDifferential is the fuzz form of the differential test: arbitrary
// byte strings decode into tuple slices (8-byte keys), which SortInto must
// order as the stable stdlib sort does.
func FuzzSortDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxUint64))
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(1)<<(8*uint(i)))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		input := make([]relation.Tuple, n)
		for i := 0; i < n; i++ {
			input[i] = relation.Tuple{Key: binary.LittleEndian.Uint64(data[i*8:]), Payload: uint64(i)}
		}
		dst := make([]relation.Tuple, n)
		SortInto(input, dst)
		checkAgainstStdlib(t, "SortInto", input, dst)
	})
}

// TestSortIntoExactSize pins the contract that only dst[:len(src)] is
// touched.
func TestSortIntoExactSize(t *testing.T) {
	src := makeTuples(5000, 9, 1<<32)
	dst := make([]relation.Tuple, len(src)+10)
	sentinel := relation.Tuple{Key: math.MaxUint64, Payload: 0xDEAD}
	for i := len(src); i < len(dst); i++ {
		dst[i] = sentinel
	}
	SortInto(src, dst)
	checkAgainstStdlib(t, "SortInto", src, dst[:len(src)])
	for i := len(src); i < len(dst); i++ {
		if dst[i] != sentinel {
			t.Fatalf("SortInto wrote past len(src) at %d", i)
		}
	}
}
