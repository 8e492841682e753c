package sorting

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// makeTuples builds a deterministic pseudo-random tuple slice.
func makeTuples(n int, seed int64, keyRange uint64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		if keyRange == 0 {
			tuples[i] = relation.Tuple{Key: rng.Uint64(), Payload: uint64(i)}
		} else {
			tuples[i] = relation.Tuple{Key: rng.Uint64() % keyRange, Payload: uint64(i)}
		}
	}
	return tuples
}

// sortedInto returns SortInto's output for tuples, sorted in place.
func sortedInto(tuples []relation.Tuple) []relation.Tuple {
	work := slices.Clone(tuples)
	SortInto(work, work)
	return work
}

func TestSortBasicCases(t *testing.T) {
	cases := []struct {
		name   string
		tuples []relation.Tuple
	}{
		{"empty", nil},
		{"single", []relation.Tuple{{Key: 5, Payload: 1}}},
		{"two sorted", []relation.Tuple{{Key: 1}, {Key: 2}}},
		{"two reversed", []relation.Tuple{{Key: 2}, {Key: 1}}},
		{"all equal", []relation.Tuple{{Key: 7, Payload: 1}, {Key: 7, Payload: 2}, {Key: 7, Payload: 3}}},
		{"already sorted", []relation.Tuple{{Key: 1}, {Key: 2}, {Key: 3}, {Key: 4}, {Key: 5}}},
		{"reverse sorted", []relation.Tuple{{Key: 5}, {Key: 4}, {Key: 3}, {Key: 2}, {Key: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstStdlib(t, tc.name, tc.tuples, sortedInto(tc.tuples))
		})
	}
}

func TestSortSizesAndDistributions(t *testing.T) {
	sizes := []int{15, 16, 17, 100, 255, 256, 257, 1000, 4096, 10000}
	ranges := []uint64{0, 1, 2, 16, 256, 1 << 20, 1 << 32}
	for _, n := range sizes {
		for _, kr := range ranges {
			input := makeTuples(n, int64(n)*31+int64(kr%97), kr)
			checkAgainstStdlib(t, "random", input, sortedInto(input))
		}
	}
}

func TestSortAdversarial(t *testing.T) {
	// Sawtooth, organ-pipe and constant-block patterns: long runs of equal
	// keys and of ordered ones.
	n := 5000
	patterns := map[string]func(i int) uint64{
		"sawtooth":   func(i int) uint64 { return uint64(i % 17) },
		"organpipe":  func(i int) uint64 { return uint64(min(i, n-i)) },
		"constant":   func(i int) uint64 { return 42 },
		"descending": func(i int) uint64 { return uint64(n - i) },
		"two values": func(i int) uint64 { return uint64(i & 1) },
	}
	for name, gen := range patterns {
		t.Run(name, func(t *testing.T) {
			work := make([]relation.Tuple, n)
			for i := range work {
				work[i] = relation.Tuple{Key: gen(i), Payload: uint64(i)}
			}
			checkAgainstStdlib(t, name, work, sortedInto(work))
		})
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 33, 1024, 9999} {
		input := makeTuples(n, int64(n), 1<<32)
		checkAgainstStdlib(t, fmt.Sprint("n=", n), input, sortedInto(input))
	}
}

func TestSortProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tuples := make([]relation.Tuple, len(keys))
		for i, k := range keys {
			tuples[i] = relation.Tuple{Key: k, Payload: uint64(i)}
		}
		return slices.Equal(sortedInto(tuples), stdlibOracle(tuples))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPreservesPayloadAssociation(t *testing.T) {
	// Payload must travel with its key, and equal keys keep their input
	// order.
	input := makeTuples(2000, 7, 100) // many duplicate keys
	checkAgainstStdlib(t, "duplicates", input, sortedInto(input))
}
