package sorting

import (
	"math/rand"
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

func checkSorted(t *testing.T, name string, original, sorted []relation.Tuple) {
	t.Helper()
	if !IsSorted(sorted) {
		t.Fatalf("%s: output not sorted", name)
	}
	if !relation.SameMultiset(original, sorted) {
		t.Fatalf("%s: output is not a permutation of input", name)
	}
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
			original := append([]relation.Tuple(nil), tc.tuples...)
			work := append([]relation.Tuple(nil), tc.tuples...)
			Sort(work)
			checkSorted(t, tc.name, original, work)
		})
	}
}

func TestSortSizesAndDistributions(t *testing.T) {
	sizes := []int{15, 16, 17, 100, 255, 256, 257, 1000, 4096, 10000}
	ranges := []uint64{0, 1, 2, 16, 256, 1 << 20, 1 << 32}
	for _, n := range sizes {
		for _, kr := range ranges {
			work := makeTuples(n, int64(n)*31+int64(kr%97), kr)
			original := append([]relation.Tuple(nil), work...)
			Sort(work)
			checkSorted(t, "random", original, work)
		}
	}
}

func TestSortAdversarial(t *testing.T) {
	// Sawtooth, organ-pipe and constant-block patterns are classic
	// quicksort killers; IntroSort's heapsort fallback must handle them.
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
			original := append([]relation.Tuple(nil), work...)
			Sort(work)
			checkSorted(t, name, original, work)
		})
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 33, 1024, 9999} {
		a := makeTuples(n, int64(n), 1<<32)
		b := append([]relation.Tuple(nil), a...)
		Sort(a)
		SortStdlib(b)
		for i := range a {
			if a[i].Key != b[i].Key {
				t.Fatalf("n=%d: key mismatch at %d: %d vs %d", n, i, a[i].Key, b[i].Key)
			}
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tuples := make([]relation.Tuple, len(keys))
		for i, k := range keys {
			tuples[i] = relation.Tuple{Key: k, Payload: uint64(i)}
		}
		original := append([]relation.Tuple(nil), tuples...)
		Sort(tuples)
		return IsSorted(tuples) && relation.SameMultiset(original, tuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPreservesPayloadAssociation(t *testing.T) {
	// Payload must travel with its key: after sorting, each (key, payload)
	// pair must still exist.
	work := makeTuples(2000, 7, 100) // many duplicate keys
	original := append([]relation.Tuple(nil), work...)
	Sort(work)
	if !relation.SameMultiset(original, work) {
		t.Fatal("sorting broke key/payload association")
	}
}

func TestMSDRadixLevelPartitions(t *testing.T) {
	// After one msdRadixSort level the whole slice must be totally sorted
	// (the recursion finishes the buckets), and the top-digit buckets must
	// appear in ascending digit order.
	work := makeTuples(16384, 3, 1<<32)
	original := append([]relation.Tuple(nil), work...)
	shift := topShift(maxKeyOf(work))
	msdRadixSort(work, shift)
	checkSorted(t, "msdRadixSort", original, work)
	prev := -1
	for _, tup := range work {
		digit := int(tup.Key>>shift) & radixMask
		if digit < prev {
			t.Fatalf("top digit %d after %d: buckets out of order", digit, prev)
		}
		prev = digit
	}
}

func TestTopShift(t *testing.T) {
	// The shift is byte aligned: the most significant occupied 8-bit digit
	// selects the first radix level, and every lower level is shift-8.
	cases := []struct {
		maxKey uint64
		want   int
	}{
		{0, 0},
		{255, 0},
		{256, 8},
		{1<<16 - 1, 8},
		{1 << 16, 16},
		{1<<32 - 1, 24},
		{1 << 32, 32},
		{1<<63 - 1, 56},
		{^uint64(0), 56},
	}
	for _, tc := range cases {
		if got := topShift(tc.maxKey); got != tc.want {
			t.Errorf("topShift(%d) = %d, want %d", tc.maxKey, got, tc.want)
		}
	}
}

func TestHeapSortDirect(t *testing.T) {
	work := makeTuples(333, 11, 1000)
	original := append([]relation.Tuple(nil), work...)
	heapSort(work)
	checkSorted(t, "heapSort", original, work)
}

func TestInsertionSortDirect(t *testing.T) {
	work := makeTuples(40, 13, 50)
	original := append([]relation.Tuple(nil), work...)
	insertionSort(work)
	checkSorted(t, "insertionSort", original, work)
}

func TestIntroSortDepthFallback(t *testing.T) {
	// With a zero depth limit introSortLoop must immediately heapsort.
	work := makeTuples(500, 17, 1<<16)
	original := append([]relation.Tuple(nil), work...)
	introSortLoop(work, 0)
	checkSorted(t, "introSortLoop depth 0", original, work)
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMedianOfThree(t *testing.T) {
	cases := []struct {
		keys []uint64
		want uint64
	}{
		{[]uint64{1, 2, 3}, 2},
		{[]uint64{3, 2, 1}, 2},
		{[]uint64{2, 1, 3}, 2},
		{[]uint64{1, 3, 2}, 2},
		{[]uint64{5, 5, 5}, 5},
		{[]uint64{1, 1, 2}, 1},
	}
	for _, tc := range cases {
		tuples := make([]relation.Tuple, len(tc.keys))
		for i, k := range tc.keys {
			tuples[i].Key = k
		}
		if got := medianOfThree(tuples); got != tc.want {
			t.Errorf("medianOfThree(%v) = %d, want %d", tc.keys, got, tc.want)
		}
	}
}
