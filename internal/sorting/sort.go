// Package sorting implements run generation for the MPSM joins (paper
// Section 2.3) in two families.
//
// The columnar batch path sorts into key and payload columns
// (SortTuplesIntoColumns, SortColumnsInto). Keys that leave room for the
// payload or an index — the paper's 32-bit domains always do — take the
// packed kernel of packed.go: one out-of-place MSD scatter of words holding
// the key above either, then stable counting passes over the key bits only,
// which skew and duplicates cannot slow down. Keys too wide to pack are sorted
// as tuples by the row path below and deinterleaved afterwards (columns.go).
//
// The row path (Sort, SortWithMax, SortInto) serves full-width keys on the
// columnar path, the benchmark probes and the test oracles — B-, P- and
// D-MPSM all sort columns (D-MPSM spills B-MPSM's column runs). It is the
// paper's hardware-conscious routine, generalized from its single radix level
// to a cache-conscious multi-level MSD radix sort:
//
//  1. In-place MSD radix partitioning on successive 8-bit digits of the
//     (normalized) join key, American-flag style: a 256-bucket histogram per
//     recursion level, prefix sums for the partition boundaries, and a swap
//     cycle that moves every misplaced tuple to its home bucket. The digit
//     shift is derived once from the maximum key — per level it just drops by
//     8 bits — so the per-tuple hot loop is a shift and a mask with no
//     comparisons, no key-max rescans and no clamp branch. The per-level
//     histograms live on the call stack (a software-managed histogram stack);
//     the recursion depth is bounded by the key width (at most 8 levels).
//  2. Radix recursion stops as soon as a partition fits comfortably in the
//     CPU cache (cacheLeafTuples); such leaves are finished with IntroSort
//     (Musser): quicksort bounded to 2·log2(N) recursion levels with a
//     heapsort fallback, stopping at small partitions.
//  3. A final insertion-sort pass over the sub-cutoff partitions (16
//     elements, as in the paper) obtains the total order.
//
// SortInto additionally performs the first radix digit as an out-of-place
// scatter into a caller-provided destination buffer: where run generation
// would otherwise copy a chunk and then swap tuples through the whole run,
// the scatter does the copy and the first partitioning pass in one sweep of
// sequential reads and 256 streaming write cursors, roughly halving the swap
// traffic of the widest level.
//
// The paper reports its single-level routine to be roughly 30% faster than
// the C++ STL sort; the package keeps both a standard-library baseline
// (SortStdlib) and the previous single-level implementation (SortOneLevel) so
// the benchmark harness can reproduce that comparison and quantify the
// multi-level speedup.
package sorting

import (
	"math/bits"
	"sort"

	"repro/internal/relation"
)

// radixBits is the number of key bits consumed per MSD radix level (2^8 = 256
// buckets), as in the paper's radix phase.
const radixBits = 8

// radixBuckets is the number of buckets per radix level.
const radixBuckets = 1 << radixBits

// radixMask extracts one digit after the shift.
const radixMask = radixBuckets - 1

// cacheLeafTuples is the partition size below which the radix recursion stops
// and comparison sorting takes over: 2048 16-byte tuples = 32 KiB, sized to
// the close-to-core cache (L1d on current x86/ARM parts, comfortably inside
// L2 everywhere) so that the leaf sort runs entirely in cache. Larger leaves
// would push IntroSort's O(n log n) compare-and-swap passes out of cache;
// smaller leaves pay radix histogram overhead on partitions insertion sort
// handles faster.
const cacheLeafTuples = 2048

// insertionCutoff is the partition size below which IntroSort leaves the data
// to the final insertion-sort pass. The paper uses 16.
const insertionCutoff = 16

// minRadixSize is the input size below which Sort skips radix partitioning
// entirely; it equals cacheLeafTuples because such inputs are a single leaf.
const minRadixSize = cacheLeafTuples

// Sort orders tuples in place by ascending join key using the multi-level
// Radix/IntroSort. It is not stable; tuples with equal keys may appear in any
// relative order. Sort determines the key domain itself with one scan; use
// SortWithMax when the maximum key is already known.
func Sort(tuples []relation.Tuple) {
	SortWithMax(tuples, maxKeyOf(tuples))
}

// SortWithMax is Sort for callers that already know (an upper bound on) the
// maximum key in tuples, e.g. from histogram or splitter work on the same
// data; it skips the key-max scan. maxKey must be >= every key in tuples —
// the radix digits are derived from it, and a too-small bound would misplace
// larger keys.
func SortWithMax(tuples []relation.Tuple, maxKey uint64) {
	if len(tuples) < 2 {
		return
	}
	if len(tuples) <= minRadixSize {
		leafSort(tuples)
		return
	}
	msdRadixSort(tuples, topShift(maxKey))
}

// SortInto sorts the tuples of src by ascending join key into dst, leaving
// src untouched. len(dst) must be >= len(src); only dst[:len(src)] is
// written. The first radix digit runs as an out-of-place scatter — one
// sequential read of src feeding 256 sequential write cursors in dst — which
// fuses the copy run generation needs anyway with the widest partitioning
// pass; the remaining levels run in place within dst. Like Sort it is not
// stable.
func SortInto(src, dst []relation.Tuple) {
	var maxKey uint64
	if len(src) > minRadixSize {
		maxKey = maxKeyOf(src)
	}
	sortIntoWithMax(src, dst, maxKey)
}

// sortIntoWithMax is SortInto under SortWithMax's contract: maxKey must be >=
// every key in src. Inputs that are a single leaf ignore it.
func sortIntoWithMax(src, dst []relation.Tuple, maxKey uint64) {
	dst = dst[:len(src)]
	if len(src) <= minRadixSize {
		copy(dst, src)
		leafSort(dst)
		return
	}

	shift := topShift(maxKey)

	var histogram [radixBuckets]int
	for _, t := range src {
		histogram[int(t.Key>>shift)&radixMask]++
	}
	var cursors [radixBuckets]int
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		cursors[b] = sum
		sum += histogram[b]
	}
	bounds := cursors // start offsets survive as partition bounds
	for _, t := range src {
		b := int(t.Key>>shift) & radixMask
		dst[cursors[b]] = t
		cursors[b]++
	}
	sortBuckets(dst, bounds[:], cursors[:], shift)
}

// SortStdlib orders tuples in place by ascending key using the Go standard
// library (sort.Slice). It exists as the comparison baseline for the paper's
// Section 2.3 claim and for differential testing of Sort.
func SortStdlib(tuples []relation.Tuple) {
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key })
}

// IsSorted reports whether tuples are in non-decreasing key order.
func IsSorted(tuples []relation.Tuple) bool { return relation.IsSortedByKey(tuples) }

// maxKeyOf scans for the maximum key (0 for empty input).
func maxKeyOf(tuples []relation.Tuple) uint64 {
	var maxKey uint64
	for _, t := range tuples {
		if t.Key > maxKey {
			maxKey = t.Key
		}
	}
	return maxKey
}

// topShift returns the byte-aligned right shift that selects the most
// significant occupied 8-bit digit of keys bounded by maxKey: keys in
// [0, 2^32) yield 24, keys below 256 yield 0. Byte alignment keeps every
// subsequent level at exactly shift-8, so no per-level key inspection is
// needed.
func topShift(maxKey uint64) int {
	width := bits.Len64(maxKey)
	if width <= radixBits {
		return 0
	}
	return (width - 1) / radixBits * radixBits
}

// msdRadixSort partitions tuples in place on the 8-bit digit at shift and
// recurses on oversized buckets with the next-lower digit. The histogram is a
// stack variable, so the recursion (bounded by the 8 digits of a 64-bit key)
// maintains a software-managed histogram stack without heap allocation.
func msdRadixSort(tuples []relation.Tuple, shift int) {
	// Histogram of the current digit.
	var histogram [radixBuckets]int
	for _, t := range tuples {
		histogram[int(t.Key>>shift)&radixMask]++
	}

	// Prefix sums: bounds[b] is the start offset of bucket b, next[b] the
	// bucket's write cursor during the American-flag swap cycle.
	var bounds, next [radixBuckets]int
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		bounds[b] = sum
		next[b] = sum
		sum += histogram[b]
	}

	// American-flag swap: walk each bucket's region and swap misplaced
	// tuples into the next free slot of their home bucket.
	for b := 0; b < radixBuckets; b++ {
		end := bounds[b] + histogram[b]
		for i := next[b]; i < end; {
			dst := int(tuples[i].Key>>shift) & radixMask
			if dst == b {
				i++
				next[b] = i
				continue
			}
			tuples[i], tuples[next[dst]] = tuples[next[dst]], tuples[i]
			next[dst]++
		}
	}

	ends := next // after the swap cycle, next[b] == exclusive end of bucket b
	sortBuckets(tuples, bounds[:], ends[:], shift)
}

// sortBuckets finishes every bucket of one radix level: buckets above the
// cache threshold recurse on the next digit (unless the key bits are
// exhausted, which means all keys in the bucket are equal), the rest are
// leaf-sorted in cache.
func sortBuckets(tuples []relation.Tuple, bounds, ends []int, shift int) {
	for b := 0; b < radixBuckets; b++ {
		part := tuples[bounds[b]:ends[b]]
		if len(part) < 2 {
			continue
		}
		if len(part) > cacheLeafTuples && shift >= radixBits {
			msdRadixSort(part, shift-radixBits)
			continue
		}
		if shift == 0 && len(part) > cacheLeafTuples {
			// All digits consumed: every key in the bucket is equal,
			// the partition is trivially sorted.
			continue
		}
		leafSort(part)
	}
}

// leafSort totally orders one sub-cache partition: IntroSort down to the
// insertion cutoff, then one insertion-sort pass (phases 2 and 3 of the
// paper's routine).
func leafSort(tuples []relation.Tuple) {
	if len(tuples) > insertionCutoff {
		introSortLoop(tuples, 2*log2ceil(len(tuples)))
	}
	insertionSort(tuples)
}

// SortOneLevel is the package's previous implementation — a single 8-bit
// radix level followed by IntroSort on every partition, the literal routine
// of the paper's Section 2.3. It is retained as the benchmark baseline that
// quantifies what the multi-level recursion buys; new code should use Sort.
//
// Faithful to the original, its shift is NOT byte aligned: the top 8 bits of
// the observed key width select the bucket (width-8), so all 256 buckets are
// occupied for any key domain. The multi-level sort trades that for byte
// alignment because its recursion makes up the difference; a single level
// never recurses, so aligning here would just degrade the baseline.
func SortOneLevel(tuples []relation.Tuple) {
	if len(tuples) < 2 {
		return
	}
	if len(tuples) <= insertionCutoff {
		insertionSort(tuples)
		return
	}

	shift := 0
	if width := bits.Len64(maxKeyOf(tuples)); width > radixBits {
		shift = width - radixBits
	}
	var histogram [radixBuckets]int
	for _, t := range tuples {
		histogram[int(t.Key>>shift)&radixMask]++
	}
	var bounds [radixBuckets + 1]int
	for b := 0; b < radixBuckets; b++ {
		bounds[b+1] = bounds[b] + histogram[b]
	}
	var next [radixBuckets]int
	copy(next[:], bounds[:radixBuckets])
	for b := 0; b < radixBuckets; b++ {
		for i := next[b]; i < bounds[b+1]; {
			dst := int(tuples[i].Key>>shift) & radixMask
			if dst == b {
				i++
				next[b] = i
				continue
			}
			tuples[i], tuples[next[dst]] = tuples[next[dst]], tuples[i]
			next[dst]++
		}
	}
	for b := 0; b < radixBuckets; b++ {
		part := tuples[bounds[b]:bounds[b+1]]
		if len(part) > insertionCutoff {
			introSortLoop(part, 2*log2ceil(len(part)))
		}
	}
	for b := 0; b < radixBuckets; b++ {
		part := tuples[bounds[b]:bounds[b+1]]
		if len(part) > 1 {
			insertionSort(part)
		}
	}
}

// introSortLoop is the quicksort part of IntroSort: it recurses on the
// smaller side, loops on the larger side, leaves partitions below the
// insertion cutoff untouched, and degrades to heapsort when the depth limit
// reaches zero (guarding against quadratic behaviour on adversarial inputs).
func introSortLoop(tuples []relation.Tuple, depthLimit int) {
	for len(tuples) > insertionCutoff {
		if depthLimit == 0 {
			heapSort(tuples)
			return
		}
		depthLimit--
		p := partitionHoare(tuples)
		// Recurse on the smaller side to bound stack depth at O(log n).
		if p < len(tuples)-p {
			introSortLoop(tuples[:p], depthLimit)
			tuples = tuples[p:]
		} else {
			introSortLoop(tuples[p:], depthLimit)
			tuples = tuples[:p]
		}
	}
}

// partitionHoare partitions tuples around a median-of-three pivot and returns
// the split index p such that every element of tuples[:p] is <= every element
// of tuples[p:] and both sides are non-empty.
func partitionHoare(tuples []relation.Tuple) int {
	pivot := medianOfThree(tuples)
	i, j := -1, len(tuples)
	for {
		for {
			i++
			if tuples[i].Key >= pivot {
				break
			}
		}
		for {
			j--
			if tuples[j].Key <= pivot {
				break
			}
		}
		if i >= j {
			if j+1 <= 0 || j+1 >= len(tuples) {
				// Degenerate split (all keys equal to an extreme
				// pivot); fall back to a midpoint split to
				// guarantee progress.
				return len(tuples) / 2
			}
			return j + 1
		}
		tuples[i], tuples[j] = tuples[j], tuples[i]
	}
}

// medianOfThree returns the median key of the first, middle and last elements.
func medianOfThree(tuples []relation.Tuple) uint64 {
	a := tuples[0].Key
	b := tuples[len(tuples)/2].Key
	c := tuples[len(tuples)-1].Key
	switch {
	case (a <= b) == (b <= c):
		return b
	case (b <= a) == (a <= c):
		return a
	default:
		return c
	}
}

// heapSort sorts tuples in place using a binary max-heap. It is the fallback
// of IntroSort when the quicksort recursion depth is exhausted.
func heapSort(tuples []relation.Tuple) {
	n := len(tuples)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(tuples, i, n)
	}
	for end := n - 1; end > 0; end-- {
		tuples[0], tuples[end] = tuples[end], tuples[0]
		siftDown(tuples, 0, end)
	}
}

// siftDown restores the max-heap property for the subtree rooted at i within
// tuples[:n].
func siftDown(tuples []relation.Tuple, i, n int) {
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && tuples[child+1].Key > tuples[child].Key {
			child++
		}
		if tuples[i].Key >= tuples[child].Key {
			return
		}
		tuples[i], tuples[child] = tuples[child], tuples[i]
		i = child
	}
}

// insertionSort sorts tuples in place; it is efficient for the short, almost
// sorted partitions the earlier phases leave behind.
func insertionSort(tuples []relation.Tuple) {
	for i := 1; i < len(tuples); i++ {
		t := tuples[i]
		j := i - 1
		for j >= 0 && tuples[j].Key > t.Key {
			tuples[j+1] = tuples[j]
			j--
		}
		tuples[j+1] = t
	}
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
