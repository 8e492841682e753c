package sorting

import "repro/internal/relation"

// Columnar (structure-of-arrays) sorts for the batch execution path. Keys that
// leave room for an index sort packed (packed.go); the routines below
// are the exact fallback for keys too wide to pack — the order-preserving
// string and composite encodings fill all 64 bits: the key column is sorted
// in tandem with a permutation column recording where each key came from,
// with the digits, cutoffs, American-flag swap and IntroSort leaves of
// sort.go, and the payload column is gathered afterwards in one contiguous
// pass. The packed path is stable; this fallback, like Sort, is not.

// Scratch supplies the working memory a sort needs beyond its destination
// columns, so that callers holding a lease pay for it only on the sorts that
// use it: the packed path takes one uint64 buffer the size of its fullest
// stage-1 bucket (the whole input up to l2Values, about 1/256 of it on
// uniform keys beyond), the tandem fallback one int32 permutation column.
// Each sort hands its buffer back before it returns. *memory.Lease implements
// it; a nil Scratch allocates.
type Scratch interface {
	Int32s(n int) []int32
	PutInt32s(buf []int32)
	Uint64s(n int) []uint64
	PutUint64s(buf []uint64)
}

// SortColumnsInto sorts the (srcKeys, srcPays) columns by ascending key into
// (dstKeys, dstPays), leaving the source untouched. perm is optional scratch
// of at least len(srcKeys) int32s that only the tandem fallback uses; nil
// allocates there.
func SortColumnsInto(srcKeys, srcPays, dstKeys, dstPays []uint64, perm []int32) {
	n := len(srcKeys)
	dstKeys = dstKeys[:n]
	dstPays = dstPays[:n]

	maxKey := maxKeyOfColumn(srcKeys)
	if idxBits, ok := packedIndexBits(n, maxKey); ok {
		sortColumnsIntoPacked(srcKeys, srcPays, dstKeys, dstPays, maxKey, idxBits)
		return
	}

	if perm == nil {
		perm = make([]int32, n)
	}
	perm = perm[:n]
	if n <= minRadixSize {
		copy(dstKeys, srcKeys)
		for i := range perm {
			perm[i] = int32(i)
		}
		leafSortCols(dstKeys, perm)
		gatherPayloads(dstPays, srcPays, perm)
		return
	}

	shift := topShift(maxKey)

	var histogram [radixBuckets]int
	for _, k := range srcKeys {
		histogram[int(k>>shift)&radixMask]++
	}
	var cursors [radixBuckets]int
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		cursors[b] = sum
		sum += histogram[b]
	}
	bounds := cursors // start offsets survive as partition bounds
	for i, k := range srcKeys {
		b := int(k>>shift) & radixMask
		dstKeys[cursors[b]] = k
		perm[cursors[b]] = int32(i)
		cursors[b]++
	}
	sortBucketsCols(dstKeys, perm, bounds[:], cursors[:], shift)
	gatherPayloads(dstPays, srcPays, perm)
}

// SortTuplesIntoColumns sorts an array-of-structs chunk into columnar form:
// dstKeys receives the keys in ascending order and dstPays the payloads in
// the same permutation. The AoS→SoA deinterleave is fused with the first
// radix digit — one sequential read of the 16-byte tuples feeding 256 write
// cursors — so the representation change costs no separate pass over the
// data, and src is read sequentially only. It determines the key domain with
// one scan; use SortTuplesIntoColumnsWithMax when a bound is already known.
func SortTuplesIntoColumns(src []relation.Tuple, dstKeys, dstPays []uint64, scratch Scratch) {
	SortTuplesIntoColumnsWithMax(src, dstKeys, dstPays, maxKeyOf(src), scratch)
}

// SortTuplesIntoColumnsWithMax is SortTuplesIntoColumns for callers that
// already know (an upper bound on) the maximum key, under SortWithMax's
// contract: maxKey must be >= every key in src.
func SortTuplesIntoColumnsWithMax(src []relation.Tuple, dstKeys, dstPays []uint64, maxKey uint64, scratch Scratch) {
	n := len(src)
	dstKeys = dstKeys[:n]
	dstPays = dstPays[:n]

	if idxBits, ok := packedIndexBits(n, maxKey); ok {
		sortTuplesPacked(src, dstKeys, dstPays, maxKey, idxBits, scratch)
		return
	}

	var perm []int32
	if scratch == nil {
		perm = make([]int32, n)
	} else {
		perm = scratch.Int32s(n)
		defer scratch.PutInt32s(perm)
	}
	if n <= minRadixSize {
		for i, t := range src {
			dstKeys[i] = t.Key
			perm[i] = int32(i)
		}
		leafSortCols(dstKeys, perm)
	} else {
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
		bounds := cursors
		for i, t := range src {
			b := int(t.Key>>shift) & radixMask
			dstKeys[cursors[b]] = t.Key
			perm[cursors[b]] = int32(i)
			cursors[b]++
		}
		sortBucketsCols(dstKeys, perm, bounds[:], cursors[:], shift)
	}
	for i, p := range perm {
		dstPays[i] = src[p].Payload
	}
}

// gatherPayloads applies the sorted permutation to the payload column in one
// contiguous pass: dst[i] = src[perm[i]]. The writes are sequential; the
// reads are the only random accesses the payload column ever sees.
func gatherPayloads(dst, src []uint64, perm []int32) {
	_ = dst[:len(perm)]
	for i, p := range perm {
		dst[i] = src[p]
	}
}

// maxKeyOfColumn scans a key column for its maximum (0 for empty input).
func maxKeyOfColumn(keys []uint64) uint64 {
	var maxKey uint64
	for _, k := range keys {
		maxKey = max(maxKey, k)
	}
	return maxKey
}

// msdRadixSortCols is msdRadixSort on a key column with a permutation column
// carried through every swap.
func msdRadixSortCols(keys []uint64, perm []int32, shift int) {
	var histogram [radixBuckets]int
	for _, k := range keys {
		histogram[int(k>>shift)&radixMask]++
	}

	var bounds, next [radixBuckets]int
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		bounds[b] = sum
		next[b] = sum
		sum += histogram[b]
	}

	for b := 0; b < radixBuckets; b++ {
		end := bounds[b] + histogram[b]
		for i := next[b]; i < end; {
			dst := int(keys[i]>>shift) & radixMask
			if dst == b {
				i++
				next[b] = i
				continue
			}
			j := next[dst]
			keys[i], keys[j] = keys[j], keys[i]
			perm[i], perm[j] = perm[j], perm[i]
			next[dst]++
		}
	}

	ends := next
	sortBucketsCols(keys, perm, bounds[:], ends[:], shift)
}

// sortBucketsCols is sortBuckets for the columnar representation.
func sortBucketsCols(keys []uint64, perm []int32, bounds, ends []int, shift int) {
	for b := 0; b < radixBuckets; b++ {
		pk := keys[bounds[b]:ends[b]]
		pp := perm[bounds[b]:ends[b]]
		if len(pk) < 2 {
			continue
		}
		if len(pk) > cacheLeafTuples && shift >= radixBits {
			msdRadixSortCols(pk, pp, shift-radixBits)
			continue
		}
		if shift == 0 && len(pk) > cacheLeafTuples {
			// All digits consumed: every key in the bucket is equal.
			continue
		}
		leafSortCols(pk, pp)
	}
}

// leafSortCols is leafSort for one sub-cache key/perm partition.
func leafSortCols(keys []uint64, perm []int32) {
	if len(keys) > insertionCutoff {
		introSortLoopCols(keys, perm, 2*log2ceil(len(keys)))
	}
	insertionSortCols(keys, perm)
}

// introSortLoopCols is introSortLoop over key/perm columns.
func introSortLoopCols(keys []uint64, perm []int32, depthLimit int) {
	for len(keys) > insertionCutoff {
		if depthLimit == 0 {
			heapSortCols(keys, perm)
			return
		}
		depthLimit--
		p := partitionHoareCols(keys, perm)
		if p < len(keys)-p {
			introSortLoopCols(keys[:p], perm[:p], depthLimit)
			keys, perm = keys[p:], perm[p:]
		} else {
			introSortLoopCols(keys[p:], perm[p:], depthLimit)
			keys, perm = keys[:p], perm[:p]
		}
	}
}

// partitionHoareCols is partitionHoare over key/perm columns.
func partitionHoareCols(keys []uint64, perm []int32) int {
	pivot := medianOfThreeKeys(keys)
	i, j := -1, len(keys)
	for {
		for {
			i++
			if keys[i] >= pivot {
				break
			}
		}
		for {
			j--
			if keys[j] <= pivot {
				break
			}
		}
		if i >= j {
			if j+1 <= 0 || j+1 >= len(keys) {
				return len(keys) / 2
			}
			return j + 1
		}
		keys[i], keys[j] = keys[j], keys[i]
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// medianOfThreeKeys returns the median of the first, middle and last keys.
func medianOfThreeKeys(keys []uint64) uint64 {
	a := keys[0]
	b := keys[len(keys)/2]
	c := keys[len(keys)-1]
	switch {
	case (a <= b) == (b <= c):
		return b
	case (b <= a) == (a <= c):
		return a
	default:
		return c
	}
}

// heapSortCols is heapSort over key/perm columns.
func heapSortCols(keys []uint64, perm []int32) {
	n := len(keys)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownCols(keys, perm, i, n)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		perm[0], perm[end] = perm[end], perm[0]
		siftDownCols(keys, perm, 0, end)
	}
}

// siftDownCols restores the max-heap property within keys[:n].
func siftDownCols(keys []uint64, perm []int32, i, n int) {
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && keys[child+1] > keys[child] {
			child++
		}
		if keys[i] >= keys[child] {
			return
		}
		keys[i], keys[child] = keys[child], keys[i]
		perm[i], perm[child] = perm[child], perm[i]
		i = child
	}
}

// insertionSortCols sorts key/perm columns in place for short partitions.
func insertionSortCols(keys []uint64, perm []int32) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		p := perm[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			perm[j+1] = perm[j]
			j--
		}
		keys[j+1] = k
		perm[j+1] = p
	}
}

// IsSortedKeys reports whether a key column is in non-decreasing order.
func IsSortedKeys(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}
