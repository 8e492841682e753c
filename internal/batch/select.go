package batch

import "math/bits"

// Branch-free range selection over a key column. The membership test
// k ∈ [lo, hi) is evaluated as the single unsigned comparison
// k-lo < hi-lo, whose result is read off the borrow bit of a 64-bit
// subtraction — no compare-and-branch per element, so the loop runs at a
// fixed, selectivity-independent rate instead of paying a misprediction
// per selectivity-boundary crossing. The output is a selection vector of
// qualifying indices: the index is written unconditionally and the cursor
// advances by the borrow, the standard branch-free selection idiom.

// SelectRange writes the indices of the keys in [lo, hi) into sel, in input
// order, and returns their count. sel must have at least len(keys) elements;
// every slot up to that capacity may be scribbled on (the unconditional-write
// idiom), only the first returned count are meaningful. hi <= lo selects
// nothing.
func SelectRange(keys []uint64, lo, hi uint64, sel []int32) int {
	if hi <= lo {
		return 0
	}
	_ = sel[:len(keys)]
	width := hi - lo
	n := 0
	for i, k := range keys {
		sel[n] = int32(i)
		_, borrow := bits.Sub64(k-lo, width, 0)
		n += int(borrow)
	}
	return n
}
