// Package search provides the interpolation search the MPSM join phase uses
// to find the first public-input tuple of a sorted run that can join with a
// worker's private run (Section 3.2.2, Figure 7 of the paper).
//
// Sequentially scanning for the merge-join start point would incur many
// comparisons; interpolation search narrows the search space by repeatedly
// applying the rule of proportion between the minimum and maximum keys of the
// current search interval. A binary-search fallback bounds the worst case on
// adversarially distributed keys.
package search

// maxInterpolationSteps bounds the number of interpolation iterations before
// the search falls back to plain binary search. Interpolation converges in
// O(log log n) steps on uniform data; heavily skewed data could otherwise
// degenerate toward O(n).
const maxInterpolationSteps = 64

// linearCutoff is the interval size below which a linear scan finishes the
// search; tiny intervals are faster to scan than to keep interpolating.
const linearCutoff = 8

// maxExactSpan is the largest key span float64 interpolation can handle
// without precision loss: above 2^53 the uint64→float64 conversions round,
// the rule of proportion degrades to noise (in the worst case computing a mid
// outside [lo+1, hi-1) that only the clamps rescue), and each iteration may
// shrink the interval by as little as one element. Spans that wide fall back
// to binary search immediately.
const maxExactSpan = uint64(1) << 53

// LowerBoundKeys returns the index of the first key in the sorted column that
// is >= probe (len(keys) if every key is smaller). keys must be in ascending
// order. The search runs on the raw key column, keeping the contiguous 8-byte
// stride that makes the columnar merge kernel cache-efficient.
func LowerBoundKeys(keys []uint64, probe uint64) int {
	lo, hi := 0, len(keys) // invariant: the answer lies in [lo, hi]

	steps := 0
	for hi-lo > linearCutoff {
		loKey := keys[lo]
		hiKey := keys[hi-1]
		if probe <= loKey {
			return lo
		}
		if probe > hiKey {
			return hi
		}
		steps++
		if steps > maxInterpolationSteps || hiKey == loKey || hiKey-loKey >= maxExactSpan {
			return binaryLowerBoundKeys(keys, lo, hi, probe)
		}
		// Rule of proportion: the most probable position of probe within
		// [lo, hi) assuming a locally uniform key distribution.
		span := float64(hi - 1 - lo)
		frac := float64(probe-loKey) / float64(hiKey-loKey)
		mid := lo + int(span*frac)
		if mid <= lo {
			mid = lo + 1
		}
		if mid > hi-1 {
			mid = hi - 1
		}
		if keys[mid] < probe {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < hi; i++ {
		if keys[i] >= probe {
			return i
		}
	}
	return hi
}

// binaryLowerBoundKeys is the classic binary-search lower bound over [lo, hi).
func binaryLowerBoundKeys(keys []uint64, lo, hi int, probe uint64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < probe {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBoundKeys returns the index of the first key strictly greater than
// probe: the exclusive end of the keys a private run's key range reaches.
func UpperBoundKeys(keys []uint64, probe uint64) int {
	if probe == ^uint64(0) {
		return len(keys)
	}
	return LowerBoundKeys(keys, probe+1)
}
