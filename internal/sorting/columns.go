package sorting

import (
	"repro/internal/batch"
	"repro/internal/relation"
)

// Columnar (structure-of-arrays) sorts for the batch execution path, all of
// them stable and all of them the packed kernel of packed.go.

// Scratch supplies the working memory a sort needs beyond its destination
// columns, so that callers holding a lease pay for it only on the sorts that
// use it: the packed path takes one uint64 buffer the size of its fullest
// stage-1 bucket (the whole input up to l2Values, about 1/256 of it on
// uniform keys beyond), and the wide path one more the size of the input for
// the parked keys. Each sort hands its buffers back before it returns, but
// for the counts column of a grouped sort (SortTuplesIntoGroups), which it
// hands its caller. *memory.Lease implements it; a nil Scratch allocates.
type Scratch interface {
	Uint64s(n int) []uint64
	PutUint64s(buf []uint64)
	Int32s(n int) []int32
}

// SortColumnsInto sorts the (srcKeys, srcPays) columns by ascending key into
// (dstKeys, dstPays), leaving the source untouched. perm is unused: it is kept
// so that existing callers compile, and nil is the value to pass. It
// interleaves the columns into a freshly allocated tuple buffer and sorts that:
// no join calls it, benchmark probes and tests do.
func SortColumnsInto(srcKeys, srcPays, dstKeys, dstPays []uint64, perm []int32) {
	tuples := make([]relation.Tuple, len(srcKeys))
	batch.Interleave(srcKeys, srcPays, tuples)
	SortTuplesIntoColumns(tuples, dstKeys, dstPays, nil)
}

// SortTuplesIntoColumns sorts an array-of-structs chunk into columnar form:
// dstKeys receives the keys in ascending order and dstPays the payloads in
// the same permutation. src is read twice, sequentially: by the first pass,
// which finds the key and payload domains (and past l2Values counts the first
// radix digit), and by the packing, fused past l2Values with that digit's
// scatter and the AoS→SoA deinterleave into one read feeding 256 cursors. It
// returns the payloads' OR, an upper bound on every payload.
func SortTuplesIntoColumns(src []relation.Tuple, dstKeys, dstPays []uint64, scratch Scratch) (payBound uint64) {
	var counts [radixBuckets]int
	maxKey, payBound, digits := firstPass(src, &counts)
	SortTuplesIntoColumnsWithBounds(src, dstKeys, dstPays, maxKey, payBound, digits, scratch)
	return payBound
}

// SortTuplesIntoGroups is SortTuplesIntoColumns for a consumer that keeps of
// each key only its number of tuples and its largest payload: where key and
// payload share the sort word (the payload carrier), stage 2 groups every
// bucket as it unpacks it — straight from its counting pass, unsorted, where
// that pass covers every key bit the bucket has left — and for g groups
// dstKeys[:g] receives the distinct keys in ascending order, dstPays[:g] each
// key's largest payload and the returned counts, of length g, each key's
// number of tuples: a column of len(src) leased through scratch, cut to g. A
// chunk whose payloads ride beside the word instead, or an empty one, is
// sorted as SortTuplesIntoColumns sorts it, and counts is nil. payBound is
// the payloads' OR.
func SortTuplesIntoGroups(src []relation.Tuple, dstKeys, dstPays []uint64, scratch Scratch) (counts []int32, payBound uint64) {
	var digitCounts [radixBuckets]int
	maxKey, payBound, digits := firstPass(src, &digitCounts)
	n := len(src)
	w, inWord, _ := packedCarrier(n, maxKey, payBound)
	if !inWord || n == 0 {
		SortTuplesIntoColumnsWithBounds(src, dstKeys, dstPays, maxKey, payBound, digits, scratch)
		return nil, payBound
	}
	if scratch == nil {
		counts = make([]int32, n)
	} else {
		counts = scratch.Int32s(n)
	}
	groups := sortTuplesPacked(src, dstKeys[:n], dstPays[:n], counts, maxKey, w, true, digits, scratch)
	return counts[:groups], payBound
}

// firstPass is a sort's first read of its source: the key and payload
// domains, and past l2Values the first digits' counts into counts, which it
// returns (nil up to l2Values). The digits are counted at the width a sample
// guesses, never too wide, and again at the exact width if the maximum key
// proves the guess narrow.
func firstPass(src []relation.Tuple, counts *[radixBuckets]int) (maxKey, payBound uint64, digits []int) {
	if len(src) <= l2Values {
		maxKey, payBound = bounds(src)
		return maxKey, payBound, nil
	}
	guess := DigitShift(GuessMaxKey(src))
	maxKey, payBound = CountTuples(counts[:], src, guess)
	if shift := DigitShift(maxKey); shift != guess {
		clear(counts[:])
		CountTuples(counts[:], src, shift)
	}
	return maxKey, payBound, counts[:]
}

// SortTuplesIntoColumnsWithBounds is SortTuplesIntoColumns for callers that
// already know upper bounds on the keys and the payloads — maxKey >= every key
// in src, payBound >= every payload (the payloads' OR is one, and
// math.MaxUint64 always is) — and maybe the first digits' counts past
// l2Values: counts[d] tuples have key>>DigitShift(maxKey) == d. Nil counts
// are counted here.
func SortTuplesIntoColumnsWithBounds(src []relation.Tuple, dstKeys, dstPays []uint64, maxKey, payBound uint64, counts []int, scratch Scratch) {
	n := len(src)
	dstKeys = dstKeys[:n]
	dstPays = dstPays[:n]
	if counts == nil && n > l2Values {
		counts = make([]int, radixBuckets)
		CountTuples(counts, src, DigitShift(maxKey))
	}

	w, inWord, ok := packedCarrier(n, maxKey, payBound)
	if ok {
		sortTuplesPacked(src, dstKeys, dstPays, nil, maxKey, w, inWord, counts, scratch)
		return
	}
	sortTuplesWide(src, dstKeys, dstPays, maxKey, w, counts, scratch)
}

// SortInto stably sorts the tuples of src by ascending key into dst, which may
// be src itself; only dst[:len(src)] is written. It sorts into two columns and
// interleaves them back: no join calls it, benchmark probes and tests do.
func SortInto(src, dst []relation.Tuple) {
	keys, pays := make([]uint64, len(src)), make([]uint64, len(src))
	SortTuplesIntoColumns(src, keys, pays, nil)
	batch.Interleave(keys, pays, dst[:len(src)])
}

// bounds scans tuples for the maximum key and the payloads' OR. It stays out
// of line: inlined, its loop reloads its arguments.
//
//go:noinline
func bounds(tuples []relation.Tuple) (maxKey, payBound uint64) {
	for i := range tuples {
		if k := tuples[i].Key; k > maxKey {
			maxKey = k
		}
		payBound |= tuples[i].Payload
	}
	return maxKey, payBound
}
