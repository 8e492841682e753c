package sorting

import (
	"repro/internal/batch"
	"repro/internal/relation"
)

// Columnar (structure-of-arrays) sorts for the batch execution path. Keys that
// leave room for an index sort packed (packed.go). Keys too wide to pack — the
// order-preserving string and composite encodings fill all 64 bits — go
// through the row sort of sort.go instead: the tuples are sorted with the
// known key bound and then deinterleaved into the key and payload columns.
// The packed path is stable; the row fallback, like Sort, is not.

// Scratch supplies the working memory a sort needs beyond its destination
// columns, so that callers holding a lease pay for it only on the sorts that
// use it: the packed path takes one uint64 buffer the size of its fullest
// stage-1 bucket (the whole input up to l2Values, about 1/256 of it on
// uniform keys beyond), the row fallback one tuple buffer the size of the
// input. Each sort hands its buffer back before it returns. *memory.Lease
// implements it; a nil Scratch allocates.
type Scratch interface {
	Tuples(n int) []relation.Tuple
	PutTuples(buf []relation.Tuple)
	Uint64s(n int) []uint64
	PutUint64s(buf []uint64)
}

// SortColumnsInto sorts the (srcKeys, srcPays) columns by ascending key into
// (dstKeys, dstPays), leaving the source untouched. perm is unused: it is kept
// so that existing callers compile, and nil is the value to pass. Keys too
// wide to pack are interleaved into a freshly allocated tuple buffer, sorted
// there and deinterleaved.
func SortColumnsInto(srcKeys, srcPays, dstKeys, dstPays []uint64, perm []int32) {
	n := len(srcKeys)
	dstKeys = dstKeys[:n]
	dstPays = dstPays[:n]

	maxKey := maxKeyOfColumn(srcKeys)
	if idxBits, ok := packedIndexBits(n, maxKey); ok {
		sortColumnsIntoPacked(srcKeys, srcPays, dstKeys, dstPays, maxKey, idxBits)
		return
	}
	tuples := make([]relation.Tuple, n)
	batch.Interleave(srcKeys, srcPays, tuples)
	SortWithMax(tuples, maxKey)
	batch.Deinterleave(tuples, dstKeys, dstPays)
}

// SortTuplesIntoColumns sorts an array-of-structs chunk into columnar form:
// dstKeys receives the keys in ascending order and dstPays the payloads in
// the same permutation. On the packed path the AoS→SoA deinterleave is fused
// with the first radix digit — one sequential read of the 16-byte tuples
// feeding 256 write cursors — so the representation change costs no separate
// pass over the data, and src is read sequentially only. It determines the key
// domain with one scan; use SortTuplesIntoColumnsWithMax when a bound is
// already known.
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

	var sorted []relation.Tuple
	if scratch == nil {
		sorted = make([]relation.Tuple, n)
	} else {
		sorted = scratch.Tuples(n)
		defer scratch.PutTuples(sorted)
	}
	sortIntoWithMax(src, sorted, maxKey)
	batch.Deinterleave(sorted, dstKeys, dstPays)
}

// maxKeyOfColumn scans a key column for its maximum (0 for empty input).
func maxKeyOfColumn(keys []uint64) uint64 {
	var maxKey uint64
	for _, k := range keys {
		maxKey = max(maxKey, k)
	}
	return maxKey
}
