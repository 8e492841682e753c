package sorting

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/relation"
)

// Packed fast path of the columnar sorts — the run-generation kernel of the
// batch execution path. When the key domain leaves enough low bits free (the
// paper's datasets use 32-bit keys in 64-bit slots), an index packs into
// those bits:
//
//	packed[i] = key << idxBits | position
//
// and the sort moves ONE uint64 per element, recovering the index by a mask
// when the payload column is gathered. The kernel has two stages, both out of
// place and both stable, and only the first reads the source — sequentially
// (key domain, histogram, scatter), never by index:
//
//  1. One MSD scatter on the top 8 bits of the key (all of a narrower key),
//     fused with the packing (and, for AoS input, the deinterleave): a
//     histogram read of the source, then one sequential read feeding 256
//     cursors. A tuple's packed word goes to dstPays at its cursor and its
//     PAYLOAD to the same slot of the still unwritten dstKeys; the index in
//     the word is that slot, the tuple's position in the scattered order.
//     The scatter keeps source order inside a bucket, so equal keys ordered
//     by position are in source order. An input small enough for stage 2 as
//     it stands (l2Values) is one bucket and only packed: position = index.
//  2. Every bucket — by now cache-resident — is finished by stable counting
//     passes over its remaining KEY bits only (stability keeps equal keys in
//     position order, so the index bits are never sorted), ping-ponging
//     between its range of dstPays and ONE scratch buffer the size of the
//     fullest bucket, known from the histogram, leased through Scratch and
//     reused for every bucket, so it stays cache-hot. One pass on the top
//     log2(n) remaining bits spreads the keys to about one a bin and an
//     insertion fix-up orders the rest; when a bin is too full for that —
//     duplicates or skew inside the bucket — every bin takes the same pass on
//     the bits below, so the cost is bounded by the key width and n whatever
//     the distribution. A bucket that arrives sorted (all-equal keys
//     included) is left alone and tiny buckets take an insertion sort.
//
// Who owns what, per bucket range: dstPays holds the packed words until the
// bucket is sorted — the sorted words end in the scratch — and then the
// payloads, gathered through the sorted positions from the same range of
// dstKeys, one cache-resident range into another; dstKeys holds the payloads
// in scattered order until that gather and the keys after it.
//
// The fallback condition is exact: packing applies iff the maximum key and
// the index width together fit in 64 bits, so full-width keys (the string and
// composite encodings) take the tandem key/perm path of columns.go.

// packedIndexBits returns the low-bit width needed to address n positions
// and whether key<<idxBits|index packing fits in 64 bits for maxKey.
func packedIndexBits(n int, maxKey uint64) (idxBits int, ok bool) {
	if n > 1 {
		idxBits = bits.Len(uint(n - 1))
	}
	return idxBits, idxBits == 0 || maxKey>>(64-idxBits) == 0
}

const (
	// packedInsertionCutoff is the bucket size up to which an insertion sort
	// beats setting up a counting pass.
	packedInsertionCutoff = 32

	// spreadMaxDigit bounds the digit of a counting pass, whose width is
	// otherwise log2 of the bucket size: about one value a bin, and never
	// more counters to clear and prefix-sum than values.
	spreadMaxDigit = 13

	// spreadMaxBin is the fullest bin a counting pass leaves to its insertion
	// fix-up, which moves a value past at most that many others; anything
	// fuller means duplicates or skew inside the bucket, and the bins are
	// sorted one by one.
	spreadMaxBin = 32

	// l2Values is the input size up to which stage 1 only packs: the two
	// ping-pong buffers and the payloads (24 bytes a value) fit a 1 MiB L2,
	// and one bucket costs less than 256 small ones.
	l2Values = 1 << 15
)

// packedScratch holds the digit counters of the bucket being finished. It is
// pooled: 32 KiB is too much to put on (and zero in) every sorter's stack.
type packedScratch struct{ counters [1 << spreadMaxDigit]uint32 }

var packedScratchPool = sync.Pool{New: func() any { return new(packedScratch) }}

// finishPacked is stage 2. Stage 1 left bucket b's packed words in
// pays[bounds[b]:bounds[b+1]], agreeing on every bit from hi up, and every
// tuple's payload in keys at the position its word carries. Each bucket is
// sorted on key bits [idxBits, hi) into the bucket scratch and unpacked from
// there: payloads into pays, then keys over the payloads' old place.
func finishPacked(keys, pays []uint64, bounds []int, idxBits, hi int, scratch Scratch) {
	fullest := 0
	for b := 0; b+1 < len(bounds); b++ {
		fullest = max(fullest, bounds[b+1]-bounds[b])
	}
	var buf []uint64
	if scratch == nil {
		buf = make([]uint64, fullest)
	} else {
		buf = scratch.Uint64s(fullest)
		defer scratch.PutUint64s(buf)
	}
	mask := uint64(1)<<idxBits - 1
	s := packedScratchPool.Get().(*packedScratch)
	for b := 0; b+1 < len(bounds); b++ {
		lo, end := bounds[b], bounds[b+1]
		packed, sorted := pays[lo:end], buf[:end-lo]
		if !s.sortBucket(packed, sorted, idxBits, hi) {
			copy(sorted, packed)
		}
		for i, p := range sorted {
			packed[i] = keys[p&mask]
		}
		bucketKeys := keys[lo:end]
		for i, p := range sorted {
			bucketKeys[i] = p >> idxBits
		}
	}
	packedScratchPool.Put(s)
}

// sortBucket stably sorts a, whose values agree on every bit from hi up and
// arrive in position order, by bits [lo, hi); b is scratch of the same length.
// It reports whether the result is in b instead of a.
//
// The common case is one counting pass from a into b on the top log2(n) bits
// of [lo, hi), which leaves uniform-enough keys about one to a bin, and an
// insertion pass over b to order the few that share one. When some bin is too
// full for that to stay near-linear — duplicates or skew inside the bucket —
// every bin is sorted as a bucket of its own on the bits below the digit, so
// no input costs more than one pass per digit of the key.
func (s *packedScratch) sortBucket(a, b []uint64, lo, hi int) (inB bool) {
	n := len(a)
	switch {
	case n < 2 || hi <= lo:
		return false
	case n <= packedInsertionCutoff:
		insertionSortU64(a) // whole-word order is (key, position): stable
		return false
	case slices.IsSorted(a):
		return false // free on unsorted input: the scan stops at the first descent
	}
	digit := min(hi-lo, bits.Len(uint(n)), spreadMaxDigit)
	shift, mask := hi-digit, uint64(1)<<digit-1
	cursors := s.counters[:1<<digit]
	clear(cursors)
	for _, v := range a {
		cursors[v>>shift&mask]++
	}
	sum, fullest := uint32(0), uint32(0)
	for d, c := range cursors {
		cursors[d] = sum
		sum += c
		fullest = max(fullest, c)
	}
	for _, v := range a {
		d := v >> shift & mask
		b[cursors[d]] = v
		cursors[d]++
	}
	switch {
	case shift == lo: // the digit covered every remaining bit
	case fullest <= spreadMaxBin:
		insertionSortU64(b)
	default:
		// The recursion reuses the counters, so the bins are found again by
		// their digit, which sits above the bits they still differ in.
		for from := 0; from < n; {
			to := from + 1
			for to < n && b[to]>>shift == b[from]>>shift {
				to++
			}
			if s.sortBucket(b[from:to], a[from:to], lo, shift) {
				copy(b[from:to], a[from:to])
			}
			from = to
		}
	}
	return true
}

// insertionSortU64 sorts a tiny bucket in place.
func insertionSortU64(packed []uint64) {
	for i := 1; i < len(packed); i++ {
		p := packed[i]
		j := i - 1
		for j >= 0 && packed[j] > p {
			packed[j+1] = packed[j]
			j--
		}
		packed[j+1] = p
	}
}

// sortTuplesPacked is the packed path of SortTuplesIntoColumns: stage 1 over
// the AoS source, the only code of the sort that reads it. The stage 1 digit
// is the top 8 bits of the key (all of a narrower key).
//
// Stage 1 touches the source once per tuple and pass, so it is written out per
// source layout here and in sortColumnsIntoPacked: reaching the source through
// two accessor closures instead measured 20–40 % slower end to end (24 → 33
// ns/tuple at 2^20).
func sortTuplesPacked(src []relation.Tuple, dstKeys, dstPays []uint64, maxKey uint64, idxBits int, scratch Scratch) {
	n := len(src)
	hi := idxBits + bits.Len64(maxKey)
	var bounds [radixBuckets + 1]int
	buckets := 1
	if n <= l2Values {
		bounds[1] = n
		for i, t := range src {
			dstPays[i], dstKeys[i] = t.Key<<idxBits|uint64(i), t.Payload
		}
	} else {
		buckets, hi = radixBuckets, max(hi-radixBits, idxBits)
		shift := hi - idxBits
		for _, t := range src {
			bounds[int(t.Key>>shift)&radixMask+1]++
		}
		for b := 0; b < radixBuckets; b++ {
			bounds[b+1] += bounds[b]
		}
		cursors := bounds
		for _, t := range src {
			b := int(t.Key>>shift) & radixMask
			pos := cursors[b]
			dstPays[pos], dstKeys[pos] = t.Key<<idxBits|uint64(pos), t.Payload
			cursors[b] = pos + 1
		}
	}
	finishPacked(dstKeys, dstPays, bounds[:buckets+1], idxBits, hi, scratch)
}

// sortColumnsIntoPacked is the packed path of SortColumnsInto: sortTuplesPacked
// line for line over a columnar source. Its one caller outside the tests is
// the end-to-end benchmark's sorting layer, which brings no Scratch.
func sortColumnsIntoPacked(srcKeys, srcPays, dstKeys, dstPays []uint64, maxKey uint64, idxBits int) {
	n := len(srcKeys)
	srcPays = srcPays[:n]
	hi := idxBits + bits.Len64(maxKey)
	var bounds [radixBuckets + 1]int
	buckets := 1
	if n <= l2Values {
		bounds[1] = n
		for i, k := range srcKeys {
			dstPays[i], dstKeys[i] = k<<idxBits|uint64(i), srcPays[i]
		}
	} else {
		buckets, hi = radixBuckets, max(hi-radixBits, idxBits)
		shift := hi - idxBits
		for _, k := range srcKeys {
			bounds[int(k>>shift)&radixMask+1]++
		}
		for b := 0; b < radixBuckets; b++ {
			bounds[b+1] += bounds[b]
		}
		cursors := bounds
		for i, k := range srcKeys {
			b := int(k>>shift) & radixMask
			pos := cursors[b]
			dstPays[pos], dstKeys[pos] = k<<idxBits|uint64(pos), srcPays[i]
			cursors[b] = pos + 1
		}
	}
	finishPacked(dstKeys, dstPays, bounds[:buckets+1], idxBits, hi, nil)
}
