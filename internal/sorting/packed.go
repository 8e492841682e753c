// Package sorting implements run generation for the MPSM joins (paper
// Section 2.3): one stable radix sort into key and payload columns
// (SortTuplesIntoColumns, SortColumnsInto), for every key width. SortInto is
// a thin wrapper over it for tuple slices. The same kernel has a third
// output shape, for a consumer that keeps of each key only its number of
// tuples and its largest payload (the public side of a folding B- or P-MPSM
// join): SortTuplesIntoGroups writes one entry per distinct key — key,
// largest payload, count — where the payload rides in the sort word, and
// sorts raw where it does not.
//
// The kernel sorts packed words. When the key domain leaves enough low bits
// free (the paper's datasets use 32-bit keys in 64-bit slots), the low w bits
// carry the payload itself if key and payload fit 64 bits together, else a
// position:
//
//	packed[i] = key << w | payload     or     key << w | position
//
// and the sort moves ONE uint64 per element: a sorted word is split into key
// and payload, or the payload is gathered through the position. The kernel
// has two stages, both out of place and both stable, and only the first
// reads the source — sequentially, twice, never by index:
//
//  1. One MSD scatter on the top 8 bits of the key (all of a narrower key),
//     fused with the packing (and, for AoS input, the deinterleave). Its
//     counts come from a first read that also finds the key domain: it counts
//     at the width 64 evenly spaced keys and the last one guess, never too
//     wide, and again if the exact maximum it takes proves the guess narrow.
//     The scatter feeds 256 cursors: a tuple's packed word goes to dstPays at
//     its cursor; under the position carrier its PAYLOAD goes to the same slot
//     of the still unwritten dstKeys, and the index in the word is that slot,
//     the tuple's position in the scattered order, which keeps source order
//     inside a bucket. An input small enough for stage 2 as it stands
//     (l2Values) is one bucket: read for its domain, then packed, position =
//     index.
//  2. Every bucket — by now cache-resident — is finished by stable counting
//     passes over its remaining KEY bits only (stability keeps equal keys in
//     source order, so the low w bits are never sorted on), ping-ponging
//     between its range of dstPays and ONE scratch buffer the size of the
//     fullest bucket, known from the histogram, leased through Scratch and
//     reused for every bucket, so it stays cache-hot. One pass on the top
//     log2(n) remaining bits spreads the keys to about one a bin and an
//     insertion fix-up orders the rest; when a bin is too full for that —
//     duplicates or skew inside the bucket — every bin takes the same pass on
//     the bits below, so the cost is bounded by the key width and n whatever
//     the distribution. A bucket that arrives sorted (all-equal keys
//     included) is left alone and tiny buckets take an insertion sort.
//     A grouped sort does not sort a bucket whose first counting pass
//     would cover every key bit left (narrow keys, as in the paper's skew
//     experiments): that pass's histogram, with each digit's largest word
//     beside its count, already is the bucket's grouping (groupCounted).
//
// Who owns what, per bucket range: dstPays holds the packed words until the
// bucket is sorted — the sorted words end in the scratch — and then the
// payloads, split off or gathered from the same range of dstKeys; dstKeys
// holds the parked payloads, if any, until then and the keys after. A grouped
// sort unpacks every bucket through one cursor instead (groupSorted, or
// groupCounted straight from the counters): its entries land at or below the
// bucket's own range, over what earlier buckets left — a counted bucket's
// over its own words too, once all are read — and the counts column takes
// each entry's count at the same index.
//
// Keys too wide for a position beside them — the string, composite and
// signed-integer encodings of internal/keys fill all 64 bits — take the wide
// path (sortTuplesWide): the word keeps the key's top 64 − w bits above the
// bucket-local position and drops its cut low bits, stage 1 parks the full
// keys in a column of their own, and stage 2 re-sorts every run of words that
// tie on the kept bits by the dropped ones, read back through the positions.
package sorting

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/relation"
)

// packedCarrier picks the low bits of the packed words for n tuples with keys
// up to maxKey and payloads up to payBound: the payload (inWord) when the two
// fit in 64 bits, else the position. ok reports whether key and position fit
// too; where they do not, the wide path carries the position beside the key's
// top 64 − w bits. w is the carrier's width.
func packedCarrier(n int, maxKey, payBound uint64) (w int, inWord, ok bool) {
	if w = bits.Len64(payBound); bits.Len64(maxKey)+w <= 64 {
		return w, true, true
	}
	w = bits.Len(uint(max(n, 1) - 1))
	return w, false, bits.Len64(maxKey)+w <= 64
}

// DigitShift is the shift of the first digit of keys up to maxKey, their top
// radixBits bits (all of a narrower key), on which every stage 1 scatters.
func DigitShift(maxKey uint64) int { return max(bits.Len64(maxKey)-radixBits, 0) }

// GuessMaxKey returns the largest of 64 evenly spaced keys of tuples and the
// last one: never above the maximum, so a width guessed from it is never too
// wide.
func GuessMaxKey(tuples []relation.Tuple) (guess uint64) {
	n := len(tuples)
	for i := range min(n, 64) {
		guess = max(guess, tuples[i*max(n/64, 1)].Key)
	}
	if n > 0 {
		guess = max(guess, tuples[n-1].Key)
	}
	return guess
}

// CountTuples is a histogram pass that finds the key domain it counts: in one
// read it counts every tuple into h[key>>shift&(len(h)-1)], len(h) a power of
// two, and returns the maximum key and the payloads' OR. The counts are right
// if shift is the one the maximum calls for; the mask keeps those taken at a
// guess too narrow in range. It stays out of line: inlined, its loop reloads
// its arguments.
//
//go:noinline
func CountTuples(h []int, tuples []relation.Tuple, shift int) (maxKey, payBound uint64) {
	mask, s := uint64(len(h)-1), uint(shift)&63
	for i := range tuples {
		k := tuples[i].Key
		h[k>>s&mask]++
		if k > maxKey {
			maxKey = k
		}
		payBound |= tuples[i].Payload
	}
	return maxKey, payBound
}

const (
	// radixBits is the width of the stage 1 digit: 2^8 = 256 buckets, as in
	// the paper's radix phase.
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	Digits       = radixBuckets // first digits: the length of the counts a sort takes

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

// packedScratch holds the digit counters of the bucket being finished and,
// for a grouped sort's counting pass (groupCounted), each digit's largest
// word. It is pooled: 96 KiB is too much to put on (and zero in) every
// sorter's stack.
type packedScratch struct {
	counters [1 << spreadMaxDigit]uint32
	maxima   [1 << spreadMaxDigit]uint64 // all zero between counting passes
}

var packedScratchPool = sync.Pool{New: func() any { return new(packedScratch) }}

// finishPacked is stage 2. Stage 1 left bucket b's packed words in
// pays[bounds[b]:bounds[b+1]], agreeing on every bit from hi up, and — under
// the position carrier — every tuple's payload in keys at the position its
// word carries. Each bucket is sorted on key bits [w, hi) into the bucket
// scratch and unpacked from there: payloads into pays, split off the words or
// gathered, then keys over the payloads' old place.
//
// On the wide path (parked != nil) stage 1 left the buckets' full keys in
// parked instead of words in pays: each bucket's words are built here, from
// its keys without their cut low bits and its bucket-local positions, and its
// keys come back from parked.
//
// Under the payload carrier a non-nil counts groups the output instead: each
// bucket's distinct keys, largest payloads and counts go to one cursor that
// runs behind the buckets, so a bucket's entries overwrite only what the
// buckets before it left and its own words once they are read. A bucket
// whose key bits left one counting pass covers — min(hi−w, bits.Len(n),
// spreadMaxDigit) == hi−w, sortBucket's rule — is grouped from that pass's
// counters (groupCounted), any other sorted and grouped (groupSorted); the
// entries are the same. finishPacked returns the number of entries written:
// the groups, or every tuple.
func finishPacked(keys, pays []uint64, counts []int32, bounds []int, w int, inWord bool, hi int, parked []uint64, cut int, scratch Scratch) (entries int) {
	mask, group := uint64(1)<<w-1, inWord && counts != nil
	// counted reports a bucket of n words that groupCounted groups from its
	// counting pass, never touching the bucket scratch, which is leased at
	// the fullest of the others: none, if every bucket is counted.
	counted := func(n int) bool { return group && hi-w <= min(bits.Len(uint(n)), spreadMaxDigit) }
	fullest := 0
	for b := 0; b+1 < len(bounds); b++ {
		if n := bounds[b+1] - bounds[b]; !counted(n) {
			fullest = max(fullest, n)
		}
	}
	var buf []uint64
	switch {
	case fullest == 0:
	case scratch == nil:
		buf = make([]uint64, fullest)
	default:
		buf = scratch.Uint64s(fullest)
		defer scratch.PutUint64s(buf)
	}
	s := packedScratchPool.Get().(*packedScratch)
	for b := 0; b+1 < len(bounds); b++ {
		lo, end := bounds[b], bounds[b+1]
		packed, bucketKeys := pays[lo:end], keys[lo:end]
		if counted(end - lo) {
			entries = s.groupCounted(packed, keys, pays, counts, entries, w, hi-w)
			continue
		}
		sorted := buf[:end-lo]
		if parked != nil {
			bucketParked := parked[lo:end]
			for i, k := range bucketParked {
				packed[i] = k>>cut<<w | uint64(i)
			}
			if !s.sortBucket(packed, sorted, w, hi) {
				copy(sorted, packed)
			}
			s.breakTies(sorted, packed, bucketParked, w, cut)
			for i, p := range sorted {
				packed[i] = bucketKeys[p&mask]
			}
			for i, p := range sorted {
				bucketKeys[i] = bucketParked[p&mask]
			}
			continue
		}
		if !s.sortBucket(packed, sorted, w, hi) {
			copy(sorted, packed)
		}
		if group {
			entries = groupSorted(sorted, keys, pays, counts, entries, w)
			continue
		}
		if inWord {
			for i, p := range sorted {
				packed[i], bucketKeys[i] = p&mask, p>>w
			}
			continue
		}
		for i, p := range sorted {
			packed[i] = keys[p&mask]
		}
		for i, p := range sorted {
			bucketKeys[i] = p >> w
		}
	}
	packedScratchPool.Put(s)
	if group {
		return entries
	}
	return len(pays)
}

// groupSorted writes one entry per key of sorted — payload-carrier words in
// key order — at the cursor at of keys, pays and counts: the key, its largest
// payload and its number of words, and returns the cursor past the last
// entry. Words ascend with their keys, so the largest word of a key carries
// its largest payload, and a new key's first word exceeds every word before
// it: one running maximum serves every group. The loop does not branch on the
// data: every word rewrites its key's entry from that maximum and its
// distance from the group's first word, a new key first advancing the cursor
// and moving the group's start.
func groupSorted(sorted, keys, pays []uint64, counts []int32, at, w int) int {
	if len(sorted) == 0 {
		return at
	}
	n := len(sorted)
	keys, pays, counts = keys[at:][:n], pays[at:][:n], counts[at:][:n]
	mask := uint64(1)<<w - 1
	g, best, start := 0, sorted[0], 0
	for i, p := range sorted {
		fresh := 0
		if (p^best)>>w != 0 {
			fresh, start = 1, i
		}
		g += fresh
		best = max(best, p)
		keys[g], pays[g], counts[g] = best>>w, best&mask, int32(i-start+1)
	}
	return at + g + 1
}

// groupCounted groups a bucket of payload-carrier words that differ only in
// their digit bits [w, w+digit) and their payloads without sorting it: the
// counting pass sortBucket would take covers every key bit left. One read
// counts each digit value and keeps its largest word, which carries the key's
// largest payload; then one walk over the counters writes the present keys'
// entries in ascending order at the cursor at of keys, pays and counts, as
// groupSorted does, zeroes their maxima again and returns the cursor past the
// last. The entries may overwrite the bucket's own words, so none is written
// before the last word is read. A key is present where its count is, never
// its word: key 0 with payload 0 is word 0.
func (s *packedScratch) groupCounted(packed, keys, pays []uint64, counts []int32, at, w, digit int) int {
	tally, maxima := s.counters[:1<<digit], s.maxima[:1<<digit]
	clear(tally)
	mask := uint64(1)<<digit - 1
	for _, p := range packed {
		d := p >> w & mask
		tally[d]++
		maxima[d] = max(maxima[d], p)
	}
	low := uint64(1)<<w - 1
	for d, c := range tally {
		if c != 0 {
			best := maxima[d]
			keys[at], pays[at], counts[at] = best>>w, best&low, int32(c)
			maxima[d] = 0
			at++
		}
	}
	return at
}

// sortBucket stably sorts a, whose values agree on every bit from hi up, by
// bits [lo, hi); b is scratch of the same length. It reports whether the
// result is in b instead of a. Bits below lo never decide the order.
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
		insertionSortU64(a, lo)
		return false
	case slices.IsSorted(a): // words in order are keys in order, equal keys in source order
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
		insertionSortU64(b, lo)
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

// breakTies stably re-sorts every run of the sorted words that agree from bit
// w up by the cut low key bits the words dropped, read through their
// positions from the parked keys; tmp is scratch of the same length. Each
// run's words become those bits above the position, which the unpack reads
// alone.
func (s *packedScratch) breakTies(sorted, tmp, parked []uint64, w, cut int) {
	mask, dropped := uint64(1)<<w-1, uint64(1)<<cut-1
	for from := 0; from < len(sorted); {
		to := from + 1
		for to < len(sorted) && sorted[to]>>w == sorted[from]>>w {
			to++
		}
		if to-from > 1 {
			run := sorted[from:to]
			for i, p := range run {
				run[i] = parked[p&mask]&dropped<<w | p&mask
			}
			if s.sortBucket(run, tmp[from:to], w, w+cut) {
				copy(run, tmp[from:to])
			}
		}
		from = to
	}
}

// insertionSortU64 stably sorts a tiny bucket in place by its bits from lo up.
func insertionSortU64(packed []uint64, lo int) {
	low := uint64(1)<<lo - 1
	for i := 1; i < len(packed); i++ {
		p := packed[i]
		above := p | low // exceeded exactly by the words of greater keys
		j := i - 1
		for j >= 0 && packed[j] > above {
			packed[j+1] = packed[j]
			j--
		}
		packed[j+1] = p
	}
}

// sortTuplesPacked is the packed path of SortTuplesIntoColumns and
// SortTuplesIntoGroups (non-nil dstCounts): stage 1 over the AoS source, the
// only code of the sort that reads it after the first pass. Past l2Values it
// scatters by the top 8 bits of the key (all of a narrower key), whose counts
// the first pass took. It returns the number of entries finishPacked wrote.
func sortTuplesPacked(src []relation.Tuple, dstKeys, dstPays []uint64, dstCounts []int32, maxKey uint64, w int, inWord bool, counts []int, scratch Scratch) int {
	n := len(src)
	hi := w + bits.Len64(maxKey)
	var bounds [radixBuckets + 1]int
	buckets := 1
	if n <= l2Values {
		bounds[1] = n
		for i, t := range src {
			if inWord {
				dstPays[i] = t.Key<<w | t.Payload
			} else {
				dstPays[i], dstKeys[i] = t.Key<<w|uint64(i), t.Payload
			}
		}
	} else {
		buckets, hi = radixBuckets, max(hi-radixBits, w)
		shift := hi - w
		copy(bounds[1:], counts)
		for b := 0; b < radixBuckets; b++ {
			bounds[b+1] += bounds[b]
		}
		cursors := bounds
		for _, t := range src {
			b := int(t.Key>>shift) & radixMask
			pos := cursors[b]
			if inWord {
				dstPays[pos] = t.Key<<w | t.Payload
			} else {
				dstPays[pos], dstKeys[pos] = t.Key<<w|uint64(pos), t.Payload
			}
			cursors[b] = pos + 1
		}
	}
	return finishPacked(dstKeys, dstPays, dstCounts, bounds[:buckets+1], w, inWord, hi, nil, 0, scratch)
}

// sortTuplesWide is the wide path of the columnar sorts, for keys too wide
// for a w-bit position beside them: stage 1 scatters each full key into a
// leased parked column and its payload into dstKeys by the key's top 8 bits
// (the packed path's digit, so the first pass's counts serve both),
// or only copies them up to l2Values, and finishPacked sorts words of the
// key's top 64 − w bits and breaks their ties on the cut bits below.
func sortTuplesWide(src []relation.Tuple, dstKeys, dstPays []uint64, maxKey uint64, w int, counts []int, scratch Scratch) {
	n := len(src)
	var parked []uint64
	if scratch == nil {
		parked = make([]uint64, n)
	} else {
		parked = scratch.Uint64s(n)
		defer scratch.PutUint64s(parked)
	}
	hi := 64
	var bounds [radixBuckets + 1]int
	buckets := 1
	if n <= l2Values {
		bounds[1] = n
		for i, t := range src {
			parked[i], dstKeys[i] = t.Key, t.Payload
		}
	} else {
		buckets, hi = radixBuckets, 64-radixBits
		shift := DigitShift(maxKey)
		copy(bounds[1:], counts)
		for b := 0; b < radixBuckets; b++ {
			bounds[b+1] += bounds[b]
		}
		cursors := bounds
		for _, t := range src {
			b := int(t.Key>>shift) & radixMask
			pos := cursors[b]
			parked[pos], dstKeys[pos] = t.Key, t.Payload
			cursors[b] = pos + 1
		}
	}
	finishPacked(dstKeys, dstPays, nil, bounds[:buckets+1], w, false, hi, parked, bits.Len64(maxKey)+w-64, scratch)
}
