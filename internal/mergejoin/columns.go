package mergejoin

import (
	"math/bits"

	"repro/internal/batch"
	"repro/internal/search"
)

// The columnar merge-join kernel of the batch execution path: one loop for
// equi-joins and band joins over contiguous uint64 key columns, so every
// cache line fetched carries 8 candidate keys instead of 4 interleaved
// key/payload pairs.
//
// Sorted runs make the partners of a private key group one contiguous window
// of the public run — its equal-key group, or the keys within the band — and
// the kernel emits exactly that: one (private [i, iEnd) × public [lo, hi))
// entry per group, batched as batch.Ranges. It never touches a payload.
// Consumers that can fold a group × window whole (the max-sum and count
// aggregates, the group-by kernel over the projections it recognises) do so
// in O(m+n); every other consumer walks the batch's pairs, in the row
// kernels' order, so Join/JoinBand and the columnar path stay pair-for-pair
// identical. An inner equi-join whose consumer keeps only the pairs' number
// and largest payload sum needs no entry at all: FoldColumns walks the same
// cursors and folds every group as it scans it.

// RangeConsumer is the one interface between a join and its sink writer: it
// takes the join's output a batch of range entries at a time, every pair of
// every entry. The batch is only valid during the call.
type RangeConsumer interface {
	ConsumeRanges(b *batch.Ranges)
}

// Pairs returns c as a RangeConsumer: c itself if it takes ranges, otherwise
// the adapter that walks every batch into c pair by pair (batch.Ranges.All).
func Pairs(c Consumer) RangeConsumer {
	if rc, ok := c.(RangeConsumer); ok {
		return rc
	}
	return pairWalker{c}
}

// pairWalker is the pair-delivery adapter of Pairs.
type pairWalker struct{ Consumer }

// ConsumeRanges implements RangeConsumer.
func (p pairWalker) ConsumeRanges(b *batch.Ranges) {
	for r, s := range b.All() {
		p.Consume(r, s)
	}
}

// ConsumeRanges implements RangeConsumer: the largest sum of an entry is its
// largest private payload plus its largest public one (windowMax), and the
// loop over the entries keeps its state in registers. Should one of those
// sums overflow, some pair sums of the entry wrap mod 2^64 and the maximum of
// wrapped sums does not separate, so the entry's pairs are visited instead.
func (m *MaxAggregate) ConsumeRanges(b *batch.Ranges) {
	rp, sp := b.RPayloads, b.SPayloads
	iEnds, los, his := b.IEnd[:len(b.I)], b.Lo[:len(b.I)], b.Hi[:len(b.I)]
	var best uint64
	for x, i := range b.I {
		sum, carry := bits.Add64(windowMax(rp, i, iEnds[x]), windowMax(sp, los[x], his[x]), 0)
		if carry != 0 {
			sum = pairMax(rp[i:iEnds[x]], sp[los[x]:his[x]])
		}
		best = max(best, sum)
	}
	if m.Count == 0 || best > m.Max {
		m.Max = best
	}
	m.Count += b.Pairs
}

// windowMax returns the largest of vals[lo:hi], a non-empty window. Windows
// of a few tuples are the common case — a foreign key's multiplicity, per
// public run — and their length is what a branch predictor cannot learn: an
// exit misprediction per window costs more than the window's loads do. So up
// to four values are folded without a branch on the length — the first, the
// last, and two inner positions that fall onto those when the window is
// shorter — and only longer windows enter the loop.
func windowMax(vals []uint64, lo, hi int32) uint64 {
	n := hi - lo
	second := lo - (2-n)>>31    // lo+1 if n > 2, else lo
	third := hi - 1 + (3-n)>>31 // hi-2 if n > 3, else hi-1
	best := max(vals[lo], vals[second], vals[third], vals[hi-1])
	for c := lo + 2; c < hi-2; c++ {
		best = max(best, vals[c])
	}
	return best
}

// ConsumeRanges implements RangeConsumer.
func (c *Counter) ConsumeRanges(b *batch.Ranges) { c.Count += b.Pairs }

// bandWindow returns the key interval [k − band, k + band], clamped to the
// uint64 domain instead of wrapping around.
func bandWindow(k, band uint64) (low, high uint64) {
	low, high = k-band, k+band
	if low > k {
		low = 0
	}
	if high < k {
		high = ^uint64(0)
	}
	return low, high
}

// JoinColumns merge joins two key-sorted column pairs and feeds every
// matching pair to the consumer, batched through sc (nil sc allocates a
// throwaway scratch): JoinColumnsBand with band 0.
func JoinColumns(rKeys, rPays, sKeys, sPays []uint64, out RangeConsumer, sc *batch.Scratch) {
	JoinColumnsBand(rKeys, rPays, sKeys, sPays, 0, out, sc)
}

// JoinColumnsBand joins two key-sorted column pairs on |r.key − s.key| <=
// band and feeds every matching pair to the consumer as range entries. Two
// public cursors, both monotone because
// the private keys ascend, bracket the window of the current private key
// group, so the kernel runs in O(|private| + |public|) key comparisons plus
// one entry per matching group. Columns must be shorter than 2^31 elements —
// indices batch as int32, and runs are per-worker chunks well below that.
func JoinColumnsBand(rKeys, rPays, sKeys, sPays []uint64, band uint64, out RangeConsumer, sc *batch.Scratch) {
	nR, nS := len(rKeys), len(sKeys)
	if nR == 0 || nS == 0 {
		return
	}
	if sc == nil {
		sc = batch.NewScratch(0, nil)
	}
	b := sc.Ranges(rKeys, rPays, sKeys, sPays)
	is, iEnds, los, his := b.I, b.IEnd[:len(b.I)], b.Lo[:len(b.I)], b.Hi[:len(b.I)]
	n, pairs := 0, uint64(0)

	i, lo, hi := 0, 0, 0
	for i < nR {
		k := rKeys[i]
		low, high := bandWindow(k, band)
		// Keys below low can match neither this nor any later private key.
		for lo < nS && sKeys[lo] < low {
			lo++
		}
		if lo == nS {
			break
		}
		if sk := sKeys[lo]; sk > high {
			// No partner for k, nor for any private key that still ends
			// below sk (sk > high >= band, so the difference cannot wrap).
			// The private cursor is worker-local and sequential; the
			// hardware prefetcher covers it.
			for i++; i < nR && rKeys[i] < sk-band; i++ {
			}
			continue
		}
		iEnd := i + 1
		for iEnd < nR && rKeys[iEnd] == k {
			iEnd++
		}
		hi = max(hi, lo+1)
		for hi < nS && sKeys[hi] <= high {
			hi++
		}
		is[n], iEnds[n], los[n], his[n] = int32(i), int32(iEnd), int32(lo), int32(hi)
		pairs += uint64(iEnd-i) * uint64(hi-lo)
		n++
		if n == len(is) {
			out.ConsumeRanges(b.Head(n, pairs))
			n, pairs = 0, 0
		}
		i = iEnd
		if band == 0 {
			lo = hi // windows of an equi-join are disjoint: skip the one just emitted
		}
	}
	if n > 0 {
		out.ConsumeRanges(b.Head(n, pairs))
	}
}

// JoinColumnsWithSkip is JoinColumnsBand preceded by interpolation searches
// that narrow the public key column to the window the private run can reach:
// its key range widened by the band. It returns the size of that window, the
// number of public tuples the kernel scans.
func JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays []uint64, band uint64, out RangeConsumer, sc *batch.Scratch) (publicScanned int) {
	start, end := reach(rKeys, sKeys, band)
	if start >= end {
		return 0
	}
	JoinColumnsBand(rKeys, rPays, sKeys[start:end], sPays[start:end], band, out, sc)
	return end - start
}

// reach returns the window [start, end) of the public keys that the private
// keys can reach under the band, found by interpolation search; it is empty
// when either side is.
func reach(rKeys, sKeys []uint64, band uint64) (start, end int) {
	if len(rKeys) == 0 || len(sKeys) == 0 {
		return 0, 0
	}
	low, _ := bandWindow(rKeys[0], band)
	_, high := bandWindow(rKeys[len(rKeys)-1], band)
	return search.LowerBoundKeys(sKeys, low), search.UpperBoundKeys(sKeys, high)
}

// enter returns the window of the public keys an equi-join scans: the one the
// private keys reach (reach) with skip, the whole run without.
func enter(rKeys, sKeys []uint64, skip bool) (start, end int) {
	if skip {
		return reach(rKeys, sKeys, 0)
	}
	return 0, len(sKeys)
}

// FoldColumns is the equi-join of JoinColumns folded into what the max-sum
// sink keeps of it: the number of matching pairs and their largest payload
// sum mod 2^64, MaxAggregate's meaning (0 without pairs). It walks the same
// two monotone cursors and forms no range entry: while it scans a private key
// group and its public window it takes each side's largest payload, and the
// group's largest sum is their sum — unless that sum carries, where some of
// the group's pair sums wrap and their maximum does not separate, so the
// group's pairs are visited. With skip it first enters the public run at the
// window the private keys reach, as JoinColumnsWithSkip does, and returns
// that window's size as scanned; without it scanned is the whole public run.
func FoldColumns(rKeys, rPays, sKeys, sPays []uint64, skip bool) (pairs, maxSum uint64, scanned int) {
	start, end := enter(rKeys, sKeys, skip)
	pairs, maxSum = foldGroups(rKeys, rPays, sKeys[start:end], sPays[start:end])
	return pairs, maxSum, end - start
}

// foldGroups is FoldColumns' loop over two whole key-sorted column pairs.
func foldGroups(rKeys, rPays, sKeys, sPays []uint64) (pairs, best uint64) {
	rPays, sPays = rPays[:len(rKeys)], sPays[:len(sKeys)]
	nR, nS := len(rKeys), len(sKeys)
	i, lo := 0, 0
	for i < nR {
		k := rKeys[i]
		for lo < nS && sKeys[lo] < k {
			lo++
		}
		if lo == nS {
			break
		}
		if sk := sKeys[lo]; sk > k {
			for i++; i < nR && rKeys[i] < sk; i++ {
			}
			continue
		}
		iEnd, rMax := i+1, rPays[i]
		for ; iEnd < nR && rKeys[iEnd] == k; iEnd++ {
			rMax = max(rMax, rPays[iEnd])
		}
		hi, sMax := lo+1, sPays[lo]
		for ; hi < nS && sKeys[hi] == k; hi++ {
			sMax = max(sMax, sPays[hi])
		}
		sum, carry := bits.Add64(rMax, sMax, 0)
		if carry != 0 {
			sum = pairMax(rPays[i:iEnd], sPays[lo:hi])
		}
		best = max(best, sum)
		pairs += uint64(iEnd-i) * uint64(hi-lo)
		i, lo = iEnd, hi
	}
	return pairs, best
}

// FoldGroups is FoldColumns over a grouped public run (batch.Run.Counts):
// sKeys holds distinct keys in ascending order, sMaxes each key's largest
// payload and sCounts its number of tuples. A private key group of m tuples
// meets at most one public entry, adds m·count pairs and offers the sum of
// the two sides' largest payloads, so the loop walks the private key groups
// against the distinct public keys without a public group to scan. The
// caller guarantees that no such sum carries past 2^64 − 1: a group keeps
// only its largest payload, so FoldColumns' pair-by-pair fallback cannot be
// taken here. skip and scanned are FoldColumns', counted in public entries.
func FoldGroups(rKeys, rPays, sKeys, sMaxes []uint64, sCounts []int32, skip bool) (pairs, maxSum uint64, scanned int) {
	start, end := enter(rKeys, sKeys, skip)
	pairs, maxSum = foldDistinct(rKeys, rPays, sKeys[start:end], sMaxes[start:end], sCounts[start:end])
	return pairs, maxSum, end - start
}

// foldDistinct is FoldGroups' loop over a whole key-sorted private column
// pair and a whole grouped public run.
func foldDistinct(rKeys, rPays, sKeys, sMaxes []uint64, sCounts []int32) (pairs, best uint64) {
	rPays = rPays[:len(rKeys)]
	sMaxes, sCounts = sMaxes[:len(sKeys)], sCounts[:len(sKeys)]
	nR, nS := len(rKeys), len(sKeys)
	i, lo := 0, 0
	for i < nR {
		k := rKeys[i]
		for lo < nS && sKeys[lo] < k {
			lo++
		}
		if lo == nS {
			break
		}
		if sk := sKeys[lo]; sk > k {
			for i++; i < nR && rKeys[i] < sk; i++ {
			}
			continue
		}
		iEnd, rMax := i+1, rPays[i]
		for ; iEnd < nR && rKeys[iEnd] == k; iEnd++ {
			rMax = max(rMax, rPays[iEnd])
		}
		best = max(best, rMax+sMaxes[lo])
		pairs += uint64(iEnd-i) * uint64(sCounts[lo])
		i, lo = iEnd, lo+1
	}
	return pairs, best
}

// pairMax returns the largest r + s mod 2^64 over rs × ss.
func pairMax(rs, ss []uint64) uint64 {
	var best uint64
	for _, r := range rs {
		for _, s := range ss {
			best = max(best, r+s)
		}
	}
	return best
}
