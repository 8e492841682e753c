package mergejoin

import (
	"math/bits"

	"repro/internal/batch"
	"repro/internal/relation"
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
// Consumers that can fold a group × window whole (RangeConsumer: the max-sum
// and count aggregates, the group-by kernel over the projections it
// recognises) do so in O(m+n); for every other consumer the kernel expands
// the batch, group by group in the row kernels' order, so Join/JoinBand and
// the columnar path stay pair-for-pair identical.

// BatchConsumer is the batch fast path of a Consumer: sinks that implement it
// receive expanded equi-join output as columns — the join key and both
// payload columns, equal length — instead of one Consume call per pair.
// EmitColumns falls back to per-pair delivery for consumers that do not
// implement it.
type BatchConsumer interface {
	ConsumeColumns(keys, rPayloads, sPayloads []uint64)
}

// RangeConsumer is implemented by consumers that can take merge output a key
// group × window at a time. ConsumeRanges either consumes every pair of every
// entry and reports true, or reports false having consumed nothing, and the
// kernel expands the batch instead. The batch is only valid during the call.
type RangeConsumer interface {
	ConsumeRanges(b *batch.Ranges) bool
}

// ConsumeColumns implements BatchConsumer with a branch-free reduction: the
// running maximum folds through the max builtin (a conditional move, not a
// branch), and the pair count advances once per batch.
func (m *MaxAggregate) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	if len(keys) == 0 {
		return
	}
	best := rPayloads[0] + sPayloads[0]
	if m.Count > 0 {
		best = max(best, m.Max)
	}
	for i := 1; i < len(rPayloads); i++ {
		best = max(best, rPayloads[i]+sPayloads[i])
	}
	m.Max = best
	m.Count += uint64(len(keys))
}

// ConsumeRanges implements RangeConsumer: the largest sum of an entry is its
// largest private payload plus its largest public one (windowMax), and the
// loop over the entries keeps its state in registers. Should one of those
// sums overflow, some pair sums of the batch wrap mod 2^64 and the maximum of
// wrapped sums does not separate, so the batch's pairs are visited instead.
func (m *MaxAggregate) ConsumeRanges(b *batch.Ranges) bool {
	rp, sp := b.RPayloads, b.SPayloads
	iEnds, los, his := b.IEnd[:len(b.I)], b.Lo[:len(b.I)], b.Hi[:len(b.I)]
	var best, wrapped uint64
	for x, i := range b.I {
		sum, carry := bits.Add64(windowMax(rp, i, iEnds[x]), windowMax(sp, los[x], his[x]), 0)
		wrapped |= carry
		best = max(best, sum)
	}
	if wrapped != 0 {
		best = 0
		for x, i := range b.I {
			for _, r := range rp[i:iEnds[x]] {
				for _, s := range sp[los[x]:his[x]] {
					best = max(best, r+s)
				}
			}
		}
	}
	if m.Count == 0 || best > m.Max {
		m.Max = best
	}
	m.Count += b.Pairs
	return true
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

// ConsumeColumns implements BatchConsumer: one counter update per batch.
func (c *Counter) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	c.Count += uint64(len(keys))
}

// ConsumeRanges implements RangeConsumer.
func (c *Counter) ConsumeRanges(b *batch.Ranges) bool {
	c.Count += b.Pairs
	return true
}

// ConsumeColumns implements BatchConsumer.
func (m *Materializer) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	for i := range keys {
		m.Out = append(m.Out, JoinedTuple{Key: keys[i], RPayload: rPayloads[i], SPayload: sPayloads[i]})
	}
}

// EmitColumns delivers one match batch to a consumer: directly when the
// consumer implements BatchConsumer, tuple by tuple otherwise. The
// reconstruction uses the shared join key for both sides, exactly as the row
// kernels see it.
func EmitColumns(out Consumer, keys, rPayloads, sPayloads []uint64) {
	if bc, ok := out.(BatchConsumer); ok {
		bc.ConsumeColumns(keys, rPayloads, sPayloads)
		return
	}
	for i := range keys {
		out.Consume(
			relation.Tuple{Key: keys[i], Payload: rPayloads[i]},
			relation.Tuple{Key: keys[i], Payload: sPayloads[i]},
		)
	}
}

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
func JoinColumns(rKeys, rPays, sKeys, sPays []uint64, out Consumer, sc *batch.Scratch) {
	JoinColumnsBand(rKeys, rPays, sKeys, sPays, 0, out, sc)
}

// JoinColumnsBand joins two key-sorted column pairs on |r.key − s.key| <=
// band and feeds every matching pair to the consumer — as ranges when it
// takes them, expanded otherwise. Two public cursors, both monotone because
// the private keys ascend, bracket the window of the current private key
// group, so the kernel runs in O(|private| + |public|) key comparisons plus
// one entry per matching group. Columns must be shorter than 2^31 elements —
// indices batch as int32, and runs are per-worker chunks well below that.
func JoinColumnsBand(rKeys, rPays, sKeys, sPays []uint64, band uint64, out Consumer, sc *batch.Scratch) {
	nR, nS := len(rKeys), len(sKeys)
	if nR == 0 || nS == 0 {
		return
	}
	if sc == nil {
		sc = batch.NewScratch(0, nil)
	}
	b := sc.Ranges(rKeys, rPays, sKeys, sPays, band)
	is, iEnds, los, his := b.I, b.IEnd[:len(b.I)], b.Lo[:len(b.I)], b.Hi[:len(b.I)]
	n := 0

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
		b.Pairs += uint64(iEnd-i) * uint64(hi-lo)
		n++
		if n == len(is) {
			emitRanges(out, b, n, sc)
			n = 0
		}
		i = iEnd
		if band == 0 {
			lo = hi // windows of an equi-join are disjoint: skip the one just emitted
		}
	}
	if n > 0 {
		emitRanges(out, b, n, sc)
	}
}

// emitRanges hands the first n entries of the kernel's batch to the consumer,
// as ranges if it takes them and expanded otherwise.
func emitRanges(out Consumer, b *batch.Ranges, n int, sc *batch.Scratch) {
	full := *b
	b.I, b.IEnd, b.Lo, b.Hi = full.I[:n], full.IEnd[:n], full.Lo[:n], full.Hi[:n]
	deliverRanges(out, b, sc)
	*b = full
	b.Pairs = 0
}

// deliverRanges is the one place a range batch crosses to a consumer: whole
// if the consumer takes it, pair by pair through expandRanges otherwise.
func deliverRanges(out Consumer, b *batch.Ranges, sc *batch.Scratch) {
	if rc, ok := out.(RangeConsumer); !ok || !rc.ConsumeRanges(b) {
		expandRanges(out, b, sc)
	}
}

// expandRanges delivers every pair of a range batch, private tuple by private
// tuple as the row kernels do. Equi-join pairs are gathered into the
// scratch's columns — the single pass that touches payload memory — and cross
// the consumer boundary a column batch at a time. A band pair carries two
// keys where a column batch has room for one, and so does a pair against the
// null run (its public key is 0, not the private key): those are delivered
// one by one with both tuples.
func expandRanges(out Consumer, b *batch.Ranges, sc *batch.Scratch) {
	if b.Band > 0 || b.Null {
		for x, i := range b.I {
			for a := i; a < b.IEnd[x]; a++ {
				r := relation.Tuple{Key: b.RKeys[a], Payload: b.RPayloads[a]}
				for c := b.Lo[x]; c < b.Hi[x]; c++ {
					out.Consume(r, relation.Tuple{Key: b.SKeys[c], Payload: b.SPayloads[c]})
				}
			}
		}
		return
	}
	cols := sc.Columns()
	keys, rp, sp := cols.Keys, cols.RPayloads, cols.SPayloads
	n := 0
	for x, i := range b.I {
		k := b.RKeys[i]
		for a := i; a < b.IEnd[x]; a++ {
			r := b.RPayloads[a]
			for c := b.Lo[x]; c < b.Hi[x]; c++ {
				keys[n], rp[n], sp[n] = k, r, b.SPayloads[c]
				n++
				if n == len(keys) {
					EmitColumns(out, keys, rp, sp)
					n = 0
				}
			}
		}
	}
	if n > 0 {
		EmitColumns(out, keys[:n], rp[:n], sp[:n])
	}
}

// JoinColumnsWithSkip is JoinColumnsBand preceded by interpolation searches
// that narrow the public key column to the window the private run can reach:
// its key range widened by the band. It returns the size of that window, the
// number of public tuples the kernel scans.
func JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays []uint64, band uint64, out Consumer, sc *batch.Scratch) (publicScanned int) {
	if len(rKeys) == 0 || len(sKeys) == 0 {
		return 0
	}
	low, _ := bandWindow(rKeys[0], band)
	_, high := bandWindow(rKeys[len(rKeys)-1], band)
	start := search.LowerBoundKeys(sKeys, low)
	end := search.UpperBoundKeys(sKeys, high)
	if start >= end {
		return 0
	}
	JoinColumnsBand(rKeys, rPays, sKeys[start:end], sPays[start:end], band, out, sc)
	return end - start
}
