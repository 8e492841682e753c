package hashjoin

import (
	"context"
	"math/bits"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
)

// chainTable is the chained hash table both joins build and probe: the shared
// table of the no-partitioning join, the private per-pair table of the radix
// join. The package comment gives the layout's reasons. Entries are numbered
// from 1, so that 0 — the zero value of a cleared array — ends a chain.
type chainTable struct {
	build    []relation.Tuple // entry i is build[i-1], where it lies
	heads    []int32          // first entry of every bucket's chain, 0 if empty
	next     []int32          // next[i] is the entry behind i in its chain, 0 ends it
	shift    uint             // 64 − log2(len(heads)): a bucket is the product's top bits
	distinct bool             // no key twice in build: every probe walk ends at its first match
}

// headsPerTuple sizes the head array relative to the build side (then rounded
// up to a power of two). The package comment has the measurement behind it.
const headsPerTuple = 8

// newChainTable leases an empty table over the build tuples. Inputs of more
// than MaxInt32 tuples never get here (validate).
func newChainTable(build []relation.Tuple, lease *memory.Lease) chainTable {
	heads := lease.Int32s(nextPow2(headsPerTuple * max(len(build), 1)))
	clear(heads)
	shift := uint(64 - bits.TrailingZeros(uint(len(heads))))
	return chainTable{build: build, heads: heads, next: lease.Int32s(len(build) + 1), shift: shift}
}

// release hands the table's arrays back for reuse within the same join.
func (t *chainTable) release(lease *memory.Lease) {
	lease.PutInt32s(t.heads)
	lease.PutInt32s(t.next)
}

// bucketOf is a Fibonacci (multiplicative) hash into a table of 2^(64−shift)
// buckets. The top bits of the product are the ones every key bit reaches; any
// lower window ignores the key bits above it, so keys that differ only there
// would share one chain.
func bucketOf(key uint64, shift uint) uint64 {
	return key * 0x9e3779b97f4a7c15 >> (shift & 63)
}

// insert pushes entries [lo, hi) onto their buckets' chains. A build that
// other workers take part in swaps each head in with compare-and-swap — the
// synchronization commandment C3 warns about — and reports its retries; a
// build nobody shares uses plain stores. The next links need neither: entry i
// belongs to whoever inserts it. Unless dup is nil, each new entry looks for
// its key on the chain behind it until *dup is set — equal keys share a
// bucket, and behind a successful swap lies every entry linked before — and
// sets *dup when it finds it.
func (t *chainTable) insert(lo, hi int, shared bool, dup *bool) (casRetries uint64) {
	look := dup != nil && !*dup
	for i := lo; i < hi; i++ {
		key, entry := t.build[i].Key, int32(i+1)
		head := &t.heads[bucketOf(key, t.shift)]
		if !shared {
			t.next[entry], *head = *head, entry
		} else {
			for old := atomic.LoadInt32(head); ; old = atomic.LoadInt32(head) {
				t.next[entry] = old
				if atomic.CompareAndSwapInt32(head, old, entry) {
					break
				}
				casRetries++
			}
		}
		if look && find(t.build, t.next, t.next[entry], key) != 0 {
			*dup, look = true, false
		}
	}
	return casRetries
}

// find returns the first entry with key on the chain from entry idx on, or 0.
func find(build []relation.Tuple, next []int32, idx int32, key uint64) int32 {
	for idx != 0 && build[idx-1].Key != key {
		idx = next[idx]
	}
	return idx
}

// folder is the boundary writer of a sink that keeps of its pairs only their
// number and their largest payload sum: the max-sum and count sinks, which
// sink.FoldsRanges names. The probe folds only behind no tie-break verifier.
type folder interface {
	ConsumeFold(pairs, maxSum uint64)
}

// probe walks the chain of every probe tuple's bucket and hands the matches to
// out, in one of two loops. Where the join's sink folds (folds: it is one
// sink.FoldsRanges names, behind no tie-break verifier) and out takes folds,
// probeFold forms no pair. Every other sink gets the range loop: each match's
// key, build payload and probe payload are gathered into three leased
// columns, and whenever they are full — a chain that overflows them goes on
// in the next batch — entries cut them into a range batch, which crosses the
// sink boundary, in probe order. Both poll for cancellation every cancelBlock
// tuples, deliver what they have matched until then either way, and return the
// number of entries inspected; over a distinct build, whose walks end at their
// first match, the matches alone — the entries passed on the way depend on the
// order in which the workers linked the chain. The build must have passed its
// barrier.
func (t *chainTable) probe(ctx context.Context, probe []relation.Tuple, out mergejoin.RangeConsumer, folds bool, lease *memory.Lease) (inspected uint64) {
	if f, ok := out.(folder); ok && folds {
		return t.probeFold(ctx, probe, f)
	}
	const size = batch.DefaultSize
	sc := batch.NewScratch(size, lease)
	defer sc.Close()
	cols := lease.Uint64s(3 * size)
	defer lease.PutUint64s(cols)
	keys, rp, sp := cols[:size], cols[size:2*size], cols[2*size:]
	b := sc.Ranges(keys, rp, keys, sp)
	m, flushed := 0, uint64(0)
	build, heads, next, shift, distinct := t.build, t.heads, t.next, t.shift, t.distinct
	for lo := 0; lo < len(probe) && !sched.Canceled(ctx); lo += cancelBlock {
		for _, tup := range probe[lo:min(lo+cancelBlock, len(probe))] {
			for idx := heads[bucketOf(tup.Key, shift)]; idx != 0; idx = next[idx] {
				inspected++
				if e := build[idx-1]; e.Key == tup.Key {
					keys[m], rp[m], sp[m] = e.Key, e.Payload, tup.Payload
					if m++; m == size {
						out.ConsumeRanges(entries(b, m))
						m, flushed = 0, flushed+size
					}
					if distinct {
						break
					}
				}
			}
		}
	}
	if distinct {
		inspected = flushed + uint64(m)
	}
	if m > 0 {
		out.ConsumeRanges(entries(b, m))
	}
	return inspected
}

// entries cuts the first m gathered matches of b into its entries, one per
// run of matches of one probe tuple: the run's build tuples [I, IEnd) against
// the probe tuple, which every match of the run carries, at [I, I+1) of the
// public columns. Consecutive equal probe tuples share a run; their pairs are
// the same either way.
func entries(b *batch.Ranges, m int) *batch.Ranges {
	keys, sp := b.RKeys, b.SPayloads
	is, iEnds, los, his := b.I[:m], b.IEnd[:m], b.Lo[:m], b.Hi[:m]
	n := 0
	for x := range m {
		if x == 0 || keys[x] != keys[x-1] || sp[x] != sp[x-1] {
			if n > 0 {
				iEnds[n-1] = int32(x)
			}
			is[n], los[n], his[n] = int32(x), int32(x), int32(x+1)
			n++
		}
	}
	iEnds[n-1] = int32(m)
	return b.Head(n, uint64(m))
}

// probeFold is the probe loop behind a folding sink: it walks the same chains
// but keeps the match count and the largest payload sum — mod 2^64, as
// MaxAggregate computes it — in registers, and hands both to out once, as one
// batch, when it ends. It leases nothing. Each loop is a function of its own,
// which keeps its counters in registers.
func (t *chainTable) probeFold(ctx context.Context, probe []relation.Tuple, out folder) (inspected uint64) {
	var pairs, best uint64
	fold := t.foldChains
	if t.distinct {
		fold = t.foldFirst
	}
	for lo := 0; lo < len(probe) && !sched.Canceled(ctx); lo += cancelBlock {
		p, b, n := fold(probe[lo:min(lo+cancelBlock, len(probe))])
		pairs, best, inspected = pairs+p, max(best, b), inspected+n
	}
	if pairs > 0 {
		out.ConsumeFold(pairs, best)
	}
	return inspected
}

// foldChains folds block's matches, walking every chain to its end.
func (t *chainTable) foldChains(block []relation.Tuple) (pairs, best, inspected uint64) {
	build, heads, next, shift := t.build, t.heads, t.next, t.shift
	for _, tup := range block {
		for idx := heads[bucketOf(tup.Key, shift)]; idx != 0; idx = next[idx] {
			inspected++
			if e := build[idx-1]; e.Key == tup.Key {
				pairs++
				best = max(best, e.Payload+tup.Payload)
			}
		}
	}
	return pairs, best, inspected
}

// foldFirst folds block's matches over a distinct build, ending every walk at
// its first match.
func (t *chainTable) foldFirst(block []relation.Tuple) (pairs, best, inspected uint64) {
	build, heads, next, shift := t.build, t.heads, t.next, t.shift
	for _, tup := range block {
		if idx := find(build, next, heads[bucketOf(tup.Key, shift)], tup.Key); idx != 0 {
			pairs++
			best = max(best, build[idx-1].Payload+tup.Payload)
		}
	}
	return pairs, best, pairs
}

// slotWords is the size in words of a groupjoin slot: a key, one worker's
// count and value for it, and a pad that keeps the slot inside one cache line.
const slotWords = 4

// foldProbe is the probe loop of the groupjoin, over a table whose keys are
// distinct: a probe ends at its first entry, and a match forms no pair but
// folds into the matched entry's slot, counting it and merging its payload
// into the value under agg. Entry i's slot is slots[slotWords*i:], holding
// the key it compares against beside the accumulator, so a match costs the
// head's cache line and the slot's. Slot 0 is a sentinel — the slot of entry
// 0, the end of every chain — that takes each probe tuple's key before its
// walk: every walk ends at a slot with the key, and a tuple without a partner
// folds into the sentinel, so no branch depends on whether the key is there.
// It polls for cancellation every cancelBlock tuples and returns the number
// of entries inspected.
func (t *chainTable) foldProbe(ctx context.Context, probe []relation.Tuple, slots []uint64, agg sink.Agg) (inspected uint64) {
	heads, next, shift := t.heads, t.next, t.shift
	probed, unmatched := 0, slots[1]
	for lo := 0; lo < len(probe) && !sched.Canceled(ctx); lo += cancelBlock {
		block := probe[lo:min(lo+cancelBlock, len(probe))]
		for _, tup := range block {
			slots[0] = tup.Key
			idx := heads[bucketOf(tup.Key, shift)]
			for slots[slotWords*int(idx)] != tup.Key {
				idx = next[idx]
				inspected++
			}
			slot := slots[slotWords*int(idx):][:3]
			slot[1]++
			slot[2] = agg.Merge(slot[2], tup.Payload)
		}
		probed += len(block)
	}
	// A walk that found its key inspected one entry more than its steps.
	return inspected + uint64(probed) - (slots[1] - unmatched)
}
