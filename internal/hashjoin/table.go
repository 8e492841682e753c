package hashjoin

import (
	"context"
	"math/bits"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
)

// chainTable is the chained hash table both joins build and probe: the shared
// table of the no-partitioning join, the private per-pair table of the radix
// join. The package comment gives the layout's reasons.
type chainTable struct {
	build []relation.Tuple // entry i is build[i], where it lies
	heads []int32          // first entry of every bucket's chain, -1 if empty
	next  []int32          // next[i] is the entry behind i in its chain, -1 ends it
	shift uint             // 64 − log2(len(heads)): a bucket is the product's top bits
}

// headsPerTuple sizes the head array relative to the build side (then rounded
// up to a power of two). The package comment has the measurement behind it.
const headsPerTuple = 8

// newChainTable leases an empty table over the build tuples. Inputs of more
// than MaxInt32 tuples never get here (validate).
func newChainTable(build []relation.Tuple, lease *memory.Lease) chainTable {
	heads := lease.Int32s(nextPow2(headsPerTuple * max(len(build), 1)))
	for i := range heads {
		heads[i] = -1
	}
	shift := uint(64 - bits.TrailingZeros(uint(len(heads))))
	return chainTable{build: build, heads: heads, next: lease.Int32s(len(build)), shift: shift}
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
// belongs to whoever inserts it.
func (t *chainTable) insert(lo, hi int, shared bool) (casRetries uint64) {
	if !shared {
		for i := lo; i < hi; i++ {
			head := &t.heads[bucketOf(t.build[i].Key, t.shift)]
			t.next[i], *head = *head, int32(i)
		}
		return 0
	}
	for i := lo; i < hi; i++ {
		head := &t.heads[bucketOf(t.build[i].Key, t.shift)]
		for {
			old := atomic.LoadInt32(head)
			t.next[i] = old
			if atomic.CompareAndSwapInt32(head, old, int32(i)) {
				break
			}
			casRetries++
		}
	}
	return casRetries
}

// probe is the one probe loop: it walks the chain of every probe tuple's
// bucket and appends each match's key and two payloads to three leased
// columns, which cross the sink boundary through mergejoin.EmitColumns a batch
// at a time, in probe order. It polls for cancellation every cancelBlock
// tuples, delivers what it has matched until then either way, and returns the
// number of entries inspected. The build must have passed its barrier.
func (t *chainTable) probe(ctx context.Context, probe []relation.Tuple, out mergejoin.Consumer, lease *memory.Lease) (inspected uint64) {
	keys, rp, sp := lease.Uint64s(batch.DefaultSize), lease.Uint64s(batch.DefaultSize), lease.Uint64s(batch.DefaultSize)
	n := 0
	build, heads, next, shift := t.build, t.heads, t.next, t.shift
	for lo := 0; lo < len(probe) && !mergejoin.Canceled(ctx); lo += cancelBlock {
		for _, tup := range probe[lo:min(lo+cancelBlock, len(probe))] {
			for idx := heads[bucketOf(tup.Key, shift)]; idx >= 0; idx = next[idx] {
				inspected++
				if e := build[idx]; e.Key == tup.Key {
					keys[n], rp[n], sp[n] = e.Key, e.Payload, tup.Payload
					if n++; n == len(keys) {
						mergejoin.EmitColumns(out, keys, rp, sp)
						n = 0
					}
				}
			}
		}
	}
	if n > 0 {
		mergejoin.EmitColumns(out, keys[:n], rp[:n], sp[:n])
	}
	lease.PutUint64s(keys)
	lease.PutUint64s(rp)
	lease.PutUint64s(sp)
	return inspected
}
