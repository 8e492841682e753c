// Package batch defines the columnar batch representation of the engine's
// vectorized execution path: tuples decomposed into separate key and payload
// column slices (structure-of-arrays), processed a fixed-size batch at a
// time.
//
// The layout is the cache-hierarchy argument of the MPSM paper taken one step
// further. The paper's hot loops — run sorting, merge-join scanning,
// histogram building — touch only the 8-byte join key of every 16-byte tuple,
// so an array-of-structs walk wastes half of every cache line and half of the
// effective memory bandwidth. Splitting the columns lets the sort move 8-byte
// keys (a position packed into their spare low bits) instead of 16-byte
// tuples, lets the merge kernel scan a contiguous key column, and lets
// selections run branch-free over raw uint64 lanes, emitting selection
// vectors instead of calling a predicate per tuple.
//
// Column buffers are leased from the engine's scratch pool (internal/memory)
// like every other hot-path buffer, so the columnar path stays allocation-free
// in steady state. Join output is batched as Ranges, the one form every join
// hands its sink: one entry per private key group naming the contiguous
// window of the public run it joins with — what sorted runs give a merge join
// for free — or, behind a hash probe, per matching probe tuple. Consumers that
// can fold a whole group × window (aggregates, counters) do so in O(m+n) and
// never see a pair; the others walk the batch's pairs (All), so the sink
// boundary is crossed once per batch either way.
package batch

import (
	"iter"
	"math"

	"repro/internal/memory"
	"repro/internal/relation"
)

// DefaultSize is the default batch size, in range entries and in the pairs a
// hash probe gathers: 1024 keep a batch's four index columns (16 KiB) or a
// probe's three gather columns (24 KiB) inside a typical 32–48 KiB L1 data
// cache while amortizing the per-batch sink call.
const DefaultSize = 1024

// Run is a sorted worker-local run in columnar form: the key column in
// ascending order and the payload column permuted alongside it, so
// Keys[i] and Payloads[i] together form the i-th tuple of the run. Runs are
// the unit the MPSM join phase operates on: each worker merge joins its
// private run against all public runs.
//
// A grouped run (Counts != nil) is the public run of a join that keeps of
// each public key only its number of tuples and its largest payload: entry i
// is a key group, Keys holds distinct keys in ascending order, Payloads each
// key's largest payload and Counts[i] its number of tuples.
type Run struct {
	// Worker is the worker that produced the run; Node is the NUMA node the
	// run's column buffers live on.
	Worker, Node int
	// Keys is the sorted key column; Payloads is the payload column in the
	// same order. Both have identical length.
	Keys, Payloads []uint64
	// Counts is the tuple count of each key group of a grouped run, of the
	// columns' length; nil on every other run.
	Counts []int32
	// PayBound is at least every payload of the run: the payloads' OR where
	// run generation took it, math.MaxUint64 (NewRun's) where nothing did.
	PayBound uint64
}

// Len returns the number of entries in the run: tuples, or key groups of a
// grouped run.
func (r *Run) Len() int { return len(r.Keys) }

// NewRun leases key and payload columns of length n from the lease (plain
// allocation when the lease is nil). The contents are unspecified, and so is
// PayBound's bound: math.MaxUint64.
func NewRun(worker, node, n int, lease *memory.Lease) *Run {
	return &Run{
		Worker:   worker,
		Node:     node,
		Keys:     lease.Uint64s(n),
		Payloads: lease.Uint64s(n),
		PayBound: math.MaxUint64,
	}
}

// Release hands the run's columns back to the lease for reuse within the
// same join.
func (r *Run) Release(lease *memory.Lease) {
	lease.PutUint64s(r.Keys)
	lease.PutUint64s(r.Payloads)
	lease.PutInt32s(r.Counts)
}

// Tuples interleaves the run back into an array-of-structs slice, appending
// to dst. It is a test helper, not a hot-path operation; on a grouped run
// it yields one tuple per key group.
func (r *Run) Tuples(dst []relation.Tuple) []relation.Tuple {
	for i := range r.Keys {
		dst = append(dst, relation.Tuple{Key: r.Keys[i], Payload: r.Payloads[i]})
	}
	return dst
}

// Ranges is one batch of join output in range form. Entry x pairs every
// private tuple in [I[x], IEnd[x]) — one key group of the private run — with
// every public tuple in [Lo[x], Hi[x]), the group's window of the public run:
// its equal-key group in an equi-join, the keys within the band of the
// group's key in a band join. Neither side of an entry is empty, and the four
// index columns share one length. A pair is the private tuple
// (RKeys[a], RPayloads[a]) and the public tuple (SKeys[c], SPayloads[c]),
// each under its own key.
//
// The outer, semi and anti joins classify private key groups rather than
// pair them, and report each classified group as an entry too: its window is
// [0, 1) of the null run, a one-tuple public run {0, 0}. A consumer needs no
// case for it — the group's pairs are (r, zero tuple). A hash probe gathers
// every match's key, build payload and probe payload into three columns — the
// key column serves both sides — and cuts them into one entry
// [I, IEnd) × [I, I+1) per matching probe tuple: its build matches against
// the probe tuple, which each of them carries.
type Ranges struct {
	// RKeys/RPayloads are the private run the entries index, SKeys/SPayloads
	// the public one.
	RKeys, RPayloads []uint64
	SKeys, SPayloads []uint64
	I, IEnd, Lo, Hi  []int32
	// Pairs is the number of pairs the entries stand for: the sum of their
	// m·n. The producer counts it as it emits (Head), so no consumer has to
	// take a pass over the entries just to count.
	Pairs uint64
}

// All yields every pair of the batch, entry by entry and private tuple by
// private tuple — the order the row kernels emit pairs in. A batch whose
// entries are one pair each (Pairs counts them: a hash probe's on foreign
// keys, a merge of unique keys) is walked without the per-entry loops, which
// on such entries cost as much again as the walk itself.
func (b *Ranges) All() iter.Seq2[relation.Tuple, relation.Tuple] {
	return func(yield func(r, s relation.Tuple) bool) {
		if b.Pairs == uint64(len(b.I)) {
			los := b.Lo[:len(b.I)]
			for x, i := range b.I {
				c := los[x]
				if !yield(relation.Tuple{Key: b.RKeys[i], Payload: b.RPayloads[i]}, relation.Tuple{Key: b.SKeys[c], Payload: b.SPayloads[c]}) {
					return
				}
			}
			return
		}
		for x, i := range b.I {
			lo, hi := b.Lo[x], b.Hi[x]
			for a := i; a < b.IEnd[x]; a++ {
				r := relation.Tuple{Key: b.RKeys[a], Payload: b.RPayloads[a]}
				for c := lo; c < hi; c++ {
					if !yield(r, relation.Tuple{Key: b.SKeys[c], Payload: b.SPayloads[c]}) {
						return
					}
				}
			}
		}
	}
}

// Head cuts the batch to its first n entries, which stand for pairs pairs,
// and returns it. A producer writes the entries through index slices of its
// own, taken at full length before the first cut.
func (b *Ranges) Head(n int, pairs uint64) *Ranges {
	b.I, b.IEnd, b.Lo, b.Hi = b.I[:n], b.IEnd[:n], b.Lo[:n], b.Hi[:n]
	b.Pairs = pairs
	return b
}

// Scratch is the per-worker index scratch of one merge kernel: the four index
// columns of its range batches, leased from the join's lease and handed back
// by Close for intra-join reuse.
type Scratch struct {
	lease  *memory.Lease
	size   int
	idx    []int32 // backs the four index columns
	ranges Ranges
}

// NewScratch leases kernel scratch for batches of size entries (size <= 0
// selects DefaultSize).
func NewScratch(size int, lease *memory.Lease) *Scratch {
	if size <= 0 {
		size = DefaultSize
	}
	return &Scratch{lease: lease, size: size, idx: lease.Int32s(4 * size)}
}

// Ranges returns the scratch's range batch pointed at the columns of one
// kernel call, its index columns at full capacity. The batch is reused by the
// next call: consumers must not retain it.
func (s *Scratch) Ranges(rKeys, rPays, sKeys, sPays []uint64) *Ranges {
	n := s.size
	s.ranges = Ranges{
		RKeys: rKeys, RPayloads: rPays, SKeys: sKeys, SPayloads: sPays,
		I: s.idx[:n], IEnd: s.idx[n : 2*n], Lo: s.idx[2*n : 3*n], Hi: s.idx[3*n : 4*n],
	}
	return &s.ranges
}

// Close hands the scratch buffers back to the lease for reuse by the next
// kernel of the same join.
func (s *Scratch) Close() {
	if s == nil {
		return
	}
	s.lease.PutInt32s(s.idx)
	*s = Scratch{}
}

// Deinterleave splits an array-of-structs tuple slice into key and payload
// columns. keys and pays must have the source's length.
func Deinterleave(src []relation.Tuple, keys, pays []uint64) {
	_ = keys[:len(src)]
	_ = pays[:len(src)]
	for i, t := range src {
		keys[i] = t.Key
		pays[i] = t.Payload
	}
}

// Interleave is the inverse of Deinterleave: it merges key and payload
// columns into an array-of-structs slice of the columns' length.
func Interleave(keys, pays []uint64, dst []relation.Tuple) {
	_ = dst[:len(keys)]
	for i := range keys {
		dst[i] = relation.Tuple{Key: keys[i], Payload: pays[i]}
	}
}
