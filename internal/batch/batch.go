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
// in steady state. Merge output is batched as Ranges: one entry per private
// key group naming the contiguous window of the public run it joins with —
// what sorted runs give a merge join for free. Consumers that can fold a
// whole group × window (aggregates, counters) do so in O(m+n) and never see
// a pair; for the others the kernel expands the entries into a Columns
// triple, so the sink boundary is crossed once per batch either way.
package batch

import (
	"repro/internal/memory"
	"repro/internal/relation"
)

// DefaultSize is the default batch size, in range entries and in expanded
// tuples: 1024 keep a batch's three uint64 columns (24 KiB) or its four index
// columns (16 KiB) inside a typical 32–48 KiB L1 data cache while amortizing
// the per-batch sink call.
const DefaultSize = 1024

// Run is a sorted worker-local run in columnar form: the key column in
// ascending order and the payload column permuted alongside it, so
// Keys[i] and Payloads[i] together form the i-th tuple of the run. Runs are
// the unit the MPSM join phase operates on: each worker merge joins its
// private run against all public runs.
type Run struct {
	// Worker is the worker that produced the run; Node is the NUMA node the
	// run's column buffers live on.
	Worker, Node int
	// Keys is the sorted key column; Payloads is the payload column in the
	// same order. Both have identical length.
	Keys, Payloads []uint64
}

// Len returns the number of tuples in the run.
func (r *Run) Len() int { return len(r.Keys) }

// NewRun leases key and payload columns of length n from the lease (plain
// allocation when the lease is nil). The contents are unspecified.
func NewRun(worker, node, n int, lease *memory.Lease) *Run {
	return &Run{
		Worker:   worker,
		Node:     node,
		Keys:     lease.Uint64s(n),
		Payloads: lease.Uint64s(n),
	}
}

// Tuples interleaves the run back into an array-of-structs slice, appending
// to dst. It is a test helper, not a hot-path operation.
func (r *Run) Tuples(dst []relation.Tuple) []relation.Tuple {
	for i := range r.Keys {
		dst = append(dst, relation.Tuple{Key: r.Keys[i], Payload: r.Payloads[i]})
	}
	return dst
}

// Columns is one batch of matched join output in columnar form: the join key
// and the two payload columns of up to Size matches. All three slices share
// one length.
type Columns struct {
	Keys      []uint64
	RPayloads []uint64
	SPayloads []uint64
}

// Ranges is one batch of merge-join output in range form. Entry x pairs every
// private tuple in [I[x], IEnd[x]) — one key group of the private run — with
// every public tuple in [Lo[x], Hi[x]), the group's window of the public run:
// its equal-key group when Band is 0, the keys within Band of the group's key
// otherwise. Neither side of an entry is empty, and the four index columns
// share one length.
//
// The outer, semi and anti joins classify private key groups rather than
// pair them, and report each classified group as an entry too: its window is
// [0, 1) of the null run, a one-tuple public run {0, 0}, in a batch marked
// Null. A consumer that folds entries needs no case for it — the group's
// pairs are (r, zero tuple) — and one that takes pairs is handed exactly
// those.
type Ranges struct {
	// RKeys/RPayloads are the private run the entries index, SKeys/SPayloads
	// the public one.
	RKeys, RPayloads []uint64
	SKeys, SPayloads []uint64
	// Band is the join's band width; 0 means every pair of an entry shares
	// its key, unless the batch is Null.
	Band uint64
	// Null marks a batch against the null run: the public side of every pair
	// is the zero tuple, whatever the private key.
	Null            bool
	I, IEnd, Lo, Hi []int32
	// Pairs is the number of pairs the entries stand for: the sum of their
	// m·n. The kernel keeps it as it emits, so no consumer has to take a pass
	// over the entries just to count.
	Pairs uint64
}

// Scratch bundles the per-worker columnar scratch of one merge kernel: the
// index columns of its range batches and, for consumers that take no ranges,
// the gather columns the entries expand into. All buffers come from the
// join's lease and are handed back by Close for intra-join reuse.
type Scratch struct {
	lease  *memory.Lease
	size   int
	idx    []int32 // backs the four index columns
	ranges Ranges
	out    Columns // leased by the first expansion
}

// NewScratch leases kernel scratch for batches of size entries (size <= 0
// selects DefaultSize).
func NewScratch(size int, lease *memory.Lease) *Scratch {
	if size <= 0 {
		size = DefaultSize
	}
	return &Scratch{lease: lease, size: size, idx: lease.Int32s(4 * size)}
}

// Cap returns the batch capacity in entries.
func (s *Scratch) Cap() int { return s.size }

// Ranges returns the scratch's range batch pointed at the runs of one kernel
// call, its index columns at full capacity. The batch is reused by the next
// call: consumers must not retain it.
func (s *Scratch) Ranges(rKeys, rPays, sKeys, sPays []uint64, band uint64) *Ranges {
	n := s.size
	s.ranges = Ranges{
		RKeys: rKeys, RPayloads: rPays, SKeys: sKeys, SPayloads: sPays, Band: band,
		I: s.idx[:n], IEnd: s.idx[n : 2*n], Lo: s.idx[2*n : 3*n], Hi: s.idx[3*n : 4*n],
	}
	return &s.ranges
}

// Columns returns the gather columns entries expand into, Cap() tuples each.
func (s *Scratch) Columns() *Columns {
	if s.out.Keys == nil {
		s.out = Columns{
			Keys:      s.lease.Uint64s(s.size),
			RPayloads: s.lease.Uint64s(s.size),
			SPayloads: s.lease.Uint64s(s.size),
		}
	}
	return &s.out
}

// Close hands the scratch buffers back to the lease for reuse by the next
// kernel of the same join.
func (s *Scratch) Close() {
	if s == nil {
		return
	}
	s.lease.PutInt32s(s.idx)
	s.lease.PutUint64s(s.out.Keys)
	s.lease.PutUint64s(s.out.RPayloads)
	s.lease.PutUint64s(s.out.SPayloads)
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
