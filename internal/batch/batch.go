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
// keys (the source index packed into their spare low bits) instead of 16-byte
// tuples, lets the merge kernel scan a contiguous key column with software
// prefetch, and lets selections run branch-free over raw uint64 lanes,
// emitting selection vectors instead of calling a predicate per tuple.
//
// Column buffers are leased from the engine's scratch pool (internal/memory)
// like every other hot-path buffer, so the columnar path stays allocation-free
// in steady state. Match emission is batched: kernels collect (private,
// public) index pairs into a Pairs buffer and gather keys and payloads into a
// Columns triple only when the batch fills, which is when the sink boundary
// is crossed once per batch instead of once per match.
package batch

import (
	"repro/internal/memory"
	"repro/internal/relation"
)

// DefaultSize is the default number of tuples per batch: 1024 tuples keep a
// batch's three uint64 columns (24 KiB) plus its index pairs (8 KiB) inside a
// typical 32–48 KiB L1 data cache while amortizing the per-batch sink call.
const DefaultSize = 1024

// Size normalizes a configured batch size: 0 selects DefaultSize, negative
// values disable the columnar path entirely (callers treat <= 0 after
// normalization as "row-at-a-time"), and positive values are used as given.
func Size(configured int) int {
	if configured == 0 {
		return DefaultSize
	}
	return configured
}

// Run is a sorted worker-local run in columnar form: the key column in
// ascending order and the payload column permuted alongside it, so
// Keys[i] and Payloads[i] together form the i-th tuple of the run. It is the
// structure-of-arrays sibling of relation.Run.
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
// to dst. It is a test and fallback helper, not a hot-path operation.
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

// Pairs is a fixed-capacity buffer of match index pairs: R[i] indexes the
// private run and S[i] the public run of the i-th match found by a merge
// kernel. Kernels fill Pairs while scanning key columns only and defer every
// payload access to the gather that flushes the batch.
type Pairs struct {
	R, S []int32
	N    int
}

// Scratch bundles the per-worker columnar scratch of one merge kernel: the
// index-pair buffer and the gather columns it flushes into. All buffers come
// from the join's lease and are handed back by Close for intra-join reuse.
type Scratch struct {
	lease *memory.Lease
	size  int
	Pairs Pairs
	Out   Columns
}

// NewScratch leases kernel scratch for batches of size tuples (size <= 0
// selects DefaultSize).
func NewScratch(size int, lease *memory.Lease) *Scratch {
	if size <= 0 {
		size = DefaultSize
	}
	return &Scratch{
		lease: lease,
		size:  size,
		Pairs: Pairs{R: lease.Int32s(size), S: lease.Int32s(size)},
		Out: Columns{
			Keys:      lease.Uint64s(size),
			RPayloads: lease.Uint64s(size),
			SPayloads: lease.Uint64s(size),
		},
	}
}

// Cap returns the batch capacity in tuples.
func (s *Scratch) Cap() int { return s.size }

// Close hands the scratch buffers back to the lease for reuse by the next
// kernel of the same join.
func (s *Scratch) Close() {
	if s == nil {
		return
	}
	s.lease.PutInt32s(s.Pairs.R)
	s.lease.PutInt32s(s.Pairs.S)
	s.lease.PutUint64s(s.Out.Keys)
	s.lease.PutUint64s(s.Out.RPayloads)
	s.lease.PutUint64s(s.Out.SPayloads)
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
