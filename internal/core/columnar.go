package core

import (
	"context"
	"math/bits"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
)

// Run generation and the match phase of B-MPSM and P-MPSM. Both algorithms
// know one run representation — batch.Run, a sorted key column with its
// payload column permuted alongside (packed radix sort) — and one match
// phase over it, for every join kind: the range-emitting kernel of
// internal/mergejoin scans contiguous key columns, a band is one more
// parameter of that kernel, and the outer, semi and anti kinds are a
// mergejoin.Marker between the kernel and the sink writer; an inner
// equi-join into the max-sum or count sink folds its pairs in the kernel's
// loop instead (Exec.Folds), and then B- and P-MPSM generate their public
// runs grouped where the sort word carries the payload — one entry per key,
// its tuple count and largest payload (sorting.SortTuplesIntoGroups) — which
// the match phase folds with mergejoin.FoldGroups. D-MPSM generates raw
// runs, spills them to the simulated disk as pages of key and payload
// columns, and joins every page with the same kernel.

// sortChunkIntoColumnRun sorts one chunk of the input relation into a
// worker-local column run whose buffers come from the join's scratch lease
// (or fresh allocations when pooling is off). The redistribution into
// NUMA-local memory the paper prescribes ("chunk the data, redistribute, and
// then sort/work on your data locally") is fused with the sort, and the source
// chunk — possibly a neighbour's memory — is only ever read sequentially
// (commandment C2), twice: once for the key and payload domains and the first
// radix digit's counts, and once by the scatter that deinterleaves keys and
// payloads into the run's own buffers — one word a tuple when key and payload
// fit 64 bits together, a word and a parked payload otherwise. Everything
// after that, splitting the sorted words or gathering the parked payloads, is
// random access inside the run and the sort's bucket scratch, which the sort
// leases (and, for keys too wide for a position beside them, a column of the
// chunk's size for the full keys) and hands back before it returns.
//
// srcNode is the NUMA node the source chunk resides on (the input relation is
// assumed to be range-chunked over the nodes); the run itself is allocated on
// the worker's home node. If presorted is true and the chunk is verified to be
// in key order already, the sorting pass is skipped (exploiting pre-existing
// sort orders, as the paper suggests) and the chunk is merely split into
// columns. If group is true, a chunk the sort packs with its payloads in the
// sort word comes back grouped (batch.Run.Counts); every other chunk comes
// back raw. The run's PayBound is its payloads' OR.
func sortChunkIntoColumnRun(chunk relation.Chunk, srcNode int, presorted, group bool, w *sched.Worker, lease *memory.Lease) *batch.Run {
	n := len(chunk.Tuples)
	run := batch.NewRun(w.ID(), w.Node(), n, lease)
	skippedSort := presorted && relation.IsSortedByKey(chunk.Tuples)
	switch {
	case skippedSort:
		batch.Deinterleave(chunk.Tuples, run.Keys, run.Payloads)
		run.PayBound = 0
		for _, p := range run.Payloads {
			run.PayBound |= p
		}
	case group:
		counts, payBound := sorting.SortTuplesIntoGroups(chunk.Tuples, run.Keys, run.Payloads, lease)
		run.PayBound = payBound
		if counts != nil {
			run.Keys, run.Payloads, run.Counts = run.Keys[:len(counts)], run.Payloads[:len(counts)], counts
		}
	default:
		run.PayBound = sorting.SortTuplesIntoColumns(chunk.Tuples, run.Keys, run.Payloads, lease)
	}

	if tracker := w.Tracker(); tracker != nil {
		un := uint64(n)
		// Either way the source is read sequentially twice (order check and
		// deinterleave, or key domain with the first digit's counts and
		// scatter; the rare recount of a key width guessed too narrow goes
		// uncharged) and the local run written once; sorting adds O(n)
		// passes of local random accesses: the scatter plus the in-cache
		// finishing work, charged as two read/write passes. The model counts
		// tuples, not words, so both carriers of the packed sort are charged
		// alike: each places a tuple once in the scatter and moves it twice
		// in stage 2 (the counting pass and the unpack), although the payload
		// carrier writes one word a tuple in the scatter where the position
		// carrier writes two and gathers nothing, a grouped run's unpack
		// writes one entry a key group, and a grouped bucket whose key bits
		// left one counting pass covers is not sorted at all: that pass reads
		// each word once and its entries come straight from the counters.
		// The charges stay alike for all of them: the model counts tuples
		// placed, not the accesses each bucket's path makes.
		tracker.SeqRead(srcNode, 2*un)
		tracker.SeqWrite(run.Node, un)
		if !skippedSort {
			tracker.RandRead(run.Node, 2*un)
			tracker.RandWrite(run.Node, 2*un)
		}
	}
	return run
}

// match runs the match phase B-MPSM (phase 3) and P-MPSM (phase 4) share as
// the execution's last phase and finishes the execution.
func match(ctx context.Context, x *Exec, phase string, private, public []*batch.Run, skip bool) (*result.Result, error) {
	m := &matcher{x: x, out: x.Bind(), private: private, public: public, scanned: make([]int, len(private)), skip: skip, folds: x.Folds()}
	if err := x.Record(phase, m.run(ctx, phase)); err != nil {
		return nil, err
	}
	sizes := make([]int, len(private))
	for w, run := range private {
		sizes[w] = run.Len()
	}
	return x.Finish(sizes, m.scanned)
}

// matcher is the match phase: every private run is merge joined against
// every public run, matches streaming into the executing worker's sink
// writer and work counters, so no synchronization is needed beyond the phase
// barrier (Static) or the task queue (Morsel).
type matcher struct {
	x               *Exec
	out             *sink.Bound
	private, public []*batch.Run
	scanned         []int // public entries scanned, per worker
	// skip enters every public run by interpolation search at the window the
	// private keys can reach (P-MPSM; and every morsel, a segment covering a
	// sliver of the key domain). Without it each public run is scanned in
	// full — B-MPSM's defining O(|S|) join work per worker.
	skip bool
	// folds runs FoldColumns instead of the range kernel (Exec.Folds).
	folds bool
}

// run executes the match phase under the configured scheduler and returns its
// wall time.
//
// Static: worker w joins exactly its own private run against all public
// runs. Remote runs are only read sequentially (commandment C2), and the one
// synchronization point the algorithm needs — all public runs sorted before
// the join starts — is the phase barrier before it.
//
// Morsel: every private run is cut into segments of at most opts.MorselSize
// tuples, and any worker may steal a segment's tasks, preferring the NUMA
// node the run lives on. That is correct for every join flavour because all
// of them have per-private-tuple semantics: an inner or band join pairs a
// segment with a single public run, one task each; the marking kinds need a
// segment's match state across all public runs, so one task joins the
// segment against every one of them and keeps the marks task-local. The
// public run list always holds one run per worker (possibly empty), so a
// marking task is never starved of its classification pass.
func (m *matcher) run(ctx context.Context, phase string) time.Duration {
	opts := m.x.Opts
	if opts.Scheduler != sched.Morsel {
		return m.x.RT.Phase(ctx, phase, func(ctx context.Context, w *sched.Worker) {
			priv := m.private[w.ID()]
			m.join(ctx, w, priv.Keys, priv.Payloads, priv.Node, m.public)
		})
	}
	var tasks []sched.Task
	for _, priv := range m.private {
		node := priv.Node
		sched.ForEachSegment(priv.Len(), opts.MorselSize, func(lo, hi int) {
			keys, pays := priv.Keys[lo:hi], priv.Payloads[lo:hi]
			task := func(public []*batch.Run) {
				tasks = append(tasks, sched.Task{Node: node, Run: func(w *sched.Worker) {
					m.join(ctx, w, keys, pays, node, public)
				}})
			}
			if opts.Kind != mergejoin.Inner {
				task(m.public)
				return
			}
			for p := range m.public {
				task(m.public[p : p+1])
			}
		})
	}
	return m.x.RT.RunTasks(ctx, phase, tasks)
}

// join merge joins one private run, or a segment of one, against the given
// public runs on worker w. An inner join hands the kernel the sink writer
// itself, or, where the join folds, folds every public run into one fold and
// hands the writer the task's (count, max) once; the other kinds put a marker
// in front of the writer, which classifies the private key groups once the
// last public run has been seen. Cancellation is checked per public run, the
// chunk unit of the merge loop; a cancelled marker emits no classification, a
// cancelled fold what it folded until then.
func (m *matcher) join(ctx context.Context, w *sched.Worker, keys, pays []uint64, node int, public []*batch.Run) {
	opts, out := m.x.Opts, m.out.Writer(w.ID())
	var cons mergejoin.RangeConsumer = out
	var marker *mergejoin.Marker
	var sc *batch.Scratch // the range kernels' and the marker's batches; a fold reads none
	if !m.folds {
		sc = m.x.Scratch(w.ID())
	}
	if opts.Kind != mergejoin.Inner {
		marker = mergejoin.NewMarker(opts.Kind, keys, pays, cons, sc, m.x.Lease)
		cons = marker
	}
	var f fold
	tracker := w.Tracker()
	for _, pub := range public {
		if sched.Canceled(ctx) {
			break
		}
		n := pub.Len()
		switch {
		case m.folds:
			n = f.add(keys, pays, pub.Keys, pub.Payloads, pub.Counts, m.skip)
		case m.skip:
			n = mergejoin.JoinColumnsWithSkip(keys, pays, pub.Keys, pub.Payloads, opts.Band, cons, sc)
		default:
			mergejoin.JoinColumnsBand(keys, pays, pub.Keys, pub.Payloads, opts.Band, cons, sc)
		}
		m.scanned[w.ID()] += n
		if tracker != nil {
			// The private run is re-scanned once per public run (locally);
			// the public run is scanned sequentially on whichever node it
			// lives, over the window the kernel entered: tuples, or key
			// groups of a grouped run.
			tracker.SeqRead(node, uint64(len(keys)))
			tracker.SeqRead(pub.Node, uint64(n))
		}
	}
	f.flush(out)
	if marker != nil {
		marker.Finish(ctx)
	}
}

// fold is the (count, max) a task of a join that folds (Exec.Folds) has
// folded so far: B- and P-MPSM's match task over its public runs, D-MPSM's
// worker over its pages.
type fold struct{ pairs, best uint64 }

// add folds the equi-join of a private and a public key-sorted column pair —
// mergejoin.FoldGroups where sCounts holds the public side's group counts (a
// grouped run), FoldColumns where it is nil — and returns the number of
// public entries it scanned.
func (f *fold) add(keys, pays, sKeys, sPays []uint64, sCounts []int32, skip bool) int {
	var pairs, best uint64
	var scanned int
	if sCounts != nil {
		pairs, best, scanned = mergejoin.FoldGroups(keys, pays, sKeys, sPays, sCounts, skip)
	} else {
		pairs, best, scanned = mergejoin.FoldColumns(keys, pays, sKeys, sPays, skip)
	}
	f.pairs, f.best = f.pairs+pairs, max(f.best, best)
	return scanned
}

// flush hands out what the task folded, as one batch, if it found a pair.
func (f *fold) flush(out *sink.Writer) {
	if f.pairs > 0 {
		out.ConsumeFold(f.pairs, f.best)
	}
}

// carryBound is the bound a grouped public run's payloads are checked against
// (carries): the private payloads' bound, or 0 into the count sink, which
// drops the largest sum and so never needs a group's pairs.
func carryBound(x *Exec, privBound uint64) uint64 {
	if _, count := x.Opts.Sink.(*sink.Count); count {
		return 0
	}
	return privBound
}

// carries reports whether a grouped run's largest payload of some key plus a
// private payload up to privBound can carry past 2^64 − 1. A group keeps only
// its largest payload, so the fold's pair-by-pair answer for a carrying group
// (mergejoin.FoldColumns) cannot be recomputed from it.
func carries(run *batch.Run, privBound uint64) bool {
	_, carry := bits.Add64(run.PayBound, privBound, 0)
	return run.Counts != nil && carry != 0
}

// ungroup returns the public run to match against private payloads up to
// privBound: run itself, unless it carries, in which case its columns go back
// to the lease and its chunk is sorted again, raw.
func ungroup(run *batch.Run, chunk relation.Chunk, srcNode int, privBound uint64, w *sched.Worker, lease *memory.Lease) *batch.Run {
	if !carries(run, privBound) {
		return run
	}
	run.Release(lease)
	return sortChunkIntoColumnRun(chunk, srcNode, false, false, w, lease)
}
